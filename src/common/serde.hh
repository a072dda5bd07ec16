/**
 * @file
 * The checkpoint serde visitor: one Archive class drives both
 * directions of component serialisation. Every stateful component
 * implements a single symmetric method
 *
 *     void serdeState(Archive &ar);
 *
 * that calls ar.io(field) on each piece of state in a fixed order;
 * the same code path saves and loads, so the two can never drift.
 * Named, length-framed sections (ar.section/ar.end) give the stream
 * self-describing structure: a load that reaches the wrong section
 * name or leaves bytes unconsumed fails loudly instead of misreading.
 *
 * The byte stream produced here is the payload of a binfmt envelope
 * (magic + schema version + length + checksum); see snapshot users
 * sim/system.cc and sim/fuzz.cc.
 *
 * Field encoding: every integral (and enum) field is stored as 8
 * little-endian bytes, doubles bit-exact through their u64 image,
 * strings and vectors length-prefixed. The host must be
 * little-endian (asserted below), so each field is one 8-byte memcpy
 * into or out of the buffer. The saver appends to one buffer that
 * grows geometrically; the loader consumes the payload in place,
 * inside the buffer the envelope was read into, and copies nothing.
 * Load-side mismatches are fatal(): an envelope that passed
 * magic/version/checksum validation but desynchronises here — a
 * section, string or vector longer than what is left included — is a
 * serde bug, not user input.
 */

#ifndef DASDRAM_COMMON_SERDE_HH
#define DASDRAM_COMMON_SERDE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dasdram
{

class Archive
{
  public:
    /** A saving archive writing into an internal buffer. */
    Archive();

    /** A loading archive consuming @p payload in place; the bytes
     *  must outlive the archive. */
    explicit Archive(std::span<const unsigned char> payload);

    ~Archive();
    Archive(const Archive &) = delete;
    Archive &operator=(const Archive &) = delete;

    bool saving() const { return saving_; }
    bool loading() const { return !saving_; }

    /// @name Sections
    /// @{

    /** Open a named, length-framed section; nestable. On load the
     *  name must match exactly. */
    void section(const char *name);

    /** Close the innermost section; on load the section must be fully
     *  consumed. */
    void end();

    /// @}
    /// @name Fields
    /// @{

    /** Integral or enum field, 8 bytes little-endian. */
    template <typename T,
              typename std::enable_if<std::is_integral<T>::value ||
                                          std::is_enum<T>::value,
                                      int>::type = 0>
    void
    io(T &v)
    {
        std::uint64_t u =
            saving_ ? static_cast<std::uint64_t>(v) : 0;
        raw64(u);
        if (!saving_)
            v = static_cast<T>(u);
    }

    /** Double, bit-exact via its 64-bit image. */
    void
    io(double &v)
    {
        std::uint64_t u = 0;
        if (saving_)
            std::memcpy(&u, &v, 8);
        raw64(u);
        if (!saving_)
            std::memcpy(&v, &u, 8);
    }

    void io(std::string &s);

    /** Vector of integral/enum/double elements. */
    template <typename T>
    void
    io(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        ioCount(n);
        if (!saving_)
            v.resize(static_cast<std::size_t>(n));
        for (auto &e : v)
            io(e);
    }

    /**
     * A variable-size container's element count. On load it fatal()s
     * when the rest of the stream cannot hold @p n elements (each
     * encodes to at least 8 bytes), so a corrupt count is reported as
     * truncation instead of sizing a huge allocation.
     */
    void
    ioCount(std::uint64_t &n)
    {
        raw64(n);
        if (!saving_ && n > (end_ - pos_) / 8)
            truncated("container");
    }

    /**
     * A table of @p n entries stored as its live entries only: their
     * count, then each live entry's index in ascending order followed
     * by the fields @p fields(i) reads or writes. Saving calls
     * @p each_live(entry), which calls entry(i) for every live index
     * i < n in ascending order, so the bytes depend on the contents
     * alone and a sparse table can skip what it never allocated.
     * Loading checks each index is below @p n and above the previous
     * one, else fatal() naming @p what and the index; the caller
     * resets the table to its constructed state first and validates
     * the fields.
     */
    template <typename EachLive, typename Fields>
    void
    liveEntries(std::uint64_t n, std::string_view what, EachLive each_live,
                Fields fields)
    {
        std::uint64_t count = 0;
        if (saving_) {
            const std::size_t at = pos_;
            raw64(count); // patched once the entries are written
            each_live([&](std::uint64_t i) {
                raw64(i);
                fields(i);
                ++count;
            });
            std::memcpy(out_ + at, &count, 8);
            return;
        }
        ioCount(count);
        for (std::uint64_t k = 0, prev = 0; k < count; ++k) {
            std::uint64_t i = 0;
            raw64(i);
            if (i >= n || (k > 0 && i <= prev))
                badEntryIndex(what, i, n, prev);
            fields(i);
            prev = i;
        }
    }

    /** Raw byte blob of a known (unframed) size. */
    void blob(void *p, std::size_t n);

    // pod() and the 8-byte field codec both copy host bytes; the
    // fields are little-endian on disk only because the host is.
    static_assert(std::endian::native == std::endian::little,
                  "the snapshot field encoding assumes a little-endian "
                  "host");

    /** A trivially-copyable struct as one blob (host byte order —
     *  checkpoints are same-build artifacts, guarded by the envelope
     *  version). */
    template <typename T>
    void
    pod(T &v)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "pod() needs a trivially copyable type");
        blob(&v, sizeof(T));
    }

    /** Element count gate: saves @p n; on load fatal()s unless the
     *  saved count equals @p n. For fixed-shape containers (stat
     *  trees, per-bank vectors) whose size is config-derived. */
    void expectCount(std::uint64_t n, const char *what);

    /// @}

    /** Saver: the payload written so far, in place (valid until the
     *  next write or the archive's end). */
    std::span<const unsigned char> payload() const;

    /** Loader: assert the payload was fully consumed. */
    void finish();

  private:
    /** Saver: room for @p n more bytes, growing the buffer. */
    unsigned char *
    claim(std::size_t n)
    {
        if (n > end_ - pos_)
            grow(n);
        unsigned char *p = out_ + pos_;
        pos_ += n;
        return p;
    }

    /** Loader: the next @p n bytes, or fatal() truncated mid-@p what. */
    const unsigned char *
    consume(std::uint64_t n, const char *what)
    {
        if (n > end_ - pos_)
            truncated(what);
        const unsigned char *p = in_ + pos_;
        pos_ += static_cast<std::size_t>(n);
        return p;
    }

    void
    raw64(std::uint64_t &v)
    {
        if (saving_)
            std::memcpy(claim(8), &v, 8);
        else
            std::memcpy(&v, consume(8, "field"), 8);
    }

    void grow(std::size_t n);
    [[noreturn]] void truncated(const char *what) const;
    /** Loader: live entry @p i is out of range, or not above the
     *  previous entry @p prev. */
    [[noreturn]] static void badEntryIndex(std::string_view what,
                                           std::uint64_t i,
                                           std::uint64_t n,
                                           std::uint64_t prev);

    bool saving_;
    unsigned char *out_ = nullptr;      ///< saver: realloc-grown buffer
    const unsigned char *in_ = nullptr; ///< loader: the payload
    /** Saver: capacity of out_. Loader: payload size. */
    std::size_t end_ = 0;
    std::size_t pos_ = 0; ///< bytes written / consumed
    /** Saver: offsets of unpatched length fields. Loader: section end
     *  offsets. */
    std::vector<std::size_t> stack_;
};

} // namespace dasdram

#endif // DASDRAM_COMMON_SERDE_HH
