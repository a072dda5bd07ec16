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
 * strings and byte blobs length-prefixed. Load-side mismatches are
 * fatal(): an envelope that passed magic/version/checksum validation
 * but desynchronises here is a serde bug, not user input.
 */

#ifndef DASDRAM_COMMON_SERDE_HH
#define DASDRAM_COMMON_SERDE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace dasdram
{

class Archive
{
  public:
    /** A saving archive writing into an internal buffer. */
    Archive();

    /** A loading archive consuming @p payload. */
    explicit Archive(std::vector<unsigned char> payload);

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
        raw64(n);
        if (!saving_)
            v.resize(static_cast<std::size_t>(n));
        for (auto &e : v)
            io(e);
    }

    /** Raw byte blob of a known (unframed) size. */
    void blob(void *p, std::size_t n);

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

    /** Saver: take the accumulated payload. */
    std::vector<unsigned char> take();

    /** Loader: assert the payload was fully consumed. */
    void finish();

  private:
    void raw64(std::uint64_t &v);

    bool saving_;
    std::vector<unsigned char> buf_;
    std::size_t pos_ = 0;
    /** Saver: offsets of unpatched length fields. Loader: section end
     *  offsets. */
    std::vector<std::size_t> stack_;
};

} // namespace dasdram

#endif // DASDRAM_COMMON_SERDE_HH
