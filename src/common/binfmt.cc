#include "binfmt.hh"

#include <sys/stat.h>

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/strfmt.hh"

namespace dasdram
{
namespace binfmt
{

// checksum64 reads its words with one memcpy each, in host order.
static_assert(std::endian::native == std::endian::little,
              "checksum64 loads words little-endian");

namespace
{

/** One checksum lane step; a bijection of @p h for fixed @p w and of
 *  @p w for fixed @p h. */
std::uint64_t
lane(std::uint64_t h, std::uint64_t w)
{
    return std::rotl((h ^ w) * 0x9e3779b97f4a7c15ull, 31);
}

std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

using Header = std::array<unsigned char, kEnvelopeHeaderBytes>;

Header
header(std::uint32_t magic, std::uint16_t version, std::uint64_t len)
{
    Header h{}; // flags (bytes 6-7) stay zero, reserved
    putLe(h.data(), magic, 4);
    putLe(h.data() + 4, version, 2);
    putLe(h.data() + 8, len, 8);
    return h;
}

/** The trailing checksum: the payload's checksum64 seeded with the
 *  header's, so it covers both without joining them in one buffer. */
std::uint64_t
envelopeChecksum(const unsigned char *head,
                 std::span<const unsigned char> payload)
{
    return checksum64(payload.data(), payload.size(),
                      checksum64(head, kEnvelopeHeaderBytes));
}

} // namespace

void
putLe(unsigned char *dst, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        dst[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe(const unsigned char *src, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return v;
}

std::uint64_t
fnv1a64(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
checksum64(const void *data, std::size_t n, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    // The seed enters one lane only: a different seed, like a
    // different word, changes exactly one chain of bijections.
    std::uint64_t a = splitmix64(seed), b = 0x243f6a8885a308d3ull,
                  c = 0x13198a2e03707344ull, d = 0xa4093822299f31d0ull;
    std::size_t i = 0;
    for (; n - i >= 32; i += 32) {
        a = lane(a, load64(p + i));
        b = lane(b, load64(p + i + 8));
        c = lane(c, load64(p + i + 16));
        d = lane(d, load64(p + i + 24));
    }
    std::uint64_t h = lane(lane(lane(lane(n, a), b), c), d);
    for (; n - i >= 8; i += 8)
        h = lane(h, load64(p + i));
    if (i < n) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, p + i, n - i);
        h = lane(h, tail);
    }
    return splitmix64(h);
}

std::vector<unsigned char>
encodeEnvelope(std::uint32_t magic, std::uint16_t version,
               std::span<const unsigned char> payload)
{
    Header head = header(magic, version, payload.size());
    std::vector<unsigned char> out;
    out.reserve(kEnvelopeHeaderBytes + payload.size() +
                kEnvelopeChecksumBytes);
    out.assign(head.begin(), head.end());
    out.insert(out.end(), payload.begin(), payload.end());
    out.resize(out.size() + kEnvelopeChecksumBytes);
    putLe(out.data() + kEnvelopeHeaderBytes + payload.size(),
          envelopeChecksum(head.data(), payload), 8);
    return out;
}

EnvelopeResult
decodeEnvelope(std::vector<unsigned char> bytes, std::uint32_t magic,
               std::uint16_t version, const std::string &what)
{
    EnvelopeResult r;
    if (bytes.size() < kEnvelopeHeaderBytes + kEnvelopeChecksumBytes) {
        r.error = formatStr("truncated {}: {} byte(s), need at least {}",
                            what, bytes.size(),
                            kEnvelopeHeaderBytes + kEnvelopeChecksumBytes);
        return r;
    }
    std::uint32_t got_magic =
        static_cast<std::uint32_t>(getLe(bytes.data(), 4));
    if (got_magic != magic) {
        r.error = formatStr("bad magic 0x{:x} (not a dasdram {})",
                            got_magic, what);
        return r;
    }
    auto got_version =
        static_cast<std::uint16_t>(getLe(bytes.data() + 4, 2));
    if (got_version > version) {
        r.error = formatStr("{} version {} is newer than this build "
                            "understands (max {})",
                            what, got_version, version);
        return r;
    }
    if (got_version < version) {
        r.error = formatStr("{} version {} comes from an older build; "
                            "re-create it with this build (version {})",
                            what, got_version, version);
        return r;
    }
    const std::uint64_t len = getLe(bytes.data() + 8, 8);
    const std::size_t held =
        bytes.size() - kEnvelopeHeaderBytes - kEnvelopeChecksumBytes;
    if (len != held) {
        r.error = formatStr("truncated {}: header frames {} payload "
                            "byte(s), file holds {}",
                            what, len, held);
        return r;
    }
    r.bytes = std::move(bytes);
    std::span<const unsigned char> payload = r.payload();
    std::uint64_t want = getLe(payload.data() + payload.size(), 8);
    if (want != envelopeChecksum(r.bytes.data(), payload)) {
        r.error = formatStr("corrupt {}: checksum mismatch", what);
        r.bytes.clear();
    }
    return r;
}

std::string
writeEnvelopeFile(const std::string &path, std::uint32_t magic,
                  std::uint16_t version,
                  std::span<const unsigned char> payload)
{
    Header head = header(magic, version, payload.size());
    unsigned char sum[kEnvelopeChecksumBytes];
    putLe(sum, envelopeChecksum(head.data(), payload), 8);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return formatStr("cannot open '{}' for writing", path);
    bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();
    if (ok && !payload.empty())
        ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
             payload.size();
    ok = ok && std::fwrite(sum, 1, sizeof(sum), f) == sizeof(sum);
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return formatStr("short write to '{}'", path);
    return "";
}

EnvelopeResult
readEnvelopeFile(const std::string &path, std::uint32_t magic,
                 std::uint16_t version, const std::string &what)
{
    EnvelopeResult r;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        r.error = formatStr("cannot open {} '{}'", what, path);
        return r;
    }
    struct stat st;
    if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
        std::fclose(f);
        r.error = formatStr("{} '{}' is not a regular file", what, path);
        return r;
    }
    std::vector<unsigned char> bytes(static_cast<std::size_t>(st.st_size));
    std::size_t n =
        bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        r.error = formatStr("I/O error reading {} '{}'", what, path);
        return r;
    }
    bytes.resize(n); // a file that shrank since fstat reads as truncated
    r = decodeEnvelope(std::move(bytes), magic, version, what);
    if (!r.ok())
        r.error += formatStr(" ('{}')", path);
    return r;
}

} // namespace binfmt
} // namespace dasdram
