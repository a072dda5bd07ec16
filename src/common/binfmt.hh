/**
 * @file
 * The repo's one versioned-binary-envelope API: little-endian field
 * codecs, the hashes (FNV-1a and splitmix64 for config fingerprints
 * and derived seeds, the word-at-a-time checksum64 for content
 * checksums), and the framed envelope every dasdram binary artifact
 * opens with — magic, schema version, payload length, payload,
 * trailing checksum.
 *
 * Both on-disk binary formats build on this: the binary trace format
 * (workload/trace_format.hh, a headerless-payload special case that
 * predates the envelope and keeps its exact byte layout) and the
 * checkpoint format (common/serde.hh). Readers share the same
 * refuse-on-bad-magic / refuse-on-other-version semantics, reported
 * as error strings so tools can fatal() and tests can assert.
 */

#ifndef DASDRAM_COMMON_BINFMT_HH
#define DASDRAM_COMMON_BINFMT_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dasdram
{
namespace binfmt
{

/// @name Little-endian field codec
/// @{

/** Write the low @p bytes bytes of @p v little-endian at @p dst. */
void putLe(unsigned char *dst, std::uint64_t v, unsigned bytes);

/** Read @p bytes little-endian bytes at @p src. */
std::uint64_t getLe(const unsigned char *src, unsigned bytes);

/// @}
/// @name Hashes
/// @{

/** FNV-1a over @p n bytes, continuing from @p h (pass the default to
 *  start a fresh hash). Byte-serial; the config fingerprint and the
 *  sweep's per-point seeds use it. */
std::uint64_t fnv1a64(const void *data, std::size_t n,
                      std::uint64_t h = 0xcbf29ce484222325ull);

/** splitmix64 mixing step; chains hashes into derived seeds. */
std::uint64_t splitmix64(std::uint64_t x);

/**
 * Content checksum of @p n bytes, seeded with @p seed. Four
 * independent multiply-xor-rotate lanes consume little-endian 8-byte
 * words, a zero-padded byte tail and the length are folded in, and
 * splitmix64 finishes. Every step is a bijection of the state, so any
 * change confined to one 8-byte word (every single-byte corruption
 * included) or to the seed always changes the result.
 */
std::uint64_t checksum64(const void *data, std::size_t n,
                         std::uint64_t seed = 0);

/// @}
/// @name Versioned envelope
/// @{

/** Fixed envelope header size: u32 magic, u16 version, u16 flags,
 *  u64 payload length. A u64 checksum64 over header + payload trails
 *  the payload (the payload's checksum64 seeded with the header's). */
constexpr std::size_t kEnvelopeHeaderBytes = 16;
constexpr std::size_t kEnvelopeChecksumBytes = 8;

/** Result of decoding an envelope: ok() or a human-readable error. */
struct EnvelopeResult
{
    std::string error; ///< empty on success
    std::vector<unsigned char> bytes; ///< the whole envelope

    bool ok() const { return error.empty(); }

    /** The payload, in place inside @c bytes; only when ok(). */
    std::span<const unsigned char>
    payload() const
    {
        return std::span<const unsigned char>(bytes).subspan(
            kEnvelopeHeaderBytes,
            bytes.size() - kEnvelopeHeaderBytes - kEnvelopeChecksumBytes);
    }
};

/** Frame @p payload into a full envelope byte stream. */
std::vector<unsigned char> encodeEnvelope(
    std::uint32_t magic, std::uint16_t version,
    std::span<const unsigned char> payload);

/**
 * Decode and validate an envelope: magic must equal @p magic, the
 * version must equal @p version (newer and older files are refused
 * before their checksum is checked, not misread), the length must
 * frame the buffer exactly and the trailing checksum must match.
 * @p what names the artifact in error messages (e.g. "checkpoint").
 * The result keeps @p bytes; its payload() is a view into them, not
 * a copy.
 */
EnvelopeResult decodeEnvelope(std::vector<unsigned char> bytes,
                              std::uint32_t magic, std::uint16_t version,
                              const std::string &what);

/** Write the envelope of @p payload to @p path (header, payload and
 *  checksum straight from their buffers); returns an error string
 *  (empty on success). */
std::string writeEnvelopeFile(const std::string &path, std::uint32_t magic,
                              std::uint16_t version,
                              std::span<const unsigned char> payload);

/** Read @p path with one read into a buffer of the file's size, then
 *  decodeEnvelope. A path that is not a regular file is an error. */
EnvelopeResult readEnvelopeFile(const std::string &path,
                                std::uint32_t magic,
                                std::uint16_t version,
                                const std::string &what);

/// @}

} // namespace binfmt
} // namespace dasdram

#endif // DASDRAM_COMMON_BINFMT_HH
