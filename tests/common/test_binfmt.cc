/**
 * @file
 * Unit tests for the binary envelope: checksum64 and the
 * encode/decode/file round trips, and that every single-bit flip or
 * one-byte truncation of an envelope is refused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/binfmt.hh"

using namespace dasdram;

namespace
{

constexpr std::uint32_t kMagic = 0x54534554u; // "TEST"
constexpr std::uint16_t kVersion = 3;

std::vector<unsigned char>
patternBytes(std::size_t n)
{
    std::vector<unsigned char> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<unsigned char>(i * 37 + 11);
    return v;
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

} // namespace

TEST(Checksum64, DependsOnSeedLengthAndWordOrder)
{
    std::vector<unsigned char> a = patternBytes(64);
    const std::uint64_t base = binfmt::checksum64(a.data(), a.size());
    EXPECT_EQ(base, binfmt::checksum64(a.data(), a.size()));
    EXPECT_NE(base, binfmt::checksum64(a.data(), a.size(), 1));
    // A trailing zero byte is zero padding to the tail word, so only
    // the folded-in length tells these two apart.
    std::vector<unsigned char> z(8, 0);
    EXPECT_NE(binfmt::checksum64(z.data(), 7),
              binfmt::checksum64(z.data(), 8));
    // Two words swapped between lanes: same bytes, other order.
    std::vector<unsigned char> b = a;
    std::swap_ranges(b.begin(), b.begin() + 8, b.begin() + 8);
    EXPECT_NE(base, binfmt::checksum64(b.data(), b.size()));
}

TEST(Envelope, RoundTripsEveryTailLength)
{
    for (std::size_t n = 0; n <= 100; ++n) {
        std::vector<unsigned char> payload = patternBytes(n);
        std::vector<unsigned char> bytes =
            binfmt::encodeEnvelope(kMagic, kVersion, payload);
        ASSERT_EQ(bytes.size(), binfmt::kEnvelopeHeaderBytes + n +
                                    binfmt::kEnvelopeChecksumBytes);
        binfmt::EnvelopeResult r =
            binfmt::decodeEnvelope(bytes, kMagic, kVersion, "test");
        ASSERT_TRUE(r.ok()) << "size " << n << ": " << r.error;
        std::span<const unsigned char> got = r.payload();
        EXPECT_EQ(std::vector<unsigned char>(got.begin(), got.end()),
                  payload)
            << "size " << n;
    }
}

TEST(Envelope, FileMatchesInMemoryEncoding)
{
    const std::string path = ::testing::TempDir() + "binfmt_file.bin";
    for (std::size_t n : {0u, 1u, 7u, 8u, 33u, 100'003u}) {
        std::vector<unsigned char> payload = patternBytes(n);
        ASSERT_EQ(binfmt::writeEnvelopeFile(path, kMagic, kVersion,
                                            payload),
                  "");
        EXPECT_EQ(readFile(path),
                  binfmt::encodeEnvelope(kMagic, kVersion, payload));
        binfmt::EnvelopeResult r =
            binfmt::readEnvelopeFile(path, kMagic, kVersion, "test");
        ASSERT_TRUE(r.ok()) << r.error;
        std::span<const unsigned char> got = r.payload();
        EXPECT_EQ(std::vector<unsigned char>(got.begin(), got.end()),
                  payload);
    }
    std::remove(path.c_str());
}

TEST(Envelope, EverySingleBitFlipIsRejected)
{
    // 37 payload bytes: four whole words through the lanes, then a
    // 5-byte tail; the header and checksum are flipped too.
    const std::vector<unsigned char> good =
        binfmt::encodeEnvelope(kMagic, kVersion, patternBytes(37));
    ASSERT_TRUE(
        binfmt::decodeEnvelope(good, kMagic, kVersion, "test").ok());
    for (std::size_t i = 0; i < good.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<unsigned char> bad = good;
            bad[i] ^= static_cast<unsigned char>(1u << bit);
            EXPECT_FALSE(
                binfmt::decodeEnvelope(bad, kMagic, kVersion, "test")
                    .ok())
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(Envelope, PayloadCorruptionIsAChecksumMismatch)
{
    std::vector<unsigned char> bytes =
        binfmt::encodeEnvelope(kMagic, kVersion, patternBytes(40));
    bytes[binfmt::kEnvelopeHeaderBytes + 17] ^= 0x80;
    EXPECT_EQ(binfmt::decodeEnvelope(bytes, kMagic, kVersion, "test")
                  .error,
              "corrupt test: checksum mismatch");
}

TEST(Envelope, TruncationByOneByteIsRejected)
{
    std::vector<unsigned char> bytes =
        binfmt::encodeEnvelope(kMagic, kVersion, patternBytes(29));
    bytes.pop_back();
    binfmt::EnvelopeResult r =
        binfmt::decodeEnvelope(bytes, kMagic, kVersion, "test");
    EXPECT_NE(r.error.find("truncated test"), std::string::npos)
        << r.error;
}

TEST(Envelope, OtherVersionsAreRefusedByName)
{
    std::vector<unsigned char> payload = patternBytes(9);
    binfmt::EnvelopeResult older = binfmt::decodeEnvelope(
        binfmt::encodeEnvelope(kMagic, kVersion - 1, payload), kMagic,
        kVersion, "test");
    EXPECT_NE(older.error.find("older build; re-create it"),
              std::string::npos)
        << older.error;
    binfmt::EnvelopeResult newer = binfmt::decodeEnvelope(
        binfmt::encodeEnvelope(kMagic, kVersion + 1, payload), kMagic,
        kVersion, "test");
    EXPECT_NE(newer.error.find("newer than this build"),
              std::string::npos)
        << newer.error;
}

TEST(Envelope, ReadingANonRegularFileIsAnError)
{
    binfmt::EnvelopeResult r = binfmt::readEnvelopeFile(
        ::testing::TempDir(), kMagic, kVersion, "test");
    EXPECT_NE(r.error.find("is not a regular file"), std::string::npos)
        << r.error;
}
