/**
 * @file
 * Unit tests for the Archive serde visitor: a save/load round trip of
 * every field kind through a buffer that must grow, and located
 * fatal()s (not allocation failures) for lengths and counts near
 * 2^64 read from a stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/serde.hh"

using namespace dasdram;

namespace
{

enum class Colour : std::uint8_t { Red, Green, Blue };

struct Fields
{
    std::uint64_t u = 0;
    int i = 0;
    bool b = false;
    Colour c = Colour::Red;
    double d = 0.0;
    std::string s;
    std::vector<std::uint32_t> v;
    unsigned char raw[5] = {};

    void
    serdeState(Archive &ar)
    {
        ar.section("fields");
        ar.io(u);
        ar.io(i);
        ar.io(b);
        ar.io(c);
        ar.io(d);
        ar.io(s);
        ar.io(v);
        ar.blob(raw, sizeof(raw));
        ar.end();
    }
};

/** A stream whose first field is the u64 @p n. */
std::vector<unsigned char>
streamStartingWith(std::uint64_t n)
{
    Archive ar;
    ar.io(n);
    std::span<const unsigned char> p = ar.payload();
    std::vector<unsigned char> bytes(p.begin(), p.end());
    bytes.resize(bytes.size() + 24, 0x5a);
    return bytes;
}

} // namespace

TEST(Archive, RoundTripsEveryFieldKindThroughAGrowingBuffer)
{
    std::vector<Fields> saved(5'000);
    for (std::size_t k = 0; k < saved.size(); ++k) {
        Fields &f = saved[k];
        f.u = 0xfedcba9876543210ull ^ k;
        f.i = -static_cast<int>(k);
        f.b = k % 2 == 1;
        f.c = static_cast<Colour>(k % 3);
        f.d = 0.1 * static_cast<double>(k);
        f.s = std::string(k % 13, static_cast<char>('a' + k % 26));
        f.v.assign(k % 7, static_cast<std::uint32_t>(k));
        f.raw[k % 5] = static_cast<unsigned char>(k);
    }
    Archive saver;
    for (Fields &f : saved)
        f.serdeState(saver);
    std::span<const unsigned char> payload = saver.payload();
    ASSERT_GT(payload.size(), std::size_t{1} << 16);

    std::vector<Fields> loaded(saved.size());
    Archive loader(payload);
    for (Fields &f : loaded)
        f.serdeState(loader);
    loader.finish();
    for (std::size_t k = 0; k < saved.size(); ++k) {
        EXPECT_EQ(loaded[k].u, saved[k].u);
        EXPECT_EQ(loaded[k].i, saved[k].i);
        EXPECT_EQ(loaded[k].b, saved[k].b);
        EXPECT_EQ(loaded[k].c, saved[k].c);
        EXPECT_EQ(loaded[k].d, saved[k].d);
        EXPECT_EQ(loaded[k].s, saved[k].s);
        EXPECT_EQ(loaded[k].v, saved[k].v);
        EXPECT_EQ(0, std::memcmp(loaded[k].raw, saved[k].raw, 5));
    }
}

TEST(Archive, FieldsAreEightLittleEndianBytes)
{
    Archive ar;
    std::uint32_t v = 0x01020304u;
    ar.io(v);
    std::span<const unsigned char> p = ar.payload();
    EXPECT_EQ(std::vector<unsigned char>(p.begin(), p.end()),
              (std::vector<unsigned char>{4, 3, 2, 1, 0, 0, 0, 0}));
}

TEST(ArchiveDeathTest, HugeStringLengthIsTruncation)
{
    std::vector<unsigned char> bytes =
        streamStartingWith(0xFFFFFFFFFFFFFFF8ull);
    Archive ar(bytes);
    std::string s;
    EXPECT_DEATH(ar.io(s), "snapshot stream truncated mid-string");
}

TEST(ArchiveDeathTest, HugeVectorCountIsTruncation)
{
    std::vector<unsigned char> bytes =
        streamStartingWith(0xFFFFFFFFFFFFFFF8ull);
    Archive ar(bytes);
    std::vector<std::uint64_t> v;
    EXPECT_DEATH(ar.io(v), "snapshot stream truncated mid-container");
}

TEST(ArchiveDeathTest, CountBeyondTheStreamIsTruncation)
{
    // 4 elements of 8 bytes cannot fit in the 24 bytes that follow.
    std::vector<unsigned char> bytes = streamStartingWith(4);
    Archive ar(bytes);
    std::vector<std::uint64_t> v;
    EXPECT_DEATH(ar.io(v), "snapshot stream truncated mid-container");
}

TEST(ArchiveDeathTest, HugeSectionLengthOverrunsTheStream)
{
    Archive saver;
    std::string name = "x";
    saver.io(name);
    std::uint64_t len = 0xFFFFFFFFFFFFFFF8ull;
    saver.io(len);
    std::span<const unsigned char> p = saver.payload();
    std::vector<unsigned char> bytes(p.begin(), p.end());
    Archive ar(bytes);
    EXPECT_DEATH(ar.section("x"), "snapshot section 'x' overruns");
}
