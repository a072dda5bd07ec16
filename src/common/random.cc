#include "random.hh"

#include <cmath>

namespace dasdram
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // Avoid the all-zero state (cannot occur from splitmix64, but be safe).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    // Lemire's multiply-shift rejection-free mapping is fine here: the
    // slight modulo bias of (next() % bound) is irrelevant for workload
    // synthesis, but the multiply-shift is also faster.
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

ZipfParams::ZipfParams(std::uint64_t items, double s) : n(items)
{
    // Approximate inverse CDF: for weight r^-s the CDF is roughly
    // (r/n)^(1-s) for s < 1; for s >= 1 use the classic rejection-free
    // approximation based on the continuous distribution.
    if (s == 1.0)
        s = 1.0000001;
    double exponent = 1.0 - s;
    // Continuous inverse-CDF for pdf x^-s on [1, n+1).
    hi = std::pow(static_cast<double>(n) + 1.0, exponent);
    invExponent = 1.0 / exponent;
}

std::uint64_t
Rng::nextZipf(const ZipfParams &z)
{
    if (z.n <= 1)
        return 0;
    double u = nextDouble();
    double x = std::pow(u * (z.hi - 1.0) + 1.0, z.invExponent);
    std::uint64_t r = static_cast<std::uint64_t>(x) - 1;
    return (r >= z.n) ? z.n - 1 : r;
}

} // namespace dasdram
