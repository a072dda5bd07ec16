/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small, fast xoshiro256** generator is used instead of <random> engines
 * so that simulation results are bit-identical across standard libraries.
 */

#ifndef DASDRAM_COMMON_RANDOM_HH
#define DASDRAM_COMMON_RANDOM_HH

#include <cstdint>

#include "common/serde.hh"

namespace dasdram
{

/**
 * The per-(n, s) constants of Rng::nextZipf, computed once so that
 * repeated draws from one distribution skip both pow() setups.
 */
struct ZipfParams
{
    ZipfParams(std::uint64_t n, double s);

    std::uint64_t n;
    double hi;          ///< (n + 1)^(1 - s)
    double invExponent; ///< 1 / (1 - s)
};

/**
 * xoshiro256** PRNG (Blackman & Vigna). Deterministic given a seed,
 * regardless of platform or standard library.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of true. */
    bool chance(double p);

    /**
     * Sample from a truncated Zipf-like distribution over [0, n):
     * rank r has weight 1 / (r + 1)^s. Used for hot-set skew.
     * Implemented by inverse-CDF over a coarse table for speed.
     */
    std::uint64_t nextZipf(std::uint64_t n, double s)
    {
        return nextZipf(ZipfParams(n, s));
    }

    /** nextZipf over precomputed constants; the same draws. */
    std::uint64_t nextZipf(const ZipfParams &z);

    /** Checkpoint the full generator state. */
    void
    serdeState(Archive &ar)
    {
        for (std::uint64_t &s : s_)
            ar.io(s);
    }

  private:
    std::uint64_t s_[4];
};

} // namespace dasdram

#endif // DASDRAM_COMMON_RANDOM_HH
