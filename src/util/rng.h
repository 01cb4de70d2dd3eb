/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every synthetic trace and instruction stream in CAPsim is produced
 * from an explicitly seeded generator so that experiments are
 * bit-reproducible across runs and platforms.  We use xoshiro256**,
 * which has excellent statistical quality at trivial cost and a fully
 * specified algorithm (unlike std::default_random_engine).
 */

#ifndef CAPSIM_UTIL_RNG_H
#define CAPSIM_UTIL_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cap {

/**
 * Deterministic xoshiro256** generator with convenience draws used by
 * the workload generators.  Distribution mappings are implemented here
 * (not via <random>) because libstdc++ distribution algorithms are not
 * specified and may change between releases.
 */
class Rng
{
  public:
    /** Seed the generator; equal seeds yield equal sequences forever. */
    explicit Rng(uint64_t seed);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound), bound > 0. */
    uint64_t below(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive, lo <= hi. */
    int64_t range(int64_t lo, int64_t hi);

    /** Bernoulli draw with probability p of returning true. */
    bool chance(double p);

    /**
     * Geometric-ish draw: number of failures before the first success
     * with success probability p in (0, 1]; capped at @p cap to keep
     * tails bounded for dependency distances.
     */
    uint64_t geometric(double p, uint64_t cap);

    /** The denominator of geometric(p, cap)'s inverse CDF,
     *  log1p(-p), for p in (0, 1]. */
    static double geometricLog(double p);

    /**
     * geometric(p, cap)'s value at the uniform @p u it draws, with
     * @p log_q = geometricLog(p), for p < 1: the one definition of the
     * expression, shared with its InverseTable.
     */
    static uint64_t geometricAt(double u, double log_q, uint64_t cap);

    /**
     * Draw an index from a discrete distribution given by non-negative
     * weights.  The weights need not be normalized.
     */
    size_t weighted(const std::vector<double> &weights);

    /**
     * Running sums of non-negative @p weights with a positive total,
     * added in order: the table weightedPrefix() draws from.
     */
    static std::vector<double>
    weightPrefix(const std::vector<double> &weights);

    /**
     * weighted() over the running sums @p prefix of its weights
     * (weightPrefix()): the same index from the same draw, without
     * re-summing or re-checking the weights.
     */
    size_t weightedPrefix(const std::vector<double> &prefix);

    /**
     * Zipf-like draw over [0, n): element k has weight 1/(k+1)^s.
     * Used for hot/cold block popularity inside working-set regions.
     */
    uint64_t zipf(uint64_t n, double s);

    /** zipf() with its normalizer @p norm = zipfNorm(n, s) computed
     *  once by the caller; the same draw, bit for bit. */
    uint64_t zipf(uint64_t n, double s, double norm);

    /** The normalizer of zipf(n, s): the integral approximation of
     *  the generalized harmonic number H(n, s). */
    static double zipfNorm(uint64_t n, double s);

    /**
     * zipf(n, s, norm)'s value at the uniform @p u it draws first, for
     * s > 0: the one definition of the expression, shared with its
     * InverseTable.
     */
    static uint64_t zipfAt(double u, uint64_t n, double s, double norm);

    /** Derive an independent child generator (for sub-streams). */
    Rng split();

    /** The four xoshiro256** state words, for checkpointing. */
    using State = std::array<uint64_t, 4>;

    /** Snapshot the generator state. */
    State saveState() const;

    /**
     * Restore a state saved by saveState(); the sequence continues
     * exactly where the snapshot was taken.
     */
    void restoreState(const State &state);

  private:
    uint64_t s_[4];
};

} // namespace cap

#endif // CAPSIM_UTIL_RNG_H
