/**
 * @file
 * Exact table inversion of the generators' two costly draws.
 *
 * Rng::geometric and Rng::zipf each map one uniform u = m * 2^-53
 * (m = Rng::next() >> 11) through a libm call (log1p, pow or exp) to
 * an integer that never decreases as m grows.  An InverseTable
 * records, once, the first grid point m at which *the same expression*
 * reaches each value k (a threshold), and answers a draw with a guide
 * table lookup (Chen and Asau, 1974; Devroye, "Non-Uniform Random
 * Variate Generation", 1986, ch. III) instead of the libm call.
 *
 * libm is only accurate to an ulp or so, so the computed expression
 * may step back and forth near a threshold.  A draw whose grid point
 * lies within kBand points of a threshold or of either end of the
 * grid, or past the last tabulated threshold, evaluates the expression
 * instead; docs/PERF.md section 15 derives why kBand covers every such
 * point.  Every draw is therefore the plain draw, bit for bit, and
 * consumes the same random number.
 */

#ifndef CAPSIM_UTIL_INVERSE_TABLE_H
#define CAPSIM_UTIL_INVERSE_TABLE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace cap {

/** A tabulated Rng::geometric(p, cap) or Rng::zipf(n, s). */
class InverseTable
{
  public:
    /** Grid points on either side of a threshold that evaluate the
     *  expression instead of the table. */
    static constexpr uint64_t kBand = 256;

    /** Thresholds tabulated at most; later values evaluate. */
    static constexpr uint64_t kMaxThresholds = 4096;

    /** Rng::geometric(p, cap), for p in (0, 1). */
    static InverseTable geometric(double p, uint64_t cap);

    /** Rng::zipf(n, s), for s > 0. */
    static InverseTable zipf(uint64_t n, double s);

    /** The plain draw's value at the next uniform of @p rng, which
     *  advances exactly as the plain draw advances it. */
    uint64_t draw(Rng &rng) const { return at(rng.next() >> 11); }

    /** The plain draw's value at the grid point @p m < 2^53. */
    uint64_t
    at(uint64_t m) const
    {
        if (m < cuts_.back()) {
            uint64_t k = guide_[m >> guide_shift_];
            while (m >= cuts_[k + 1])
                ++k;
            if (m - cuts_[k] >= kBand && cuts_[k + 1] - m > kBand)
                return k;
        }
        return value_(static_cast<double>(m) * 0x1p-53);
    }

    /** cuts()[k] for 0 < k < cuts().size() - 1 is the first grid point
     *  at which the draw reaches k; cuts()[0] is 0, and the last entry
     *  is the end of the table: 2^53 when every value is tabulated,
     *  otherwise the last threshold found.  Test support. */
    const std::vector<uint64_t> &cuts() const { return cuts_; }

  private:
    /** Tabulate @p value, a function of u that never decreases on the
     *  grid except within @p ambiguity grid points of where it steps;
     *  @p estimate(k) approximates the u at which it reaches k.  A
     *  table whose @p ambiguity exceeds kBand tabulates nothing. */
    InverseTable(std::function<uint64_t(double)> value,
                 const std::function<double(uint64_t)> &estimate,
                 double ambiguity);

    std::function<uint64_t(double)> value_;
    std::vector<uint64_t> cuts_;
    /** guide_[g]: the last cell starting at or before g's first grid
     *  point, g = m >> guide_shift_. */
    std::vector<uint16_t> guide_;
    int guide_shift_ = 53;
};

} // namespace cap

#endif // CAPSIM_UTIL_INVERSE_TABLE_H
