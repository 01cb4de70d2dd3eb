#include "inverse_table.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "status.h"

namespace cap {

namespace {

/** Grid points of the uniform: u = m * 2^-53 for m < kGrid. */
constexpr uint64_t kGrid = uint64_t{1} << 53;

/** Ulps of error budgeted for each libm call: four times the largest
 *  bound the implementations state (fdlibm's log1p, which glibc uses,
 *  below 1; glibc's exp and pow 0.511 and 0.54).  docs/PERF.md section
 *  15 derives the ambiguity bounds below. */
constexpr double kLibmUlps = 4.0;

/** True when zipfAt() takes its exp branch. */
bool
zipfIsHarmonic(double s)
{
    return std::abs(s - 1.0) < 1e-9;
}

} // namespace

InverseTable
InverseTable::geometric(double p, uint64_t cap)
{
    capAssert(p > 0.0 && p < 1.0, "geometric table requires p in (0,1)");
    const double log_q = Rng::geometricLog(p);
    return InverseTable(
        [log_q, cap](double u) { return Rng::geometricAt(u, log_q, cap); },
        [log_q](uint64_t k) {
            return -std::expm1(static_cast<double>(k) * log_q);
        },
        // e ulps in the quotient move its step by at most
        // 2e * k q^k |ln q| <= 2e/e grid points on either side.
        2.0 * 2.0 * kLibmUlps / std::exp(1.0) + 1.0);
}

InverseTable
InverseTable::zipf(uint64_t n, double s)
{
    capAssert(n > 0, "zipf over empty range");
    capAssert(s > 0.0, "zipf table requires s > 0");
    const double norm = Rng::zipfNorm(n, s);
    auto value = [n, s, norm](double u) {
        return Rng::zipfAt(u, n, s, norm);
    };
    if (zipfIsHarmonic(s)) {
        return InverseTable(
            value,
            [norm](uint64_t k) {
                return std::log(static_cast<double>(k) + 1.0) / norm;
            },
            4.0 * kLibmUlps / norm + 3.0);
    }
    // pow's argument y runs from 1 to 1 + norm (1 - s); see docs/PERF.md
    // section 15 for the bound.
    const double a = 1.0 - s;
    const double y_max = std::max(1.0, 1.0 + norm * a);
    return InverseTable(
        value,
        [a, norm](uint64_t k) {
            return (std::pow(static_cast<double>(k) + 1.0, a) - 1.0) /
                   (a * norm);
        },
        (4.0 * kLibmUlps + 6.0 / std::abs(a)) * y_max / norm + 1.0);
}

InverseTable::InverseTable(std::function<uint64_t(double)> value,
                           const std::function<double(uint64_t)> &estimate,
                           double ambiguity)
    : value_(std::move(value)), cuts_{0}
{
    if (!(ambiguity <= static_cast<double>(kBand)))
        return;
    auto at = [this](uint64_t m) {
        return value_(static_cast<double>(m) * 0x1p-53);
    };
    const uint64_t last = at(kGrid - 1);
    const uint64_t count = std::min(last, kMaxThresholds);
    // at(cut) for the latest cut: a draw that steps by more than one
    // at a grid point gives several values the same threshold.
    uint64_t cut_value = at(0);
    for (uint64_t k = 1; k <= count; ++k) {
        uint64_t lo = cuts_.back();
        if (cut_value >= k) {
            cuts_.push_back(lo);
            continue;
        }
        // Bisect for the first m with at(m) >= k inside a bracket
        // opened from the estimate: at(lo) < k <= at(hi) throughout.
        // The bracket widens by doubling steps from the estimate until
        // a probe lands on the far side, where the next probe meets
        // the bracket's end and the loop stops.
        uint64_t hi = kGrid - 1;
        uint64_t hi_value = last;
        const double guess = estimate(k) * 0x1p53;
        uint64_t probe = hi;
        if (guess > static_cast<double>(lo) &&
            guess < static_cast<double>(hi))
            probe = std::max(lo + 1, static_cast<uint64_t>(guess));
        for (uint64_t step = 4; lo < probe && probe < hi; step *= 2) {
            const uint64_t v = at(probe);
            if (v >= k) {
                hi = probe;
                hi_value = v;
                probe = hi - lo > step ? hi - step : lo;
            } else {
                lo = probe;
                probe = hi - lo > step ? lo + step : hi;
            }
        }
        while (hi - lo > 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            const uint64_t v = at(mid);
            if (v >= k) {
                hi = mid;
                hi_value = v;
            } else {
                lo = mid;
            }
        }
        cuts_.push_back(hi);
        cut_value = hi_value;
    }
    if (last <= kMaxThresholds)
        cuts_.push_back(kGrid);

    const uint64_t cells = cuts_.size() - 1;
    const int bits = std::bit_width(cells - 1);
    guide_shift_ = 53 - bits;
    guide_.resize(size_t{1} << bits);
    uint64_t k = 0;
    for (uint64_t g = 0; g < guide_.size(); ++g) {
        const uint64_t start = g << guide_shift_;
        while (k + 1 < cells && cuts_[k + 1] <= start)
            ++k;
        guide_[g] = static_cast<uint16_t>(k);
    }
}

} // namespace cap
