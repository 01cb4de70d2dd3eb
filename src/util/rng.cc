#include "rng.h"

#include <cmath>

#include "status.h"

namespace cap {

namespace {

/** splitmix64: expands a single seed into well-mixed state words. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // xoshiro's all-zero state is absorbing; splitmix64 cannot produce
    // four zero words from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

uint64_t
Rng::next()
{
    uint64_t result = rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::below(uint64_t bound)
{
    capAssert(bound > 0, "Rng::below requires a positive bound");
    // Debiased multiply-shift (Lemire).
    while (true) {
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t low = static_cast<uint64_t>(m);
        if (low >= bound || low >= (-bound) % bound)
            return static_cast<uint64_t>(m >> 64);
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    capAssert(lo <= hi, "Rng::range requires lo <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(below(span));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

uint64_t
Rng::geometric(double p, uint64_t cap)
{
    capAssert(p > 0.0 && p <= 1.0, "geometric requires p in (0,1]");
    if (p >= 1.0)
        return 0;
    return geometricAt(uniform(), geometricLog(p), cap);
}

double
Rng::geometricLog(double p)
{
    capAssert(p > 0.0 && p <= 1.0, "geometric requires p in (0,1]");
    return std::log1p(-p);
}

uint64_t
Rng::geometricAt(double u, double log_q, uint64_t cap)
{
    // Inverse CDF; u == 0 maps to 0 failures.
    double draw = std::floor(std::log1p(-u) / log_q);
    if (draw < 0.0)
        draw = 0.0;
    uint64_t k = static_cast<uint64_t>(draw);
    return k > cap ? cap : k;
}

size_t
Rng::weighted(const std::vector<double> &weights)
{
    return weightedPrefix(weightPrefix(weights));
}

std::vector<double>
Rng::weightPrefix(const std::vector<double> &weights)
{
    capAssert(!weights.empty(), "weighted draw over empty weights");
    std::vector<double> prefix;
    prefix.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
        capAssert(w >= 0.0, "negative weight");
        total += w;
        prefix.push_back(total);
    }
    capAssert(total > 0.0, "weighted draw needs a positive total");
    return prefix;
}

size_t
Rng::weightedPrefix(const std::vector<double> &prefix)
{
    double target = uniform() * prefix.back();
    for (size_t i = 0; i < prefix.size(); ++i) {
        if (target < prefix[i])
            return i;
    }
    return prefix.size() - 1;
}

uint64_t
Rng::zipf(uint64_t n, double s)
{
    return zipf(n, s, zipfNorm(n, s));
}

double
Rng::zipfNorm(uint64_t n, double s)
{
    double x = static_cast<double>(n);
    if (std::abs(s - 1.0) < 1e-9)
        return std::log(x + 1.0);
    return (std::pow(x + 1.0, 1.0 - s) - 1.0) / (1.0 - s);
}

uint64_t
Rng::zipf(uint64_t n, double s, double norm)
{
    capAssert(n > 0, "zipf over empty range");
    double u = uniform();
    if (s <= 0.0)
        return below(n);
    return zipfAt(u, n, s, norm);
}

uint64_t
Rng::zipfAt(double u, uint64_t n, double s, double norm)
{
    // Rejection-inversion would be overkill; workloads use small s and
    // moderate n, so a two-piece approximation of the harmonic CDF is
    // adequate and deterministic.
    double target = u * norm;
    // Invert the integral approximation.
    double x;
    if (std::abs(s - 1.0) < 1e-9) {
        x = std::exp(target) - 1.0;
    } else {
        x = std::pow(target * (1.0 - s) + 1.0, 1.0 / (1.0 - s)) - 1.0;
    }
    if (x < 0.0)
        x = 0.0;
    uint64_t k = static_cast<uint64_t>(x);
    return k >= n ? n - 1 : k;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd3833e804f4c574bULL);
}

Rng::State
Rng::saveState() const
{
    return {s_[0], s_[1], s_[2], s_[3]};
}

void
Rng::restoreState(const State &state)
{
    capAssert((state[0] | state[1] | state[2] | state[3]) != 0,
              "all-zero Rng state is absorbing");
    for (size_t i = 0; i < 4; ++i)
        s_[i] = state[i];
}

} // namespace cap
