#include "signature.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "obs/span_profiler.h"
#include "ooo/uop_file.h"
#include "sample/online_phase.h"
#include "trace/record.h"
#include "util/status.h"

namespace cap::sample {

namespace {

/** Cache-block granularity of the footprint/locality features. */
constexpr int kBlockShift = 6;

/** Region-mix histogram bins; mix components sit in disjoint 1 MiB
 *  regions (trace/stream.h), so the MiB index identifies them. */
constexpr size_t kRegionBins = 16;

/** Footprint sketch size, bits (linear counting). */
constexpr uint64_t kSketchBits = 4096;

/** Reuse-gap histogram bins (log2 buckets; gaps cap at 2^40 refs). */
constexpr size_t kReuseGapBins = 41;

/** splitmix64 finalizer; spreads block addresses over the sketch. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Linear-counting cardinality estimate from a bit sketch. */
double
linearCount(const std::vector<uint64_t> &sketch)
{
    uint64_t zeros = 0;
    for (uint64_t word : sketch)
        zeros += static_cast<uint64_t>(64 - __builtin_popcountll(word));
    double m = static_cast<double>(kSketchBits);
    if (zeros == 0)
        return m * std::log(m); // saturated; capped estimate
    return m * std::log(m / static_cast<double>(zeros));
}

uint64_t
tailAwareLength(uint64_t total, uint64_t interval, size_t index,
                size_t count)
{
    capAssert(index < count, "interval index out of range");
    if (index + 1 < count)
        return interval;
    uint64_t tail = total - interval * static_cast<uint64_t>(count - 1);
    return tail;
}

} // namespace

double
signatureDistance(const IntervalSignature &a, const IntervalSignature &b)
{
    capAssert(a.features.size() == b.features.size(),
              "signature widths differ");
    double sum = 0.0;
    for (size_t i = 0; i < a.features.size(); ++i) {
        double d = a.features[i] - b.features[i];
        sum += d * d;
    }
    return std::sqrt(sum);
}

void
normalizeSignatures(std::vector<IntervalSignature> &signatures)
{
    if (signatures.empty())
        return;
    size_t width = signatures[0].features.size();
    double n = static_cast<double>(signatures.size());
    for (size_t dim = 0; dim < width; ++dim) {
        double mean = 0.0;
        for (const IntervalSignature &sig : signatures) {
            capAssert(sig.features.size() == width,
                      "signature widths differ");
            mean += sig.features[dim];
        }
        mean /= n;
        double var = 0.0;
        for (const IntervalSignature &sig : signatures) {
            double d = sig.features[dim] - mean;
            var += d * d;
        }
        double std_dev = std::sqrt(var / n);
        for (IntervalSignature &sig : signatures) {
            sig.features[dim] = std_dev > 0.0
                                    ? (sig.features[dim] - mean) / std_dev
                                    : 0.0;
        }
    }
}

uint64_t
CacheIntervalProfile::lengthOf(size_t index) const
{
    return tailAwareLength(total_refs, interval_refs, index,
                           signatures.size());
}

uint64_t
CacheIntervalProfile::reusePercentile(double p) const
{
    capAssert(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
    if (reuse_samples == 0)
        return 0;
    uint64_t target = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(reuse_samples)));
    uint64_t seen = 0;
    for (size_t bin = 0; bin < reuse_gap_hist.size(); ++bin) {
        seen += reuse_gap_hist[bin];
        if (seen >= target)
            return 1ULL << (bin + 1);
    }
    return 1ULL << reuse_gap_hist.size();
}

uint64_t
IlpIntervalProfile::lengthOf(size_t index) const
{
    return tailAwareLength(total_instrs, interval_instrs, index,
                           signatures.size());
}

namespace {

/**
 * The shared interval loop behind both cache profilers.  @p refs caps
 * the read (UINT64_MAX = read @p source to exhaustion); @p exact
 * asserts the source delivers every requested reference (synthetic
 * generators are sized up front; files simply end).  @p pushCursor
 * snapshots the source position before each interval and @p popCursor
 * discards the snapshot of an empty trailing interval.
 */
template <typename Source, typename PushCursor, typename PopCursor>
void
profileCacheSource(CacheIntervalProfile &profile, Source &source,
                   uint64_t refs, uint64_t interval_refs, bool exact,
                   PushCursor pushCursor, PopCursor popCursor)
{
    trace::TraceRecord batch[trace::kTraceBatch];
    profile.reuse_gap_hist.assign(kReuseGapBins, 0);
    std::unordered_map<uint64_t, uint64_t> last_access;
    uint64_t produced = 0;
    while (produced < refs) {
        uint64_t want = std::min(interval_refs, refs - produced);
        pushCursor();

        std::array<uint64_t, kRegionBins> regions{};
        std::array<double, kRegionBins> offsets{};
        std::vector<uint64_t> sketch(kSketchBits / 64, 0);
        uint64_t writes = 0;
        uint64_t adjacent = 0;
        uint64_t got = 0;
        uint64_t prev_block = UINT64_MAX;
        while (got < want) {
            uint64_t n = source.nextBatch(
                batch, std::min<uint64_t>(want - got, trace::kTraceBatch));
            if (n == 0)
                break;
            for (uint64_t i = 0; i < n; ++i) {
                const trace::TraceRecord &record = batch[i];
                uint64_t block = record.addr >> kBlockShift;
                size_t bin = (record.addr >> 20) % kRegionBins;
                ++regions[bin];
                // Fractional position within the 1 MiB region:
                // constant for stationary patterns, but tracks the
                // pointer of a cyclic sweep, letting the clusterer
                // stratify intervals by sweep phase (z-scoring drops
                // constant dimensions).
                offsets[bin] +=
                    static_cast<double>(record.addr & 0xFFFFF) /
                    static_cast<double>(1 << 20);
                writes += record.is_write ? 1 : 0;
                if (prev_block != UINT64_MAX &&
                    (block == prev_block || block == prev_block + 1))
                    ++adjacent;
                prev_block = block;
                uint64_t h = mix64(block);
                sketch[(h >> 6) % (kSketchBits / 64)] |= 1ULL << (h & 63);

                uint64_t ordinal = produced + got + i;
                auto [it, fresh] = last_access.try_emplace(block, ordinal);
                if (!fresh) {
                    uint64_t gap = ordinal - it->second;
                    size_t gap_bin = static_cast<size_t>(
                        63 - __builtin_clzll(gap | 1));
                    if (gap_bin >= kReuseGapBins)
                        gap_bin = kReuseGapBins - 1;
                    ++profile.reuse_gap_hist[gap_bin];
                    ++profile.reuse_samples;
                    it->second = ordinal;
                }
            }
            got += n;
        }
        if (exact)
            capAssert(got == want, "trace source exhausted early");
        if (got == 0) {
            // The file ended exactly on an interval boundary: the
            // snapshot belongs to no interval.
            popCursor();
            break;
        }

        IntervalSignature sig;
        sig.index = static_cast<uint64_t>(profile.signatures.size());
        double n = static_cast<double>(got);
        for (uint64_t bin : regions)
            sig.features.push_back(static_cast<double>(bin) / n);
        for (size_t b = 0; b < kRegionBins; ++b) {
            sig.features.push_back(
                regions[b] ? offsets[b] / static_cast<double>(regions[b])
                           : 0.0);
        }
        sig.features.push_back(static_cast<double>(writes) / n);
        sig.features.push_back(linearCount(sketch) / n);
        sig.features.push_back(static_cast<double>(adjacent) / n);
        profile.signatures.push_back(std::move(sig));
        produced += got;
        if (got < want)
            break; // short tail: the source is exhausted
    }
    profile.total_refs = produced;
}

} // namespace

CacheIntervalProfile
profileCacheIntervals(const trace::CacheBehavior &behavior, uint64_t seed,
                      uint64_t refs, uint64_t interval_refs)
{
    capAssert(refs > 0, "profiling needs references");
    capAssert(interval_refs > 0, "interval length must be positive");
    CAPSIM_SPAN("sample.profile.intervals");

    CacheIntervalProfile profile;
    profile.interval_refs = interval_refs;

    trace::SyntheticTraceSource source(behavior, seed, refs);
    profileCacheSource(
        profile, source, refs, interval_refs, /*exact=*/true,
        [&] { profile.cursors.push_back(source.saveCursor()); },
        [&] { profile.cursors.pop_back(); });
    return profile;
}

CacheIntervalProfile
profileCacheIntervalsFromFile(const std::string &path,
                              uint64_t interval_refs)
{
    capAssert(interval_refs > 0, "interval length must be positive");
    CAPSIM_SPAN("sample.profile.intervals");

    CacheIntervalProfile profile;
    profile.interval_refs = interval_refs;
    profile.trace_path = path;

    trace::FileTraceSource source(path);
    profileCacheSource(
        profile, source, UINT64_MAX, interval_refs, /*exact=*/false,
        [&] { profile.file_cursors.push_back(source.saveCursor()); },
        [&] { profile.file_cursors.pop_back(); });
    capAssert(profile.total_refs > 0, "trace file %s has no records",
              path.c_str());
    return profile;
}

namespace {

/**
 * The shared interval loop behind both ILP profilers.  Each interval
 * is generated *once* into a buffer feeding ilpFeatures(), anchored
 * at the interval's absolute start index (the anchor fastProfile()
 * derives from the source position, so the dataflow-limit feature is
 * unchanged too).
 * @p instructions caps the read (UINT64_MAX = read @p source to
 * exhaustion); @p exact asserts the source delivers every requested
 * instruction; @p pushCursor / @p popCursor mirror the cache-side
 * template above.
 */
template <typename Source, typename PushCursor, typename PopCursor>
void
profileIlpSource(IlpIntervalProfile &profile, Source &source,
                 uint64_t instructions, uint64_t interval_instrs,
                 bool exact, PushCursor pushCursor, PopCursor popCursor)
{
    std::vector<ooo::MicroOp> ops(std::min(interval_instrs, instructions));
    uint64_t produced = 0;
    while (produced < instructions) {
        uint64_t want = std::min(interval_instrs, instructions - produced);
        uint64_t start = source.position();
        pushCursor();

        uint64_t got = 0;
        while (got < want) {
            uint64_t n = source.nextBatch(ops.data() + got, want - got);
            if (n == 0)
                break;
            got += n;
        }
        if (exact)
            capAssert(got == want, "instruction source exhausted early");
        if (got == 0) {
            // The file ended exactly on an interval boundary: the
            // snapshot belongs to no interval.
            popCursor();
            break;
        }

        IntervalSignature sig;
        sig.index = static_cast<uint64_t>(profile.signatures.size());
        sig.features = ilpFeatures(ops.data(), got, start);
        profile.signatures.push_back(std::move(sig));
        produced += got;
        if (got < want)
            break; // short tail: the source is exhausted
    }
    profile.total_instrs = produced;
}

} // namespace

IlpIntervalProfile
profileIlpIntervals(const trace::IlpBehavior &behavior, uint64_t seed,
                    uint64_t instructions, uint64_t interval_instrs)
{
    capAssert(instructions > 0, "profiling needs instructions");
    capAssert(interval_instrs > 0, "interval length must be positive");
    CAPSIM_SPAN("sample.profile.intervals");

    IlpIntervalProfile profile;
    profile.interval_instrs = interval_instrs;

    ooo::InstructionStream stream(behavior, seed);
    profileIlpSource(
        profile, stream, instructions, interval_instrs, /*exact=*/true,
        [&] { profile.cursors.push_back(stream.saveCursor()); },
        [&] { profile.cursors.pop_back(); });
    return profile;
}

IlpIntervalProfile
profileIlpIntervalsFromFile(const std::string &path,
                            uint64_t interval_instrs)
{
    capAssert(interval_instrs > 0, "interval length must be positive");
    CAPSIM_SPAN("sample.profile.intervals");

    IlpIntervalProfile profile;
    profile.interval_instrs = interval_instrs;
    profile.trace_path = path;

    ooo::UopFileSource source(path);
    profileIlpSource(
        profile, source, UINT64_MAX, interval_instrs, /*exact=*/false,
        [&] { profile.file_cursors.push_back(source.saveCursor()); },
        [&] { profile.file_cursors.pop_back(); });
    capAssert(profile.total_instrs > 0, "uop trace file %s has no records",
              path.c_str());
    return profile;
}

} // namespace cap::sample
