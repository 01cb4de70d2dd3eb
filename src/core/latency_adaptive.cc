#include "latency_adaptive.h"

#include "cache/exclusive_hierarchy.h"
#include "trace/stream.h"
#include "util/status.h"

namespace cap::core {

LatencyAdaptiveCache::LatencyAdaptiveCache(const AdaptiveCacheModel &model,
                                           double load_use_stall_factor)
    : model_(&model), load_use_stall_factor_(load_use_stall_factor)
{
    capAssert(load_use_stall_factor >= 0.0 && load_use_stall_factor <= 1.0,
              "stall factor must be a fraction");
}

LatencyModeTiming
LatencyAdaptiveCache::timing(int l1_increments) const
{
    // The clock is pinned to the fastest (one-increment) configuration.
    CacheBoundaryTiming fastest = model_->boundaryTiming(1);

    LatencyModeTiming t;
    t.l1_increments = l1_increments;
    t.cycle_ns = fastest.cycle_ns;

    Nanoseconds l1_access =
        model_->incrementAccessNs() + model_->busDelayNs(l1_increments);
    t.l1_latency_cycles = static_cast<int>(missCycles(l1_access, t.cycle_ns));

    // L2/miss latencies are the same physical times, converted at the
    // fixed fast clock.
    CacheBoundaryTiming at_k = model_->boundaryTiming(l1_increments);
    t.l2_hit_cycles = missCycles(
        static_cast<double>(at_k.l2_hit_cycles) * at_k.cycle_ns, t.cycle_ns);
    t.miss_cycles = missCycles(CacheMachine::kL2MissNs, t.cycle_ns);
    return t;
}

CachePerf
LatencyAdaptiveCache::evaluate(const trace::AppProfile &app,
                               int l1_increments, uint64_t refs) const
{
    capAssert(refs > 0, "evaluation needs references");
    LatencyModeTiming t = timing(l1_increments);

    cache::ExclusiveHierarchy hierarchy(model_->geometry(), l1_increments);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    MissClock clock(model_->memConfig());
    clock.pace(t.cycle_ns, app.cache.refs_per_instr,
               t.cycle_ns * static_cast<double>(t.l2_hit_cycles));
    walkTrace(source, hierarchy, clock, refs);
    const cache::CacheStats &stats = hierarchy.stats();

    CachePerf perf =
        cachePerfCounts(stats, l1_increments, app.cache.refs_per_instr);
    if (perf.instructions == 0)
        return perf;

    double instrs = static_cast<double>(perf.instructions);
    double base_cycles = instrs / CacheMachine::kBaseIpc;

    // Extra L1 latency beyond the pipelined three cycles stalls the
    // fraction of references with a nearby dependent consumer.
    int extra_latency =
        t.l1_latency_cycles - CacheMachine::kL1PipelineDepth;
    double latency_stalls =
        extra_latency > 0 ? static_cast<double>(stats.refs) *
                                load_use_stall_factor_ *
                                static_cast<double>(extra_latency)
                          : 0.0;

    if (clock.dram()) {
        // The miss term is the backend-measured stall instead of the
        // fixed per-miss cost; L2 hits still cost l2_hit_cycles each.
        double miss_stall_ns = t.cycle_ns *
                                   static_cast<double>(stats.l2_hits) *
                                   static_cast<double>(t.l2_hit_cycles) +
                               clock.takeStall();
        perf.tpi_ns =
            (t.cycle_ns * (base_cycles + latency_stalls) + miss_stall_ns) /
            instrs;
        perf.tpi_miss_ns = miss_stall_ns / instrs;
        return perf;
    }

    double miss_stalls =
        static_cast<double>(stats.l2_hits) *
            static_cast<double>(t.l2_hit_cycles) +
        static_cast<double>(stats.misses) *
            static_cast<double>(t.miss_cycles);

    perf.tpi_ns = t.cycle_ns *
                  (base_cycles + latency_stalls + miss_stalls) / instrs;
    perf.tpi_miss_ns = t.cycle_ns * miss_stalls / instrs;
    return perf;
}

std::vector<CachePerf>
LatencyAdaptiveCache::sweep(const trace::AppProfile &app,
                            int max_l1_increments, uint64_t refs) const
{
    std::vector<CachePerf> results;
    for (int k = 1; k <= max_l1_increments; ++k)
        results.push_back(evaluate(app, k, refs));
    return results;
}

} // namespace cap::core
