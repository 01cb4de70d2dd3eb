#include "async_cache.h"

#include <cmath>

#include "cache/exclusive_hierarchy.h"
#include "trace/stream.h"
#include "util/status.h"

namespace cap::core {

AsyncCachePerf
AsyncCacheModel::evaluate(const trace::AppProfile &app, int l1_increments,
                          uint64_t refs) const
{
    capAssert(refs > 0, "evaluation needs references");
    const AdaptiveCacheModel &model = *model_;
    const cache::HierarchyGeometry &geometry = model.geometry();

    // Handshaking base stage delay: the nearest increment's share of
    // the pipelined access (the same floor the fastest clocked
    // configuration runs at).
    Nanoseconds base_stage =
        (model.incrementAccessNs() + model.busDelayNs(1)) /
        static_cast<double>(CacheMachine::kL1PipelineDepth);
    // Worst-case L1-region access the synchronous design must clock at.
    Nanoseconds worst_access =
        model.incrementAccessNs() + model.busDelayNs(l1_increments);
    CacheBoundaryTiming sync_timing = model.boundaryTiming(l1_increments);

    // Miss service times are physical (ns), independent of clocking.
    const Nanoseconds l2_access_ns =
        static_cast<double>(sync_timing.l2_hit_cycles) *
        sync_timing.cycle_ns;

    cache::ExclusiveHierarchy hierarchy(geometry, l1_increments);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    MissClock clock(model.memConfig());
    clock.pace(base_stage, app.cache.refs_per_instr, l2_access_ns);

    double access_time_sum = 0.0;
    double extra_stage_ns = 0.0;
    walkTrace(source, hierarchy, clock, refs,
              [&](const cache::AccessDetail &detail) {
        if (detail.outcome == cache::AccessOutcome::L1Hit) {
            int increment = geometry.incrementOfWay(detail.service_way);
            Nanoseconds access = model.incrementAccessNs() +
                                 model.busDelayNs(increment + 1);
            access_time_sum += access;
            // The L1 stage stretches by the access's own share beyond
            // the base stage; only this reference pays it.
            extra_stage_ns +=
                access / CacheMachine::kL1PipelineDepth - base_stage;
        } else {
            // Misses pay the near-increment stage plus their miss
            // stalls (added below from the stats).
            access_time_sum += worst_access;
        }
    });
    const cache::CacheStats &stats = hierarchy.stats();

    AsyncCachePerf perf;
    perf.l1_increments = l1_increments;
    perf.refs = stats.refs;
    perf.instructions = static_cast<uint64_t>(
        static_cast<double>(stats.refs) / app.cache.refs_per_instr);
    perf.worst_access_ns = worst_access;
    perf.avg_access_ns =
        stats.refs ? access_time_sum / static_cast<double>(stats.refs)
                   : 0.0;
    if (perf.instructions == 0)
        return perf;

    double instrs = static_cast<double>(perf.instructions);
    double base_ns = instrs / CacheMachine::kBaseIpc * base_stage;
    double miss_ns = static_cast<double>(stats.l2_hits) * l2_access_ns +
                     (clock.dram() ? clock.takeStall()
                                   : static_cast<double>(stats.misses) *
                                         CacheMachine::kL2MissNs);
    perf.tpi_ns = (base_ns + extra_stage_ns + miss_ns) / instrs;
    return perf;
}

} // namespace cap::core
