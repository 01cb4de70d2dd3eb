#include "adaptive_cache.h"

#include <algorithm>
#include <cmath>

#include "timing/area.h"
#include "trace/stream.h"
#include "util/status.h"

namespace cap::core {

namespace {

// Tag + status storage makes each increment slightly larger than its
// data capacity when computing physical pitch.
constexpr double kTagAreaOverhead = 1.25;

// Serialization overhead of an L2 access beyond bus + increment
// delays (bank selection, way steering, fill alignment), ns.  Chosen
// so the 30 ns miss latency is 2-3x the L2 hit latency, as the paper
// states.
constexpr double kL2FixedNs = 5.0;

/** The Cell summary record evaluateObserved() emits; shared with
 *  sweepObserved() so both paths stay byte-identical. */
obs::TraceEvent
cellEvent(const trace::AppProfile &app, const CacheBoundaryTiming &timing,
          const CachePerf &perf)
{
    std::string config = std::to_string(timing.l1_bytes / 1024) + "KB/" +
                         std::to_string(timing.l1_assoc) + "way";
    obs::TraceEvent event;
    event.kind = obs::EventKind::Cell;
    event.lane = app.name + "/" + config;
    event.app = app.name;
    event.config = config;
    event.retired = perf.instructions;
    event.cycles = perf.refs;
    event.duration_ns =
        perf.tpi_ns * static_cast<double>(perf.instructions);
    event.tpi_ns = perf.tpi_ns;
    return event;
}

/** The `cache.*` scalar counters a per-config run would accumulate,
 *  reconstructed from exact stats (service_way excepted). */
void
foldCacheCounters(obs::CounterRegistry &registry,
                  const cache::CacheStats &stats)
{
    registry.counter("cache.refs").add(stats.refs);
    registry.counter("cache.l1_hits").add(stats.l1_hits);
    registry.counter("cache.l2_hits").add(stats.l2_hits);
    registry.counter("cache.misses").add(stats.misses);
    registry.counter("cache.writebacks").add(stats.writebacks);
    registry.counter("cache.swaps").add(stats.swaps);
}

} // namespace

CachePerf
cachePerfCounts(const cache::CacheStats &stats, int l1_increments,
                double refs_per_instr)
{
    capAssert(refs_per_instr > 0.0, "refs_per_instr must be positive");
    CachePerf perf;
    perf.l1_increments = l1_increments;
    perf.refs = stats.refs;
    perf.instructions = static_cast<uint64_t>(
        static_cast<double>(stats.refs) / refs_per_instr);
    perf.l1_miss_ratio = stats.l1MissRatio();
    perf.global_miss_ratio = stats.globalMissRatio();
    return perf;
}

MissClock::MissClock(const mem::MemConfig &mem)
{
    if (mem.isDram())
        backend_.emplace(mem.dram);
}

void
MissClock::chargeMiss(Addr addr)
{
    Nanoseconds stall = backend_->onMiss(addr, now_ns_);
    now_ns_ += stall;
    stall_ns_ += stall;
}

void
MissClock::foldCounters(obs::CounterRegistry &registry) const
{
    if (!backend_)
        return;
    const mem::DramStats &dram = backend_->dramStats();
    const mem::MshrStats &mshr = backend_->mshrStats();
    registry.counter("dram.accesses").add(dram.accesses);
    registry.counter("dram.row_hits").add(dram.row_hits);
    registry.counter("dram.row_misses").add(dram.row_misses);
    registry.counter("dram.row_conflicts").add(dram.row_conflicts);
    registry.counter("dram.service_ns")
        .add(static_cast<uint64_t>(dram.service_ns));
    registry.counter("dram.queue_ns")
        .add(static_cast<uint64_t>(dram.queue_ns));
    registry.counter("mshr.allocs").add(mshr.allocs);
    registry.counter("mshr.merges").add(mshr.merges);
    registry.counter("mshr.full_stalls").add(mshr.full_stalls);
    registry.counter("mshr.stall_ns")
        .add(static_cast<uint64_t>(mshr.stall_ns));
}

void
walkStack(trace::TraceSource &source, cache::StackSimulator &stack,
          std::vector<StackLane> &lanes, uint64_t refs)
{
    const bool timed =
        std::any_of(lanes.begin(), lanes.end(),
                    [](const StackLane &lane) { return lane.clock.dram(); });
    trace::TraceRecord batch[trace::kTraceBatch];
    cache::StackDepth depths[trace::kTraceBatch];
    for (uint64_t left = refs; left > 0;) {
        uint64_t n = source.nextBatch(
            batch, std::min<uint64_t>(left, trace::kTraceBatch));
        if (n == 0)
            break;
        stack.accessBatch(batch, n, timed ? depths : nullptr);
        if (timed) {
            // Lanes share nothing, so each may take the batch whole.
            for (StackLane &lane : lanes) {
                for (uint64_t i = 0; i < n; ++i)
                    lane.clock.charge(
                        cache::outcomeAtDepth(depths[i], lane.l1_ways),
                        batch[i].addr);
            }
        }
        left -= n;
    }
}

AdaptiveCacheModel::AdaptiveCacheModel(
    const cache::HierarchyGeometry &geometry,
    const timing::Technology &tech)
    : geometry_(geometry), tech_(&tech), wires_(tech)
{
    geometry_.validate();

    timing::CactiLite cacti(tech);
    timing::CacheOrg org{geometry_.increment_bytes,
                         geometry_.increment_assoc,
                         geometry_.block_bytes,
                         geometry_.increment_banks};
    increment_access_ns_ = cacti.accessTime(org);

    double data_pitch =
        timing::AreaModel::subarrayPitchMm(geometry_.increment_bytes);
    increment_pitch_mm_ = data_pitch * std::sqrt(kTagAreaOverhead);
}

Nanoseconds
AdaptiveCacheModel::busDelayNs(int n) const
{
    capAssert(n >= 1 && n <= geometry_.increments,
              "increment index %d out of range", n);
    return wires_.bufferedDelay(increment_pitch_mm_ * n);
}

CacheBoundaryTiming
AdaptiveCacheModel::boundaryTiming(int l1_increments) const
{
    capAssert(l1_increments >= 1 &&
              l1_increments < geometry_.increments,
              "boundary %d out of range", l1_increments);

    CacheBoundaryTiming t;
    t.l1_increments = l1_increments;
    t.l1_bytes = geometry_.l1Bytes(l1_increments);
    t.l1_assoc = geometry_.l1Ways(l1_increments);

    // The slowest L1 increment (the one farthest along the bus)
    // determines the L1 access time; pipelined over three cycles, it
    // sets the processor cycle (paper Section 5.1).
    Nanoseconds l1_access = increment_access_ns_ + busDelayNs(l1_increments);
    Nanoseconds raw_cycle =
        l1_access / static_cast<double>(CacheMachine::kL1PipelineDepth);
    t.cycle_ns = clock_table_.cycleFor(raw_cycle);

    // An L2 access traverses the address bus to the farthest
    // increment, performs a local access, and returns data; tag and
    // data phases are serialized in the L2 region.
    Nanoseconds l2_access = 2.0 * increment_access_ns_ +
                            2.0 * busDelayNs(geometry_.increments) +
                            kL2FixedNs;
    t.l2_hit_cycles = missCycles(l2_access, t.cycle_ns);
    t.miss_cycles = missCycles(CacheMachine::kL2MissNs, t.cycle_ns);
    return t;
}

std::vector<CacheBoundaryTiming>
AdaptiveCacheModel::allBoundaryTimings() const
{
    std::vector<CacheBoundaryTiming> timings;
    for (int k = 1; k < geometry_.increments; ++k)
        timings.push_back(boundaryTiming(k));
    return timings;
}

CachePerf
AdaptiveCacheModel::perfFromStats(const cache::CacheStats &stats,
                                  const CacheBoundaryTiming &timing,
                                  double refs_per_instr) const
{
    CachePerf perf =
        cachePerfCounts(stats, timing.l1_increments, refs_per_instr);
    if (perf.instructions == 0)
        return perf;

    double base_cycles =
        static_cast<double>(perf.instructions) / CacheMachine::kBaseIpc;
    double stall_cycles =
        static_cast<double>(stats.l2_hits) *
            static_cast<double>(timing.l2_hit_cycles) +
        static_cast<double>(stats.misses) *
            static_cast<double>(timing.miss_cycles);

    double instrs = static_cast<double>(perf.instructions);
    perf.tpi_ns = timing.cycle_ns * (base_cycles + stall_cycles) / instrs;
    perf.tpi_miss_ns = timing.cycle_ns * stall_cycles / instrs;
    return perf;
}

CachePerf
AdaptiveCacheModel::perfFromDram(const cache::CacheStats &stats,
                                 const CacheBoundaryTiming &timing,
                                 double refs_per_instr,
                                 Nanoseconds dram_stall_ns) const
{
    CachePerf perf =
        cachePerfCounts(stats, timing.l1_increments, refs_per_instr);
    if (perf.instructions == 0)
        return perf;

    double base_cycles =
        static_cast<double>(perf.instructions) / CacheMachine::kBaseIpc;
    double l2_hit_ns = timing.cycle_ns *
                       static_cast<double>(stats.l2_hits) *
                       static_cast<double>(timing.l2_hit_cycles);

    double instrs = static_cast<double>(perf.instructions);
    perf.tpi_miss_ns = (l2_hit_ns + dram_stall_ns) / instrs;
    perf.tpi_ns =
        timing.cycle_ns * base_cycles / instrs + perf.tpi_miss_ns;
    return perf;
}

CachePerf
AdaptiveCacheModel::evaluate(const trace::AppProfile &app,
                             int l1_increments, uint64_t refs) const
{
    return evaluateObserved(app, l1_increments, refs, nullptr, nullptr);
}

CachePerf
AdaptiveCacheModel::evaluateObserved(const trace::AppProfile &app,
                                     int l1_increments, uint64_t refs,
                                     obs::DecisionTrace *trace,
                                     obs::CounterRegistry *registry) const
{
    capAssert(refs > 0, "evaluation needs references");
    CacheBoundaryTiming timing = boundaryTiming(l1_increments);

    cache::ExclusiveHierarchy hierarchy(geometry_, l1_increments);
    if (registry)
        hierarchy.attachMetrics(*registry);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    MissClock clock(mem_);
    clock.pace(timing, app.cache.refs_per_instr);
    walkTrace(source, hierarchy, clock, refs);

    CachePerf perf =
        clock.dram()
            ? perfFromDram(hierarchy.stats(), timing,
                           app.cache.refs_per_instr, clock.takeStall())
            : perfFromStats(hierarchy.stats(), timing,
                            app.cache.refs_per_instr);
    if (registry)
        clock.foldCounters(*registry);
    if (trace)
        trace->add(cellEvent(app, timing, perf));
    return perf;
}

std::vector<CachePerf>
AdaptiveCacheModel::sweep(const trace::AppProfile &app,
                          int max_l1_increments, uint64_t refs) const
{
    return sweepObserved(app, max_l1_increments, refs, nullptr, nullptr);
}

std::vector<CachePerf>
AdaptiveCacheModel::sweepObserved(const trace::AppProfile &app,
                                  int max_l1_increments, uint64_t refs,
                                  obs::DecisionTrace *trace,
                                  obs::CounterRegistry *registry) const
{
    capAssert(refs > 0, "evaluation needs references");
    capAssert(max_l1_increments >= 1 &&
              max_l1_increments < geometry_.increments,
              "sweep bound out of range");

    std::vector<CacheBoundaryTiming> timings;
    std::vector<StackLane> lanes;
    timings.reserve(static_cast<size_t>(max_l1_increments));
    lanes.reserve(static_cast<size_t>(max_l1_increments));
    for (int k = 1; k <= max_l1_increments; ++k) {
        timings.push_back(boundaryTiming(k));
        lanes.push_back({geometry_.l1Ways(k), MissClock(mem_)});
        lanes.back().clock.pace(timings.back(), app.cache.refs_per_instr);
    }
    cache::StackSimulator stack(geometry_);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    walkStack(source, stack, lanes, refs);

    std::vector<CachePerf> results;
    results.reserve(static_cast<size_t>(max_l1_increments));
    for (int k = 1; k <= max_l1_increments; ++k) {
        const CacheBoundaryTiming &timing = timings[k - 1];
        MissClock &clock = lanes[k - 1].clock;
        cache::CacheStats stats = stack.statsFor(k);
        CachePerf perf =
            clock.dram()
                ? perfFromDram(stats, timing, app.cache.refs_per_instr,
                               clock.takeStall())
                : perfFromStats(stats, timing, app.cache.refs_per_instr);
        if (registry) {
            foldCacheCounters(*registry, stats);
            clock.foldCounters(*registry);
        }
        if (trace)
            trace->add(cellEvent(app, timing, perf));
        results.push_back(perf);
    }
    if (registry) {
        registry->counter("stacksim.sweeps").add(1);
        registry->counter("stacksim.refs").add(stack.refs());
        registry->counter("stacksim.boundaries")
            .add(static_cast<uint64_t>(max_l1_increments));
    }
    return results;
}

} // namespace cap::core
