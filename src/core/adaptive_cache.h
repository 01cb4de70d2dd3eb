/**
 * @file
 * The complexity-adaptive D-cache hierarchy: timing derivation plus
 * trace-driven performance evaluation (paper Section 5.2).
 *
 * Timing follows the paper's methodology: increment delays come from
 * the CACTI-style model, global address/data bus delays from Bakoglu
 * optimal buffering, the L1 increment delay sets the processor cycle
 * (pipelined over three cycles), L2 hit latency is
 * ceil(L2 access / cycle), and the average L2 miss costs 30 ns.
 */

#ifndef CAPSIM_CORE_ADAPTIVE_CACHE_H
#define CAPSIM_CORE_ADAPTIVE_CACHE_H

#include <algorithm>
#include <optional>
#include <vector>

#include "cache/exclusive_hierarchy.h"
#include "cache/stack_sim.h"
#include "core/machine.h"
#include "mem/mem_model.h"
#include "obs/decision_trace.h"
#include "obs/registry.h"
#include "timing/cacti.h"
#include "timing/clock_table.h"
#include "timing/technology.h"
#include "timing/wire.h"
#include "trace/profile.h"
#include "trace/record.h"
#include "util/units.h"

namespace cap::core {

/** Timing of one boundary placement. */
struct CacheBoundaryTiming
{
    /** Increments assigned to L1. */
    int l1_increments;
    /** L1 capacity, bytes. */
    uint64_t l1_bytes;
    /** L1 associativity under the mapping rule. */
    int l1_assoc;
    /** Processor cycle time, ns. */
    Nanoseconds cycle_ns;
    /** L2 hit latency, cycles. */
    Cycles l2_hit_cycles;
    /** L2 miss service latency, cycles. */
    Cycles miss_cycles;
};

/** Performance of one application under one boundary placement. */
struct CachePerf
{
    int l1_increments = 0;
    uint64_t refs = 0;
    uint64_t instructions = 0;
    double l1_miss_ratio = 0.0;
    double global_miss_ratio = 0.0;
    /** Average time per instruction, ns. */
    double tpi_ns = 0.0;
    /** Miss-stall component of TPI, ns. */
    double tpi_miss_ns = 0.0;
};

/** The counts and miss ratios of @p stats, with no time folded in
 *  yet: the prologue every cache TPI fold starts from. */
CachePerf cachePerfCounts(const cache::CacheStats &stats, int l1_increments,
                          double refs_per_instr);

/**
 * When each L2 miss reaches memory, and what it costs -- the one
 * decision every cache-side model delegates.
 *
 * Under a flat config the clock carries no backend and charge() does
 * nothing: the caller prices misses at the fixed kL2MissNs edge from
 * its counts.  Under dram it runs the pipeline clock that feeds a
 * mem::DramBackend: each reference advances `now` by the paced
 * reference time, then an L2 hit by the L2-hit time, or a miss by the
 * stall the backend returns for it at that `now`.  The stall accrues
 * until takeStall().  Backend state and `now` persist across pace()
 * changes, so one clock can span intervals, quanta or boundary moves.
 */
class MissClock
{
  public:
    explicit MissClock(const mem::MemConfig &mem);

    /** True when misses are priced by a DRAM backend. */
    bool dram() const { return backend_.has_value(); }

    /** Pace references at @p timing's clock: each takes
     *  cycle_ns / (kBaseIpc * refs_per_instr), an L2 hit a further
     *  l2_hit_cycles cycles. */
    void pace(const CacheBoundaryTiming &timing, double refs_per_instr)
    {
        pace(timing.cycle_ns, refs_per_instr,
             timing.cycle_ns * static_cast<double>(timing.l2_hit_cycles));
    }

    /** As above, with the reference cycle and the L2-hit time given
     *  apart (for models whose L2 is not clocked like their pipe). */
    void pace(Nanoseconds ref_cycle_ns, double refs_per_instr,
              Nanoseconds l2_hit_ns)
    {
        ref_ns_ = ref_cycle_ns / (CacheMachine::kBaseIpc * refs_per_instr);
        l2_hit_ns_ = l2_hit_ns;
    }

    /** Advance the clock past one access of @p addr. */
    void charge(cache::AccessOutcome outcome, Addr addr)
    {
        if (!backend_)
            return;
        now_ns_ += ref_ns_;
        if (outcome == cache::AccessOutcome::L2Hit)
            now_ns_ += l2_hit_ns_;
        else if (outcome == cache::AccessOutcome::Miss)
            chargeMiss(addr);
    }

    /** Miss stall accrued since the last call, ns (0 under flat). */
    Nanoseconds takeStall()
    {
        Nanoseconds stall = stall_ns_;
        stall_ns_ = 0.0;
        return stall;
    }

    /** Add the backend's `dram.*`/`mshr.*` statistics to @p registry
     *  (nothing under flat). */
    void foldCounters(obs::CounterRegistry &registry) const;

  private:
    /** Present a miss to the backend now; the stall delays the clock. */
    void chargeMiss(Addr addr);

    std::optional<mem::DramBackend> backend_;
    Nanoseconds now_ns_ = 0.0;
    Nanoseconds ref_ns_ = 0.0;
    Nanoseconds l2_hit_ns_ = 0.0;
    Nanoseconds stall_ns_ = 0.0;
};

/** walkTrace()'s default visitor: ignores every access. */
struct IgnoreAccess
{
    void operator()(const cache::AccessDetail &) const {}
};

/**
 * The cache timing walk: up to @p refs references of @p source, in
 * trace batches, through @p hierarchy, each access charged to
 * @p clock.  @p visit, when given, sees every access's detail first.
 */
template <typename Visit = IgnoreAccess>
void
walkTrace(trace::TraceSource &source, cache::ExclusiveHierarchy &hierarchy,
          MissClock &clock, uint64_t refs, Visit visit = {})
{
    trace::TraceRecord batch[trace::kTraceBatch];
    for (uint64_t left = refs; left > 0;) {
        uint64_t n = source.nextBatch(
            batch, std::min<uint64_t>(left, trace::kTraceBatch));
        if (n == 0)
            break;
        for (uint64_t i = 0; i < n; ++i) {
            cache::AccessDetail detail = hierarchy.accessDetailed(batch[i]);
            visit(detail);
            clock.charge(detail.outcome, batch[i].addr);
        }
        left -= n;
    }
}

/** One boundary of a stack walk: the L1 ways that split its hits
 *  from its L2 hits, and the clock its static hierarchy would drive. */
struct StackLane
{
    int l1_ways;
    MissClock clock;
};

/**
 * walkTrace()'s stack-side counterpart: up to @p refs references of
 * @p source through @p stack, each charged to every lane's clock with
 * the outcome the lane's boundary sees at the reference's stack depth
 * (cache::outcomeAtDepth).  A static hierarchy's outcome is a function
 * of that depth (docs/PERF.md section 2), so each lane makes exactly
 * the adds and DramBackend::onMiss calls walkTrace() would make on
 * its own hierarchy, in the same order, and accrues the same stall
 * bit for bit.  When no lane prices misses on DRAM (flat), the walk
 * records no depths and charges nothing.
 */
void walkStack(trace::TraceSource &source, cache::StackSimulator &stack,
               std::vector<StackLane> &lanes, uint64_t refs);

/**
 * Binds geometry, timing and the exclusive-hierarchy simulator into
 * the adaptive cache CAS.
 */
class AdaptiveCacheModel
{
  public:
    /**
     * @param geometry Increment-pool geometry (default: the paper's
     *        128 KB pool of 16 8KB 2-way increments).
     * @param tech Implementation technology (paper: 0.18 um).
     */
    explicit AdaptiveCacheModel(
        const cache::HierarchyGeometry &geometry = {},
        const timing::Technology &tech = timing::Technology::um180());

    const cache::HierarchyGeometry &geometry() const { return geometry_; }

    /** Access time of one increment (local tag+data), ns. */
    Nanoseconds incrementAccessNs() const { return increment_access_ns_; }

    /** Global bus delay to reach increment @p n (1-based), ns. */
    Nanoseconds busDelayNs(int n) const;

    /** Timing of a boundary placement (1..increments-1). */
    CacheBoundaryTiming boundaryTiming(int l1_increments) const;

    /** Timings of every boundary the study sweeps. */
    std::vector<CacheBoundaryTiming> allBoundaryTimings() const;

    /** The clock table (exposed for quantization experiments). */
    timing::ClockTable &clockTable() { return clock_table_; }

    /**
     * Select the memory backend serving L2 misses.  The default Flat
     * config reproduces the historical fixed kL2MissNs edge exactly;
     * Dram routes misses through a mem::DramBackend on a MissClock,
     * making miss cost depend on row locality, bank contention and
     * MSHR overlap (docs/MEMORY.md).
     */
    void setMemConfig(const mem::MemConfig &config) { mem_ = config; }
    const mem::MemConfig &memConfig() const { return mem_; }

    /**
     * Trace-driven evaluation: run @p refs references of @p app with
     * the boundary fixed at @p l1_increments and derive TPI/TPImiss
     * (evaluateObserved() with both observers null).
     */
    CachePerf evaluate(const trace::AppProfile &app, int l1_increments,
                       uint64_t refs) const;

    /**
     * As evaluate(), additionally recording observability: the
     * hierarchy's hit/miss/writeback counters and service-way
     * histogram (plus the clock's `dram.*`/`mshr.*` counters under
     * dram) into @p registry, and one Cell summary record into
     * @p trace.  Observers never change the performance result.
     */
    CachePerf evaluateObserved(const trace::AppProfile &app,
                               int l1_increments, uint64_t refs,
                               obs::DecisionTrace *trace,
                               obs::CounterRegistry *registry) const;

    /**
     * Evaluate every boundary in [1, max_l1_increments] from one
     * stack-distance pass over the trace (cache::StackSimulator),
     * under dram with one MissClock lane per boundary (walkStack).
     * Bit-identical to evaluate() at each boundary -- the
     * reconstruction is exact, not approximate (docs/PERF.md) -- at
     * ~1/max_l1_increments the simulation cost (sweepObserved() with
     * both observers null).
     */
    std::vector<CachePerf> sweep(const trace::AppProfile &app,
                                 int max_l1_increments,
                                 uint64_t refs) const;

    /**
     * As sweep(), recording observability: per-boundary Cell trace
     * records and `cache.*` (plus, under dram, `dram.*` and `mshr.*`)
     * counters identical to what evaluateObserved() would emit for
     * each boundary (except the `cache.service_way` histogram, whose
     * physical-way breakdown is path-dependent and not
     * reconstructible from stack depths), plus `stacksim.*` counters
     * describing the one-pass run itself.
     */
    std::vector<CachePerf> sweepObserved(const trace::AppProfile &app,
                                         int max_l1_increments,
                                         uint64_t refs,
                                         obs::DecisionTrace *trace,
                                         obs::CounterRegistry *registry) const;

    /**
     * Derive TPI from raw event counts (shared by evaluate() and the
     * latency-adaptive variant; also used by tests to check the
     * accounting identity).
     */
    CachePerf perfFromStats(const cache::CacheStats &stats,
                            const CacheBoundaryTiming &timing,
                            double refs_per_instr) const;

    /**
     * Dram-mode counterpart of perfFromStats(): the miss term is the
     * backend-measured stall @p dram_stall_ns instead of
     * misses * miss_cycles (L2 hits still cost l2_hit_cycles each).
     */
    CachePerf perfFromDram(const cache::CacheStats &stats,
                           const CacheBoundaryTiming &timing,
                           double refs_per_instr,
                           Nanoseconds dram_stall_ns) const;

  private:
    cache::HierarchyGeometry geometry_;
    const timing::Technology *tech_;
    timing::WireModel wires_;
    timing::ClockTable clock_table_;
    Nanoseconds increment_access_ns_;
    /** Physical pitch of one increment along the bus, mm. */
    double increment_pitch_mm_;
    mem::MemConfig mem_;
};

} // namespace cap::core

#endif // CAPSIM_CORE_ADAPTIVE_CACHE_H
