/**
 * @file
 * Interval-based adaptive configuration control (paper Section 6).
 *
 * The paper observes that the best-performing configuration often
 * follows long or regular patterns within an application (Figure 12,
 * turb3d; Figure 13a, vortex) but is sometimes irregular with no
 * configuration clearly ahead (Figure 13b) -- so a dynamic predictor
 * "should assign a confidence level to each prediction that is made,
 * in order to avoid needless reconfiguration overhead."
 *
 * IntervalAdaptiveIq realizes that sketch for the instruction queue:
 * a hill-climbing controller that probes neighbouring configurations
 * at a fixed period, maintains exponentially weighted TPI estimates,
 * and commits to a move only after a configurable number of
 * consecutive confirming probes (the confidence gate).  Every
 * reconfiguration pays its real cost: queue draining plus the
 * clock-switch pause.
 *
 * runIntervalOracle() provides the comparison bound: per-interval
 * best configuration with perfect knowledge.
 */

#ifndef CAPSIM_CORE_INTERVAL_CONTROLLER_H
#define CAPSIM_CORE_INTERVAL_CONTROLLER_H

#include <vector>

#include "core/adaptive_iq.h"
#include "core/telemetry.h"
#include "obs/hooks.h"
#include "trace/profile.h"
#include "util/units.h"

namespace cap::core {

/** What schedules the controller's neighbour probes. */
enum class IntervalTrigger {
    /** Fixed probe_period timer (the paper's baseline sketch). */
    Period,
    /**
     * Online phase transitions (sample::OnlinePhaseDetector) trigger
     * an aggressive climb; once the climb settles, probing drops
     * straight to probe_period_max -- a slow safety net so a
     * mistakenly remembered configuration can still be corrected.  A
     * recurring phase snaps straight to the configuration remembered
     * for it (see docs/MODEL.md section 13).
     */
    PhaseChange,
    /**
     * PhaseChange, except that after the climb settles the probe
     * period backs off exponentially (probe_period doubling up to
     * probe_period_max) instead of jumping to the ceiling -- catches
     * drift the detector cannot see while still probing rarely in
     * steady state.
     */
    Hybrid,
};

/** Tunables of the interval controller. */
struct IntervalPolicyParams
{
    /** EWMA weight of the newest interval measurement. */
    double ewma_alpha = 0.3;
    /** Minimum relative TPI gain a move must promise. */
    double switch_margin = 0.02;
    /** Consecutive confirming probes required before moving. */
    int confidence_needed = 2;
    /** Intervals between probes of a neighbouring configuration. */
    int probe_period = 8;
    /** Interval length, instructions. */
    uint64_t interval_instrs = kIntervalInstructions;
    /** If false, the confidence gate is disabled (ablation). */
    bool use_confidence = true;
    /**
     * Clock-switch pause charged per reconfiguration, cycles at the
     * new clock (Section 4.1).  The oracle defaults to the same
     * constant; keep them equal unless deliberately studying
     * asymmetric switch costs.
     */
    Cycles switch_penalty_cycles = kClockSwitchPenaltyCycles;
    /** What schedules probes; Period reproduces the fixed-period
     *  controller exactly (no phase detector is even constructed). */
    IntervalTrigger trigger = IntervalTrigger::Period;
    /** Exponential-backoff ceiling on the probe period (phase modes);
     *  must be >= probe_period. */
    int probe_period_max = 64;
    /** Leader-follower assignment radius, relative-distance units
     *  (phase modes; see sample::OnlinePhaseParams). */
    double phase_distance_threshold = 1.0;
    /** Phase-table capacity (phase modes). */
    size_t max_phases = 16;

    bool operator==(const IntervalPolicyParams &) const = default;
};

/** Outcome of an interval-controlled (or oracle) run. */
struct IntervalRunResult
{
    uint64_t instructions = 0;
    /** Wall-clock time of the run, ns (includes switch overheads). */
    double total_time_ns = 0.0;
    /** Number of physical reconfigurations (including probe trips). */
    int reconfigurations = 0;
    /**
     * Number of *committed* moves: decisions to adopt a new home
     * configuration (probe round-trips excluded).  The confidence
     * gate exists to keep this low on irregular workloads.
     */
    int committed_moves = 0;
    /** Configuration (queue entries) active in each interval. */
    std::vector<int> config_trace;
    /** Phase transitions observed (phase modes; 0 under Period). */
    int phase_transitions = 0;
    /**
     * Reconfigurations served straight from the per-phase memory on a
     * recurring phase (no re-climb); a subset of committed_moves.
     */
    int phase_snaps = 0;
    /** Phase ID of each interval (empty under Period). */
    std::vector<int> phase_trace;
    /** Execution cost of producing this result (audit/scaling data). */
    RunTelemetry telemetry;

    double tpi() const
    {
        return instructions ? total_time_ns /
                              static_cast<double>(instructions)
                            : 0.0;
    }
};

/** The Section-6 interval controller for the adaptive queue. */
class IntervalAdaptiveIq
{
  public:
    IntervalAdaptiveIq(const AdaptiveIqModel &model,
                       IntervalPolicyParams params);

    /**
     * Run @p instructions of @p app starting from @p initial_entries,
     * adapting the queue size at interval boundaries.
     *
     * When @p hooks carry sinks, the run records one Interval trace
     * record per executed interval (including the final partial one;
     * record count == config_trace.size() and the retired sum equals
     * the run's instruction total exactly), a Decision record at every
     * probe, and Reconfig + ClockChange records for every physical
     * move.  The registry gains `interval.*` counters and an IPC
     * histogram, plus the core's `core.*` metrics (folded from its
     * window lane at the end of the run, with CoreModel's names and
     * histogram shape).
     */
    IntervalRunResult run(const trace::AppProfile &app,
                          uint64_t instructions, int initial_entries,
                          const obs::Hooks &hooks = {}) const;

  private:
    const AdaptiveIqModel *model_;
    IntervalPolicyParams params_;
};

/** Cost of one interval at one candidate queue size. */
struct IqIntervalCost
{
    Cycles cycles = 0;
    uint64_t instructions = 0;

    bool operator==(const IqIntervalCost &) const = default;
};

/**
 * The interval oracle's cost table: costs[li][interval] is what
 * candidate @p candidates[li] spends on each @p interval_instrs
 * -instruction interval of @p instructions (the last one partial when
 * the length does not divide), run at that size from the start.
 *
 * A single ooo::WindowSweeper walk scores every candidate: each
 * counterfactual lane advances through every interval to its own
 * chained issue target (exactly the stop rule of CoreModel::step(),
 * overshoot chaining included), so every entry is bit-identical to
 * what a dedicated CoreModel stepping interval by interval measures,
 * while the op stream is walked once instead of once per candidate
 * (docs/PERF.md).  The walk is serial.
 */
std::vector<std::vector<IqIntervalCost>>
intervalOracleCosts(const trace::AppProfile &app, uint64_t instructions,
                    const std::vector<int> &candidates,
                    uint64_t interval_instrs);

/**
 * Per-interval oracle: for each interval, charge the time of the best
 * candidate configuration in intervalOracleCosts()' table (ties: the
 * earliest candidate).  When @p charge_switches is set,
 * @p switch_penalty_cycles cycles at the new clock are charged
 * whenever the winning configuration changes.  The walk is serial;
 * callers scale across applications or representatives instead.
 * @p jobs is ignored.
 *
 * Observation: when @p hooks carry sinks, the serial reduction emits
 * one Interval record per interval (the winning lane's cost) and a
 * Reconfig record whenever the winner changes.
 */
IntervalRunResult runIntervalOracle(
    const AdaptiveIqModel &model, const trace::AppProfile &app,
    uint64_t instructions, const std::vector<int> &candidates,
    uint64_t interval_instrs, bool charge_switches,
    Cycles switch_penalty_cycles = kClockSwitchPenaltyCycles,
    int jobs = 1, const obs::Hooks &hooks = {});

} // namespace cap::core

#endif // CAPSIM_CORE_INTERVAL_CONTROLLER_H
