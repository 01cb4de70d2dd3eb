/**
 * @file
 * The complexity-adaptive instruction queue: timing derivation plus
 * execution-driven performance evaluation (paper Section 5.3).
 *
 * Wakeup + select is assumed to be on the critical path for every
 * configuration, so each queue size has a required cycle time from
 * IssueLogicModel; IPC comes from the window-constrained core model.
 */

#ifndef CAPSIM_CORE_ADAPTIVE_IQ_H
#define CAPSIM_CORE_ADAPTIVE_IQ_H

#include <vector>

#include "core/machine.h"
#include "obs/decision_trace.h"
#include "obs/registry.h"
#include "ooo/core_model.h"
#include "timing/clock_table.h"
#include "timing/issue_logic.h"
#include "timing/technology.h"
#include "trace/profile.h"
#include "util/stats.h"
#include "util/units.h"

namespace cap::core {

/** Timing of one queue configuration. */
struct IqTiming
{
    int entries;
    Nanoseconds cycle_ns;
};

/** Performance of one application under one queue size. */
struct IqPerf
{
    int entries = 0;
    uint64_t instructions = 0;
    Cycles cycles = 0;
    double ipc = 0.0;
    /** Average time per instruction, ns. */
    double tpi_ns = 0.0;
};

/** Binds the issue-logic timing model to the core simulator. */
class AdaptiveIqModel
{
  public:
    explicit AdaptiveIqModel(
        const timing::Technology &tech = timing::Technology::um180());

    /** The queue sizes the study sweeps (16..128 step 16). */
    static std::vector<int> studySizes();

    /** Required cycle time of a queue size, ns (clock-table rule). */
    Nanoseconds cycleNs(int entries) const;

    /** Timings for every study size. */
    std::vector<IqTiming> allTimings() const;

    timing::ClockTable &clockTable() { return clock_table_; }

    /** Run @p instructions of @p app with a fixed queue size. */
    IqPerf evaluate(const trace::AppProfile &app, int entries,
                    uint64_t instructions) const;

    /**
     * As evaluate(), additionally recording observability: one
     * Interval record per @p interval_instrs -instruction interval
     * (including the final partial one) into @p trace, and the core's
     * counters/occupancy histogram into @p registry.  The performance
     * result is bit-identical to evaluate() -- interval stepping only
     * partitions the same deterministic tick sequence -- and both
     * observers null reduces to the evaluate() fast path.
     */
    IqPerf evaluateObserved(const trace::AppProfile &app, int entries,
                            uint64_t instructions,
                            uint64_t interval_instrs,
                            obs::DecisionTrace *trace,
                            obs::CounterRegistry *registry) const;

    /**
     * Evaluate every study size in one pass: a single generation of
     * the op stream feeds one ooo::WindowSweeper lane per queue size.
     * Bit-identical to evaluate() at each size
     * (tests/windowsweep_test.cc pins it).
     */
    std::vector<IqPerf> sweep(const trace::AppProfile &app,
                              uint64_t instructions) const;

    /**
     * sweep()'s counterpart of evaluateObserved() over the whole
     * ladder: per-lane issue marks reproduce every per-interval
     * record, and the folded counters/occupancy histograms match
     * evaluateObserved() at each size in ladder order, byte for byte.
     * Also counts `windowsweep.sweeps`, `windowsweep.instructions`
     * and `windowsweep.lanes` into @p registry.
     */
    std::vector<IqPerf> sweepObserved(
        const trace::AppProfile &app, uint64_t instructions,
        uint64_t interval_instrs, obs::DecisionTrace *trace,
        obs::CounterRegistry *registry) const;

    /**
     * Per-interval TPI series (Figures 12-13): run @p instructions
     * with a fixed queue size and record TPI over every
     * @p interval_instrs -instruction interval.
     */
    IntervalSeries intervalSeries(const trace::AppProfile &app, int entries,
                                  uint64_t instructions,
                                  uint64_t interval_instrs =
                                      kIntervalInstructions) const;

  private:
    timing::IssueLogicModel issue_logic_;
    timing::ClockTable clock_table_;
};

} // namespace cap::core

#endif // CAPSIM_CORE_ADAPTIVE_IQ_H
