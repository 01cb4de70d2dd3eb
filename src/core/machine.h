/**
 * @file
 * Machine-model constants of the paper's two evaluations (Section 5.1).
 */

#ifndef CAPSIM_CORE_MACHINE_H
#define CAPSIM_CORE_MACHINE_H

#include <cmath>

#include "util/units.h"

namespace cap::core {

/** Cache-study machine (trace-driven, 4-way issue). */
struct CacheMachine
{
    /** Pipeline efficiency in the absence of L1 D-cache misses. */
    static constexpr double kBaseIpc = 2.67;
    /** L1 D-cache latency is pipelined over this many cycles. */
    static constexpr int kL1PipelineDepth = 3;
    /** Average L2-miss service time (board-level cache), ns. */
    static constexpr Nanoseconds kL2MissNs = 30.0;
};

/** Instruction-queue-study machine (8-way, perfect everything). */
struct IqMachine
{
    static constexpr int kDispatchWidth = 8;
    static constexpr int kIssueWidth = 8;
    /** Queue sizes studied: 16..128 in 16-entry increments. */
    static constexpr int kMinEntries = 16;
    static constexpr int kMaxEntries = 128;
    static constexpr int kEntryStep = 16;
};

/** Interval granularity of the paper's snapshots (instructions). */
constexpr uint64_t kIntervalInstructions = 2000;

/**
 * Clock-switch pause of a dynamic-clock reconfiguration, in cycles at
 * the *new* clock (paper Section 4.1: "tens of cycles").  Shared by
 * the interval controller and the oracle so the two can never
 * silently diverge on the cost of a move.
 */
constexpr Cycles kClockSwitchPenaltyCycles = 30;

/**
 * Cycles needed to cover a fixed latency at a given cycle time.  The
 * 1e-9 epsilon keeps exact divisions exact (30 ns at a 1.0 ns clock
 * is 30 cycles, not 31) despite floating-point representation error.
 * Every model's ns-to-cycles latency conversion (L2 hit, miss, TLB
 * walk, L1 access) goes through this helper so the rounding
 * convention can never diverge between studies.
 */
inline Cycles
missCycles(Nanoseconds latency_ns, Nanoseconds cycle_ns)
{
    return static_cast<Cycles>(std::ceil(latency_ns / cycle_ns - 1e-9));
}

} // namespace cap::core

#endif // CAPSIM_CORE_MACHINE_H
