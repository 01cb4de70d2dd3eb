/**
 * @file
 * Micro-operation record consumed by the out-of-order core model.
 *
 * With perfect branch prediction, perfect caches and plentiful
 * functional units (the paper's instruction-queue methodology), the
 * only properties of an instruction that affect IPC are its register
 * dependencies and its execution latency -- which is exactly what a
 * MicroOp carries.
 */

#ifndef CAPSIM_OOO_UOP_H
#define CAPSIM_OOO_UOP_H

#include <cstdint>

namespace cap::ooo {

/** Maximum dependency distance the generators produce. */
constexpr uint32_t kMaxDepDistance = 256;

/**
 * Maximum execution latency of an op, in cycles.  A window lane keeps
 * a ring of per-cycle counts that spans the longest latency in flight,
 * so an unbounded latency would ask for unbounded memory.  The suite's
 * longest latency is 90 cycles.
 */
constexpr uint32_t kMaxLatency = 65536;

/** One dynamic instruction. */
struct MicroOp
{
    /**
     * Distance (in dynamic instructions) back to the producer of the
     * first source operand; 0 means no register source.
     */
    uint32_t src1_dist = 0;
    /** Distance to the second source's producer; 0 means none. */
    uint32_t src2_dist = 0;
    /** Execution latency in cycles, in [1, kMaxLatency]. */
    uint32_t latency = 1;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_UOP_H
