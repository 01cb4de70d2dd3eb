/**
 * @file
 * Synthetic instruction-stream generator driven by an application's
 * IlpBehavior (phases + schedule).
 */

#ifndef CAPSIM_OOO_STREAM_H
#define CAPSIM_OOO_STREAM_H

#include <cstdint>
#include <optional>
#include <vector>

#include "ooo/op_source.h"
#include "ooo/uop.h"
#include "trace/profile.h"
#include "util/inverse_table.h"
#include "util/rng.h"

namespace cap::ooo {

/**
 * Produces the dynamic MicroOp stream of one application.  The phase
 * schedule is tracked by dispatched-instruction index; when the
 * schedule is exhausted it loops, matching the paper's observation of
 * repeating program behaviour.  Equal (behavior, seed) pairs generate
 * identical streams.
 */
class InstructionStream : public OpSource
{
  public:
    InstructionStream(const trace::IlpBehavior &behavior, uint64_t seed);

    /** Generate the next instruction. */
    MicroOp next();

    /**
     * Generate @p max instructions into @p out (the stream is
     * infinite, so the batch is always filled).  Semantically
     * identical to @p max next() calls -- same ops, same generator
     * state afterwards, including cursor equivalence -- but hoists
     * the per-op phase lookup out of the loop and draws dependency
     * distances from each phase's InverseTables.  Returns @p max.
     */
    uint64_t nextBatch(MicroOp *out, uint64_t max) override;

    /** Index of the next instruction to be generated. */
    uint64_t position() const override { return position_; }

    /** Phase index active for the next instruction (test support). */
    int currentPhase() const;

    /**
     * A saved generator position (schedule state + Rng state); the
     * instruction-side counterpart of
     * trace::SyntheticTraceSource::Cursor.  Restoring into a stream
     * built from the same (behavior, seed) resumes the exact MicroOp
     * sequence.
     */
    struct Cursor
    {
        uint64_t position = 0;
        size_t segment = 0;
        uint64_t segment_left = 0;
        Rng::State rng_state{};
    };

    /** Snapshot the generator position. */
    Cursor saveCursor() const;

    /** Restore a position saved from an identically-built stream. */
    void restoreCursor(const Cursor &cursor);

  private:
    void advanceSegment();

    /** One phase's draw parameters, computed once (next() recomputes
     *  them per op; nextBatch() reads them from here). */
    struct PhaseDraw
    {
        uint64_t floor;
        /** Rng::geometric(p, kMaxDepDistance - floor) for the phase's
         *  two mean distances; none where p == 1, which draws 0 and
         *  consumes no random number. */
        std::optional<InverseTable> gap1;
        std::optional<InverseTable> gap2;
    };

    const trace::IlpBehavior behavior_;
    std::vector<PhaseDraw> draws_;
    Rng rng_;
    uint64_t position_ = 0;
    size_t segment_ = 0;
    uint64_t segment_left_ = 0;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_STREAM_H
