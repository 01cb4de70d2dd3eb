/**
 * @file
 * Synthetic trace source: turns a CacheBehavior into a deterministic
 * stream of data-cache references.
 */

#ifndef CAPSIM_TRACE_STREAM_H
#define CAPSIM_TRACE_STREAM_H

#include <memory>
#include <vector>

#include "trace/patterns.h"
#include "trace/profile.h"
#include "trace/record.h"
#include "util/rng.h"

namespace cap::trace {

/**
 * Generates the reference stream of one application.  Components of
 * the profile mix are laid out in disjoint address regions (1 MiB
 * aligned) and selected per-reference by weight.  Equal (profile,
 * seed) pairs generate identical streams.
 */
class SyntheticTraceSource : public TraceSource
{
  public:
    /**
     * @param behavior The application's data-reference character.
     * @param seed Application seed (use AppProfile::seed).
     * @param limit Number of references to produce before reporting
     *              exhaustion; 0 means unbounded.
     */
    SyntheticTraceSource(const CacheBehavior &behavior, uint64_t seed,
                         uint64_t limit);

    bool next(TraceRecord &record) override;

    /**
     * Batched generation: identical records and end state to @p max
     * next() calls, with the limit test and phase bookkeeping hoisted
     * out of the per-reference loop.
     */
    uint64_t nextBatch(TraceRecord *out, uint64_t max) override;

    /** References produced so far. */
    uint64_t produced() const { return produced_; }

    /** Phase index active for the next reference (test support). */
    size_t currentPhase() const { return phase_; }

    /**
     * A saved generator position: phase schedule state, reference
     * count, the Rng state, and every pattern's internal cursor.
     * Restoring a cursor into a source built from the same
     * (behavior, seed, limit) resumes the exact reference sequence --
     * the checkpoint primitive of the sampled-simulation replayer
     * (src/sample/).
     */
    struct Cursor
    {
        size_t phase = 0;
        uint64_t phase_left = 0;
        uint64_t produced = 0;
        Rng::State rng_state{};
        /** Per-pattern state words, in phase-then-pattern order. */
        std::vector<uint64_t> pattern_state;
    };

    /** Snapshot the generator position. */
    Cursor saveCursor() const;

    /**
     * Restore a position saved from a source with the same
     * (behavior, seed) construction; fatal on a shape mismatch.
     */
    void restoreCursor(const Cursor &cursor);

  private:
    struct Phase
    {
        std::vector<std::unique_ptr<Pattern>> patterns;
        /** Running sums of the patterns' weights (Rng::weightPrefix);
         *  empty for a single pattern, which never draws. */
        std::vector<double> weight_prefix;
        uint64_t length_refs;
    };

    std::vector<Phase> phases_;
    size_t phase_ = 0;
    uint64_t phase_left_ = 0;
    double write_fraction_;
    uint64_t limit_;
    uint64_t produced_ = 0;
    Rng rng_;
};

} // namespace cap::trace

#endif // CAPSIM_TRACE_STREAM_H
