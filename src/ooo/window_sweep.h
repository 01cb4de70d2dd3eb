/**
 * @file
 * One-pass counterfactual instruction-queue sweep (the IQ-side
 * counterpart of cache::StackSimulator).
 *
 * The paper's IQ study (Section 5.3, Figures 9-11) evaluates every
 * queue size with an independent CoreModel run over the same op
 * stream.  CoreModel's cost is a per-cycle scan of the whole window,
 * but with the study's machine (RUU reclaim, no value prediction)
 * every op's dispatch, issue and reclaim cycles follow in closed form
 * from the ops before it (docs/PERF.md section 7):
 *
 *   - dispatch d_i = max(d_{i-1}, d_{i-D} + 1, R_{i-Q}, 1) for
 *     dispatch width D and queue size Q;
 *   - eligibility e_i = max(d_i + 1, source issue + source latency);
 *   - issue s_i = the first cycle from e_i in which older ops issued
 *     fewer than the issue width W (oldest-first select);
 *   - reclaim R_i = max(R_{i-1}, s_i) (RUU order).
 *
 * WindowSweeper exploits this: it generates the op stream once into a
 * shared ring and runs one WindowLane per queue size.  A lane places
 * each op once, in program order, and keeps per-cycle issue and
 * reclaim counts; closing a cycle costs O(1).  It reproduces
 * CoreModel's cycle count, per-interval boundaries, counters and
 * occupancy histogram bit-identically -- the differential suite
 * (tests/windowsweep_test.cc) pins every lane against an independent
 * CoreModel run, on the study machine and on a grid of other shapes.
 *
 * A lane also resizes exactly between cycles (docs/PERF.md section
 * 10): placed ops keep their issue and reclaim cycles, which do not
 * depend on Q; after closed cycle t the next op i dispatches at
 * max(t + 1, R_{i-Q'}); a shrink closes cycles until the occupancy
 * fits, as CoreModel::resize() drains.  So the sweeper's live machine
 * -- the interval controllers' core -- is a lane too, and the
 * counterfactual lanes keep their fixed sizes beside it.
 */

#ifndef CAPSIM_OOO_WINDOW_SWEEP_H
#define CAPSIM_OOO_WINDOW_SWEEP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "ooo/core_model.h"
#include "ooo/op_source.h"
#include "util/units.h"

namespace cap::ooo {

/**
 * Closed-form simulation of one queue size.  Timing-equivalent to a
 * CoreModel with the same parameters (RUU mode, no value prediction),
 * resizes included; owned and fed by WindowSweeper.  Before it closes
 * cycle t a lane places every op dispatched by t -- exactly the ops
 * CoreModel has dispatched when it ends cycle t -- so nextIndex() and
 * the shared ring's overwrite guard mean what they mean for a ticking
 * machine.  Copyable: a copy continues the same machine.
 */
class WindowLane
{
  public:
    /**
     * @param queue_entries  Queue capacity of this lane.
     * @param dispatch_width Dispatch width.
     * @param issue_width    Issue width.
     * @param base_index     Absolute index of the first op (cursor
     *                       seek); earlier instructions are treated as
     *                       complete at cycle 0, matching
     *                       CoreModel::seekTo().
     */
    WindowLane(int queue_entries, int dispatch_width, int issue_width,
               uint64_t base_index);

    /**
     * Record the cycle at which the issued-instruction count first
     * reaches @p issue_target (the cycle CoreModel::step() would stop
     * at).  Targets must be added in increasing order, ahead of the
     * current issued count; the crossing is captured during a later
     * advanceTo() that runs at least that far.
     */
    void addMark(uint64_t issue_target);

    /** Crossing cycles of the marks recorded so far. */
    const std::vector<Cycles> &markTicks() const { return mark_ticks_; }

    /**
     * Run until the issued count reaches @p issue_target, reading ops
     * from @p ring (capacity mask @p ring_mask); ops are valid below
     * absolute index @p avail_end.  @p exhausted signals that the
     * underlying source has ended at avail_end.
     */
    void advanceTo(uint64_t issue_target, const MicroOp *ring,
                   uint64_t ring_mask, uint64_t avail_end, bool exhausted);

    /**
     * Resize the queue between cycles, as CoreModel::resize() does:
     * growing is immediate; shrinking closes cycles (reading ops as
     * advanceTo() does) until the occupancy fits.
     * @return Cycles spent draining (zero when growing).
     */
    Cycles resize(int queue_entries, const MicroOp *ring, uint64_t ring_mask,
                  uint64_t avail_end, bool exhausted);

    int queueEntries() const { return queue_entries_; }
    uint64_t issued() const { return issued_count_; }
    Cycles cycles() const { return tick_; }
    uint64_t dispatched() const { return next_index_ - base_; }
    uint64_t stallCycles() const { return stall_cycles_; }
    /** Absolute index of the next op this lane will dispatch. */
    uint64_t nextIndex() const { return next_index_; }

    /** Cycle-count histogram of post-dispatch occupancy, indexed by
     *  occupancy value (0..the largest queue size so far). */
    const std::vector<uint64_t> &occupancyCounts() const
    {
        return occ_counts_;
    }

  private:
    /** Issues and reclaims that fall in one cycle. */
    struct CycleCounts
    {
        uint32_t issued = 0;
        uint32_t reclaimed = 0;
    };

    /** Place op next_index_, dispatched in cycle tick_ + 1: record its
     *  issue, completion and reclaim cycles. */
    void place(const MicroOp &op);
    /** Place every op dispatched in cycle tick_ + 1. */
    void placeDue(const MicroOp *ring, uint64_t ring_mask,
                  uint64_t avail_end, bool exhausted);
    /** Close cycle tick_ + 1: fold its counts into the totals. */
    void finishCycle();
    /** Counts of a cycle after tick_, growing the ring to reach it. */
    CycleCounts &countsAt(Cycles cycle);
    void growCounts(Cycles cycle);

    int queue_entries_;
    int dispatch_width_;
    int issue_width_;
    uint64_t base_;

    /** Ops before next_index_ are placed: dispatched by cycle tick_ + 1
     *  (by tick_ between advances). */
    uint64_t next_index_;
    /** Cycle in which op next_index_ dispatches, given the ops placed. */
    Cycles next_dispatch_ = 1;
    /** Ops placed in cycle tick_ + 1. */
    int dispatched_now_ = 0;
    /** Reclaim cycle of the youngest placed op. */
    Cycles last_reclaim_ = 0;
    uint64_t occupancy_ = 0;
    uint64_t issued_count_ = 0;
    Cycles tick_ = 0;
    uint64_t stall_cycles_ = 0;

    /** Reclaim cycle of each of the last reclaim_at_.size() ops, a
     *  power of two no smaller than any queue size so far. */
    uint64_t reclaim_mask_;
    std::vector<Cycles> reclaim_at_;
    /** Completion cycle (issue + latency) by instruction number. */
    uint64_t completion_mask_;
    std::vector<Cycles> completion_;
    /** Counts of cycles tick_ + 1 .. tick_ + size, by cycle. */
    uint64_t counts_mask_;
    std::vector<CycleCounts> counts_;

    std::vector<uint64_t> occ_counts_;

    std::vector<uint64_t> mark_targets_;
    std::vector<Cycles> mark_ticks_;
    size_t next_mark_ = 0;
};

/**
 * Shared-stream counterfactual sweep over a ladder of queue sizes,
 * with a CoreModel-compatible live machine.
 *
 * Batch use (runIqStudy, IqSampler, the interval oracle): construct
 * over a positioned op source, add per-lane marks, advance, read each
 * lane's cycle counts / metrics.  Live use (the interval controllers):
 * step() / resize() mirror CoreModel on the live lane -- the ladder's
 * lane of the base size, or a lane of its own when the ladder lacks
 * that size (an empty ladder runs the live lane alone).  A resize
 * first detaches the live lane from the ladder (a copy), so every
 * ladder lane keeps its size.
 */
class WindowSweeper
{
  public:
    /**
     * @param source Op supply; its current position becomes the base
     *               index (instructions before it are treated as
     *               complete, as with CoreModel::seekTo()).
     * @param base   Machine parameters; free_at_issue and
     *               dep_break_prob must be off (the sweep's dataflow
     *               argument needs the RUU machine).  queue_entries
     *               sizes the live lane.
     * @param sizes  Queue-size ladder (one lane each); base's size is
     *               appended when missing.
     */
    WindowSweeper(OpSource &source, const CoreParams &base,
                  const std::vector<int> &sizes);
    ~WindowSweeper();

    /** Lanes: the ladder's, then a detached or appended live lane. */
    size_t laneCount() const { return lanes_.size(); }
    int laneEntries(size_t lane) const;
    uint64_t laneIssued(size_t lane) const;
    Cycles laneCycles(size_t lane) const;
    void addLaneMark(size_t lane, uint64_t issue_target);
    const std::vector<Cycles> &laneMarkTicks(size_t lane) const;

    /** Index of the live machine's lane. */
    size_t liveLane() const { return live_lane_; }

    /** Advance every lane until its issued count reaches @p target
     *  (absolute, counted from the base index). */
    void advanceAllTo(uint64_t target);

    /**
     * Advance only lane @p lane until its issued count reaches
     * @p target (absolute, counted from the base index) -- the
     * building block of the one-pass interval oracle, where each
     * lane's interval boundaries chain off its own overshoot and the
     * lanes therefore advance through an interval one at a time.
     * Lanes may drift apart by up to the span the shared ring was
     * sized for; call reserveSpan() first when per-lane targets can
     * spread further than one lockstep chunk.
     */
    void advanceLaneTo(size_t lane, uint64_t target);

    /**
     * Grow the shared op ring so lanes may drift up to @p span
     * instructions apart (plus queue and width headroom) without the
     * producer overwriting ops a lagging lane still needs.  Must be
     * called before any lane advances.
     */
    void reserveSpan(uint64_t span);

    /** No-op: no sweeper records its op history.  Kept only so that
     *  existing callers compile. */
    void disableHistory() {}

    /**
     * Fold one lane's counters into @p registry under @p prefix with
     * the exact names and occupancy-histogram shape of
     * CoreModel::attachMetrics(), so a one-pass cell merges
     * bit-identically with per-config cells.
     */
    void foldLaneMetrics(size_t lane, obs::CounterRegistry &registry,
                         const std::string &prefix = "core.") const;

    // --- CoreModel-compatible live machine ------------------------

    /** Queue size of the live machine. */
    int queueEntries() const;
    uint64_t issuedInstructions() const;
    Cycles cycleCount() const;

    /** Run until @p instructions more instructions issue on the live
     *  machine (the other lanes keep pace). */
    RunResult step(uint64_t instructions);

    /**
     * Resize the live queue, as CoreModel::resize() does.
     * @return Cycles spent draining (zero when growing).
     */
    Cycles resize(int new_entries);

  private:
    /** Generate ops into the shared ring up to absolute index
     *  @p upto (or the end of a finite source). */
    void ensureOps(uint64_t upto);
    /** Index of the first lane of @p entries (laneCount() if none). */
    size_t findLane(int entries) const;
    void addLane(int entries);
    /** Admit a queue size: the shared ring must hold a chunk plus
     *  the largest queue and the issue width. */
    void admitEntries(int entries);

    OpSource &source_;
    CoreParams base_params_;
    std::vector<std::unique_ptr<WindowLane>> lanes_;
    size_t live_lane_ = 0;
    /** True while the live lane is one of the ladder's. */
    bool live_in_ladder_ = false;
    int max_entries_ = 0;

    uint64_t base_ = 0;
    std::vector<MicroOp> ring_;
    uint64_t ring_mask_;
    uint64_t reserved_span_ = 0;
    uint64_t produced_ = 0;
    bool exhausted_ = false;
    uint64_t last_sync_ = 0;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_WINDOW_SWEEP_H
