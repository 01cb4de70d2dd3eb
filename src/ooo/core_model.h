/**
 * @file
 * Window-constrained out-of-order core model for the instruction-queue
 * study (paper Section 5.3).
 *
 * The model mirrors the paper's SimpleScalar methodology: an 8-way
 * machine with perfect branch prediction, perfect caches and plentiful
 * functional units, so IPC is limited only by register dependencies
 * viewed through the instruction queue.  An entry is allocated at
 * dispatch; wakeup/select happen atomically within a cycle and
 * selection is oldest-first (the priority-encoder tree of [22]).
 * Entries are reclaimed in program order once issued (SimpleScalar's
 * RUU discipline, which is what makes the queue size bound the
 * machine's lookahead); an issued-anywhere reclamation mode is also
 * provided for comparison (R10000-style collapsing queue backed by a
 * separate reorder buffer).
 *
 * The queue can be resized while running.  Growing is immediate;
 * shrinking first drains the entries in the portion to be disabled
 * (dispatch is stalled until occupancy fits), which is the cleanup the
 * paper describes for reconfiguring to a smaller queue.
 */

#ifndef CAPSIM_OOO_CORE_MODEL_H
#define CAPSIM_OOO_CORE_MODEL_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/registry.h"
#include "ooo/op_source.h"
#include "util/rng.h"
#include "ooo/uop.h"
#include "util/stats.h"
#include "util/units.h"

namespace cap::ooo {

/** Machine parameters of the core model. */
struct CoreParams
{
    /** Instruction-queue capacity (entries). */
    int queue_entries = 64;
    /** Instructions dispatched into the queue per cycle. */
    int dispatch_width = 8;
    /** Instructions issued from the queue per cycle. */
    int issue_width = 8;
    /**
     * When true, an issued entry frees immediately (collapsing-queue
     * mode); when false (default), entries free in program order once
     * issued (RUU mode, the paper's simulation model).
     */
    bool free_at_issue = false;
    /**
     * Probability that a source dependency is satisfied at dispatch
     * by a confident value prediction (the dependence simply
     * disappears -- mispredictions are assumed filtered by
     * confidence).  Zero disables value prediction and leaves the
     * machine bit-identical to the paper's model.
     */
    double dep_break_prob = 0.0;
    /** Seed for the value-prediction draw (dep_break_prob > 0). */
    uint64_t seed = 0x5eed;
};

/** Result of running a batch of instructions. */
struct RunResult
{
    uint64_t instructions = 0;
    Cycles cycles = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Fast-profile mode: dataflow-limited execution of the next
 * @p instructions of @p stream.  The machine abstraction is the core
 * model's with the queue constraint removed -- an infinite window,
 * unbounded width, perfect everything -- so each instruction completes
 * at max(producer completions) + latency and the cycle count is the
 * critical-path length.  One array lookup per source, no per-cycle
 * work: ~an order of magnitude faster than CoreModel::step(), which is
 * what makes it usable as a per-interval ILP signature extractor for
 * sampled simulation (src/sample/).  The resulting IPC upper-bounds
 * every finite queue's IPC, up to end-of-window accounting: the limit
 * charges the final instruction's completion latency where
 * CoreModel::step() stops at its issue.
 */
RunResult fastProfile(OpSource &stream, uint64_t instructions);

/**
 * fastProfile over a pre-generated op buffer: @p count ops whose first
 * element has absolute instruction index @p start_index.  Identical
 * arithmetic (same completion-ring indexing), so profiling a buffered
 * window gives bit-identical results to streaming the same window
 * through fastProfile().
 */
RunResult fastProfileBuffer(const MicroOp *ops, uint64_t count,
                            uint64_t start_index);

/** The steppable core simulator. */
class CoreModel
{
  public:
    /**
     * @param stream Instruction source (owned by the caller; must
     *               outlive the model).  A finite source (uop trace
     *               file) simply stops dispatching at EOF; asking
     *               step() for more instructions than the source
     *               holds is a fatal user error.
     * @param params Machine parameters; validated on entry.
     */
    CoreModel(OpSource &stream, const CoreParams &params);

    int queueEntries() const { return params_.queue_entries; }

    /** Instructions issued since construction. */
    uint64_t issuedInstructions() const { return issued_; }

    /** Cycles elapsed since construction. */
    Cycles cycleCount() const { return cycle_; }

    /** Current queue occupancy (waiting instructions). */
    int occupancy() const { return static_cast<int>(queue_.size() - head_); }

    /**
     * Run until @p instructions more instructions have issued.
     * @return Instructions and cycles consumed by this step.
     */
    RunResult step(uint64_t instructions);

    /**
     * Begin mid-stream: align the model's instruction indexing with a
     * stream whose cursor was restored to @p index, treating every
     * earlier instruction as long since complete (ready at cycle 0).
     * Must precede the first step().  The sampled-simulation replayer
     * (src/sample/) pairs this with InstructionStream::restoreCursor
     * and absorbs the cold-history approximation in its warmup run.
     */
    void seekTo(uint64_t index);

    /**
     * Resize the queue.  Shrinking drains the excess occupancy first
     * (dispatch stalls; cycles advance).
     * @return Cycles spent draining (zero when growing).
     */
    Cycles resize(int new_entries);

    /**
     * Add idle cycles (e.g. the clock-switch pause of a dynamic-clock
     * reconfiguration).
     */
    void stall(Cycles cycles) { cycle_ += cycles; }

    /** Occupancy-histogram range shared by every core instance, so
     *  per-cell registries merge (shapes must match). */
    static constexpr double kOccupancyHistMax = 128.0;
    static constexpr size_t kOccupancyHistBins = 16;

    /**
     * Register this core's counters into @p registry under @p prefix:
     * `<prefix>cycles`, `<prefix>issued_instructions`,
     * `<prefix>dispatched_instructions`,
     * `<prefix>dispatch_stall_cycles` (cycles in which a full queue
     * blocked dispatch), and the `<prefix>occupancy` histogram
     * (queue occupancy sampled every cycle).  The registry must
     * outlive the model; when never called, the simulation hot path
     * pays a single predicted-null branch per cycle.
     */
    void attachMetrics(obs::CounterRegistry &registry,
                       const std::string &prefix = "core.");

  private:
    struct QueueEntry
    {
        /** Dynamic instruction index. */
        uint64_t index;
        /** Cycle at which all sources are complete; recomputed while
         *  sources are in flight. */
        Cycles ready_at;
        /** Execution latency. */
        uint32_t latency;
        /** Source producer indices (UINT64_MAX = no source). */
        uint64_t src1;
        uint64_t src2;
        /** True once selected for issue (RUU mode keeps the entry). */
        bool issued;
    };

    /** Advance the machine one cycle (wakeup/select, reclaim,
     *  dispatch), then past any idle cycles that would repeat it. */
    void tick();

    /** Completion cycle of instruction @p index (UINT64_MAX if not
     *  yet issued). */
    Cycles completionOf(uint64_t index) const;

    void recordCompletion(uint64_t index, Cycles at);

    /** Registry handles; allocated only when metrics are attached. */
    struct Metrics
    {
        obs::Counter *cycles;
        obs::Counter *issued;
        obs::Counter *dispatched;
        obs::Counter *dispatch_stalls;
        obs::FixedHistogram *occupancy;
    };

    /** Next op from the fetch buffer, refilling it in batches; the
     *  delivered op sequence is identical to per-op source reads
     *  (the source just runs ahead by the buffered residue, which no
     *  caller observes -- every model owns its source).  Returns
     *  false once a finite source is exhausted. */
    bool fetchOp(MicroOp &op);

    /** Fetch-buffer capacity (ops prefetched from the stream). */
    static constexpr size_t kFetchBatch = 64;

    OpSource &stream_;
    CoreParams params_;
    Rng rng_;
    std::unique_ptr<Metrics> metrics_;

    std::array<MicroOp, kFetchBatch> fetch_buf_;
    size_t fetch_pos_ = 0;
    size_t fetch_len_ = 0;
    bool exhausted_ = false;

    /** Queued (dispatched, not yet reclaimed) instructions, oldest
     *  first, from queue_[head_] on; RUU reclamation advances head_
     *  rather than erasing the front every cycle. */
    std::vector<QueueEntry> queue_;
    size_t head_ = 0;

    /** Ring of completion cycles indexed by instruction number. */
    std::vector<Cycles> completion_;

    uint64_t dispatched_ = 0;
    uint64_t issued_ = 0;
    Cycles cycle_ = 0;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_CORE_MODEL_H
