#include "core_model.h"

#include <algorithm>

#include "util/status.h"

namespace cap::ooo {

namespace {

/** Completion-ring capacity; see the dispatch-time distance assert. */
constexpr uint64_t kCompletionRing = 4096;

constexpr Cycles kNotIssued = UINT64_MAX;
constexpr uint64_t kNoSource = UINT64_MAX;

} // namespace

CoreModel::CoreModel(OpSource &stream, const CoreParams &params)
    : stream_(stream), params_(params), rng_(params.seed),
      completion_(kCompletionRing, kNotIssued)
{
    capAssert(params.dep_break_prob >= 0.0 &&
              params.dep_break_prob <= 1.0,
              "dep_break_prob must be a probability");
    capAssert(params.queue_entries >= 1, "queue must have entries");
    capAssert(params.dispatch_width >= 1 && params.issue_width >= 1,
              "machine widths must be positive");
    capAssert(static_cast<uint64_t>(params.queue_entries) <
              kCompletionRing - kMaxDepDistance,
              "queue larger than the completion ring supports");
    queue_.reserve(static_cast<size_t>(params.queue_entries));
}

Cycles
CoreModel::completionOf(uint64_t index) const
{
    return completion_[index % kCompletionRing];
}

void
CoreModel::recordCompletion(uint64_t index, Cycles at)
{
    completion_[index % kCompletionRing] = at;
}

void
CoreModel::attachMetrics(obs::CounterRegistry &registry,
                         const std::string &prefix)
{
    metrics_ = std::make_unique<Metrics>(Metrics{
        &registry.counter(prefix + "cycles"),
        &registry.counter(prefix + "issued_instructions"),
        &registry.counter(prefix + "dispatched_instructions"),
        &registry.counter(prefix + "dispatch_stall_cycles"),
        &registry.histogram(prefix + "occupancy", 0.0, kOccupancyHistMax,
                            kOccupancyHistBins)});
}

bool
CoreModel::fetchOp(MicroOp &op)
{
    if (fetch_pos_ == fetch_len_) {
        if (exhausted_)
            return false;
        fetch_len_ = stream_.nextBatch(fetch_buf_.data(), kFetchBatch);
        fetch_pos_ = 0;
        if (fetch_len_ < kFetchBatch)
            exhausted_ = true;
        if (fetch_len_ == 0)
            return false;
    }
    op = fetch_buf_[fetch_pos_++];
    return true;
}

void
CoreModel::tick()
{
    ++cycle_;

    // --- Wakeup + select (atomic within the cycle; oldest first). ---
    // The scan stops once the issue width is spent.  An entry it
    // skips would at most resolve its ready cycle from its producers'
    // completion cycles, which stay fixed while it is queued (the
    // residency assert at dispatch keeps their ring slots live), so
    // resolving it on a later cycle gives the same value.
    int issued_this_cycle = 0;
    // Earliest ready cycle among the entries left waiting.
    Cycles next_ready = kNotIssued;
    for (size_t i = head_;
         i < queue_.size() && issued_this_cycle < params_.issue_width;
         ++i) {
        QueueEntry &entry = queue_[i];
        if (entry.issued)
            continue;
        if (entry.ready_at == kNotIssued) {
            // Sources still in flight when last checked; re-resolve.
            Cycles c1 = entry.src1 == kNoSource ? 0 : completionOf(entry.src1);
            Cycles c2 = entry.src2 == kNoSource ? 0 : completionOf(entry.src2);
            if (c1 != kNotIssued && c2 != kNotIssued)
                entry.ready_at = std::max(c1, c2);
        }
        if (entry.ready_at != kNotIssued && entry.ready_at <= cycle_) {
            entry.issued = true;
            recordCompletion(entry.index, cycle_ + entry.latency);
            ++issued_;
            ++issued_this_cycle;
        } else {
            next_ready = std::min(next_ready, entry.ready_at);
        }
    }

    // --- Reclaim queue entries. ---
    if (params_.free_at_issue) {
        // Collapsing queue: any issued entry frees immediately (head_
        // stays 0 in this mode).
        std::erase_if(queue_, [](const QueueEntry &e) { return e.issued; });
    } else {
        // RUU: free the issued prefix in program order by advancing
        // the head; the dead prefix is compacted away once it is as
        // long as the live queue, so each entry moves O(1) times.
        while (head_ < queue_.size() && queue_[head_].issued)
            ++head_;
        if (head_ > 0 && head_ >= queue_.size() - head_) {
            queue_.erase(queue_.begin(),
                         queue_.begin() + static_cast<ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    // --- Dispatch into freed slots (new arrivals wake up next cycle). ---
    int dispatched_this_cycle = 0;
    while (dispatched_this_cycle < params_.dispatch_width &&
           occupancy() < params_.queue_entries) {
        if (head_ < queue_.size()) {
            capAssert(dispatched_ - queue_[head_].index <
                      kCompletionRing - kMaxDepDistance,
                      "completion ring too small for queue residency");
        }
        MicroOp op;
        if (!fetchOp(op))
            break;
        QueueEntry entry;
        entry.index = dispatched_;
        entry.latency = op.latency;
        entry.src1 = op.src1_dist ? dispatched_ - op.src1_dist : kNoSource;
        entry.src2 = op.src2_dist ? dispatched_ - op.src2_dist : kNoSource;
        if (params_.dep_break_prob > 0.0) {
            // A confident value prediction supplies the operand at
            // dispatch: the dependence edge disappears.
            if (entry.src1 != kNoSource &&
                rng_.chance(params_.dep_break_prob)) {
                entry.src1 = kNoSource;
            }
            if (entry.src2 != kNoSource &&
                rng_.chance(params_.dep_break_prob)) {
                entry.src2 = kNoSource;
            }
        }
        entry.ready_at = kNotIssued;
        entry.issued = false;
        // A source that already completed resolves immediately.
        Cycles c1 = entry.src1 == kNoSource ? 0 : completionOf(entry.src1);
        Cycles c2 = entry.src2 == kNoSource ? 0 : completionOf(entry.src2);
        if (c1 != kNotIssued && c2 != kNotIssued)
            entry.ready_at = std::max(c1, c2);
        recordCompletion(entry.index, kNotIssued);
        queue_.push_back(entry);
        ++dispatched_;
        ++dispatched_this_cycle;
    }

    // --- Idle fast-forward. ---
    // A cycle that issued and dispatched nothing scanned every queued
    // entry.  Each entry whose producers have all issued now knows its
    // ready cycle, all later than this one; the others wait on
    // producers that cannot issue before the earliest of those.  With
    // no issue nothing is reclaimed, so nothing dispatches either:
    // every cycle before next_ready repeats this one exactly, and is
    // counted here in one step.
    Cycles repeat = 1;
    if (issued_this_cycle == 0 && dispatched_this_cycle == 0 &&
        next_ready != kNotIssued && next_ready > cycle_ + 1) {
        repeat = next_ready - cycle_;
        cycle_ = next_ready - 1;
    }

    if (metrics_) {
        metrics_->cycles->add(repeat);
        metrics_->issued->add(static_cast<uint64_t>(issued_this_cycle));
        metrics_->dispatched->add(
            static_cast<uint64_t>(dispatched_this_cycle));
        if (dispatched_this_cycle < params_.dispatch_width &&
            occupancy() >= params_.queue_entries)
            metrics_->dispatch_stalls->add(repeat);
        metrics_->occupancy->add(static_cast<double>(occupancy()), repeat);
    }
}

void
CoreModel::seekTo(uint64_t index)
{
    capAssert(dispatched_ == 0 && cycle_ == 0,
              "seekTo must precede the first dispatch");
    dispatched_ = index;
    // Pre-history sources must resolve as already complete; without
    // this, a dependency crossing the seek point would read the
    // ring's never-issued sentinel and stall the wakeup loop forever.
    std::fill(completion_.begin(), completion_.end(), 0);
}

RunResult
CoreModel::step(uint64_t instructions)
{
    RunResult result;
    uint64_t target = issued_ + instructions;
    Cycles start = cycle_;
    while (issued_ < target) {
        uint64_t before = issued_;
        tick();
        if (issued_ == before && occupancy() == 0)
            fatal("instruction source exhausted at %llu issued "
                  "instructions (step target %llu)",
                  static_cast<unsigned long long>(issued_),
                  static_cast<unsigned long long>(target));
    }
    result.instructions = instructions;
    result.cycles = cycle_ - start;
    return result;
}

Cycles
CoreModel::resize(int new_entries)
{
    capAssert(new_entries >= 1, "queue must keep at least one entry");
    if (new_entries >= params_.queue_entries) {
        params_.queue_entries = new_entries;
        return 0;
    }
    // Shrink: the entries in the portion to be disabled must first
    // issue (paper Section 5.1).  Lowering the capacity immediately
    // stalls dispatch (occupancy exceeds capacity) until the excess
    // entries have issued.
    Cycles start = cycle_;
    params_.queue_entries = new_entries;
    while (occupancy() > new_entries)
        tick();
    return cycle_ - start;
}

namespace {

/**
 * Shared fastProfile inner loop: fold @p count ops (first op has
 * absolute index @p start_index) into the completion ring and the
 * running critical-path length.
 */
void
profileOps(std::vector<Cycles> &completion, Cycles &critical_path,
           const MicroOp *ops, uint64_t count, uint64_t start_index)
{
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t index = start_index + i;
        const MicroOp &op = ops[i];
        Cycles ready = 0;
        if (op.src1_dist)
            ready = completion[(index - op.src1_dist) % kMaxDepDistance];
        if (op.src2_dist)
            ready = std::max(
                ready,
                completion[(index - op.src2_dist) % kMaxDepDistance]);
        const Cycles done = ready + op.latency;
        completion[index % kMaxDepDistance] = done;
        critical_path = std::max(critical_path, done);
    }
}

} // namespace

RunResult
fastProfile(OpSource &stream, uint64_t instructions)
{
    // Completion ring indexed by instruction number.  Dependency
    // distances never exceed kMaxDepDistance, and both sources are
    // read before this instruction's completion is written, so even a
    // same-slot alias at distance exactly kMaxDepDistance reads the
    // producer's value.  Instructions generated before the first one
    // profiled are treated as complete at cycle 0.
    std::vector<Cycles> completion(kMaxDepDistance, 0);
    Cycles critical_path = 0;
    const uint64_t start = stream.position();
    // Batched generation; consumes exactly `instructions` ops so the
    // stream position stays aligned with the profiled window.
    MicroOp batch[256];
    for (uint64_t done_ops = 0; done_ops < instructions;) {
        uint64_t chunk = std::min<uint64_t>(instructions - done_ops,
                                            std::size(batch));
        uint64_t got = stream.nextBatch(batch, chunk);
        profileOps(completion, critical_path, batch,
                   got, start + done_ops);
        done_ops += got;
        if (got < chunk)
            fatal("instruction source exhausted after %llu of %llu "
                  "profiled instructions",
                  static_cast<unsigned long long>(done_ops),
                  static_cast<unsigned long long>(instructions));
    }
    RunResult result;
    result.instructions = instructions;
    result.cycles = critical_path;
    return result;
}

RunResult
fastProfileBuffer(const MicroOp *ops, uint64_t count, uint64_t start_index)
{
    std::vector<Cycles> completion(kMaxDepDistance, 0);
    Cycles critical_path = 0;
    profileOps(completion, critical_path, ops, count, start_index);
    RunResult result;
    result.instructions = count;
    result.cycles = critical_path;
    return result;
}

} // namespace cap::ooo
