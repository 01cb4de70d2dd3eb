#include "window_sweep.h"

#include <algorithm>

#include "util/status.h"

namespace cap::ooo {

namespace {

/** Shared op-ring capacity and lockstep chunk.  A lane dispatches at
 *  most (target + issue_width + queue_entries) ops before its issued
 *  count reaches target, so with every lane within one chunk of the
 *  sync point the live ring window stays well inside the ring. */
constexpr uint64_t kRingOps = 16384;
constexpr uint64_t kChunk = 8192;

uint64_t
nextPow2(uint64_t n)
{
    uint64_t p = 2;
    while (p < n)
        p *= 2;
    return p;
}

} // namespace

// --------------------------------------------------------------------
// WindowLane
// --------------------------------------------------------------------

WindowLane::WindowLane(int queue_entries, int dispatch_width,
                       int issue_width, uint64_t base_index)
    : queue_entries_(queue_entries), dispatch_width_(dispatch_width),
      issue_width_(issue_width), base_(base_index),
      next_index_(base_index)
{
    capAssert(queue_entries >= 1, "queue must have entries");
    capAssert(dispatch_width >= 1 && issue_width >= 1,
              "machine widths must be positive");

    // Op i's dispatch reads the reclaim cycle of op i - Q.
    uint64_t reclaim_size = nextPow2(static_cast<uint64_t>(queue_entries));
    reclaim_mask_ = reclaim_size - 1;
    reclaim_at_.resize(reclaim_size, 0);

    // Sources reach at most kMaxDepDistance back, so a deeper ring
    // still holds every producer an op can name.  A slot no in-run op
    // has written reads 0: a source before the base index counts as
    // complete at cycle 0, matching CoreModel::seekTo().
    uint64_t completion_size = nextPow2(kMaxDepDistance + 1);
    completion_mask_ = completion_size - 1;
    completion_.resize(completion_size, 0);

    counts_.resize(256);
    counts_mask_ = counts_.size() - 1;

    occ_counts_.resize(static_cast<size_t>(queue_entries) + 1, 0);
}

void
WindowLane::addMark(uint64_t issue_target)
{
    capAssert(issue_target > issued_count_,
              "issue mark must be ahead of the issued count");
    capAssert(mark_targets_.empty() ||
                  issue_target > mark_targets_.back(),
              "issue marks must be strictly increasing");
    mark_targets_.push_back(issue_target);
}

WindowLane::CycleCounts &
WindowLane::countsAt(Cycles cycle)
{
    if (cycle - tick_ > counts_.size())
        growCounts(cycle);
    return counts_[cycle & counts_mask_];
}

void
WindowLane::growCounts(Cycles cycle)
{
    // The ring holds cycles tick_ + 1 .. tick_ + size; re-slot them.
    size_t want = counts_.size();
    while (cycle - tick_ > want)
        want *= 2;
    std::vector<CycleCounts> grown(want);
    for (Cycles c = tick_ + 1; c <= tick_ + counts_.size(); ++c)
        grown[c & (want - 1)] = counts_[c & counts_mask_];
    counts_ = std::move(grown);
    counts_mask_ = want - 1;
}

void
WindowLane::place(const MicroOp &op)
{
    // Dispatched in cycle t = tick_ + 1, after that cycle's issue
    // phase, so the op is eligible from t + 1 on, and from the cycle
    // each source completes.
    const uint64_t index = next_index_;
    Cycles eligible = tick_ + 2;
    if (op.src1_dist)
        eligible = std::max(
            eligible, completion_[(index - op.src1_dist) & completion_mask_]);
    if (op.src2_dist)
        eligible = std::max(
            eligible, completion_[(index - op.src2_dist) & completion_mask_]);

    // Oldest-first select: every older op is placed, so the op issues
    // in the first cycle from `eligible` on that older ops left short
    // of the issue width.
    Cycles issue = eligible;
    while (countsAt(issue).issued == static_cast<uint32_t>(issue_width_))
        ++issue;
    ++countsAt(issue).issued;
    completion_[index & completion_mask_] = issue + op.latency;

    // RUU order: reclaimed once it and every older op have issued.
    last_reclaim_ = std::max(last_reclaim_, issue);
    ++countsAt(last_reclaim_).reclaimed;
    reclaim_at_[index & reclaim_mask_] = last_reclaim_;

    // The next op dispatches in this cycle unless the width is spent,
    // and not before the op Q older than it is reclaimed.
    ++next_index_;
    ++dispatched_now_;
    next_dispatch_ = tick_ + 1 + (dispatched_now_ == dispatch_width_);
    uint64_t q = static_cast<uint64_t>(queue_entries_);
    if (next_index_ - base_ >= q)
        next_dispatch_ = std::max(
            next_dispatch_, reclaim_at_[(next_index_ - q) & reclaim_mask_]);
}

void
WindowLane::finishCycle()
{
    ++tick_;
    CycleCounts &counts = counts_[tick_ & counts_mask_];
    issued_count_ += counts.issued;
    // Reclaim precedes dispatch within a cycle; the histogram samples
    // the occupancy after both.
    occupancy_ = occupancy_ - counts.reclaimed + dispatched_now_;
    if (dispatched_now_ < dispatch_width_ &&
        occupancy_ >= static_cast<uint64_t>(queue_entries_))
        ++stall_cycles_;
    ++occ_counts_[occupancy_];
    counts = CycleCounts{};
    dispatched_now_ = 0;
    while (next_mark_ < mark_targets_.size() &&
           issued_count_ >= mark_targets_[next_mark_]) {
        mark_ticks_.push_back(tick_);
        ++next_mark_;
    }
}

void
WindowLane::placeDue(const MicroOp *ring, uint64_t ring_mask,
                     uint64_t avail_end, bool exhausted)
{
    // The counts of cycle t are final once every op dispatched by t is
    // placed: a later op issues and is reclaimed after t.
    while (next_dispatch_ <= tick_ + 1) {
        if (next_index_ == avail_end) {
            capAssert(exhausted, "window lane op ring underrun");
            break;
        }
        place(ring[next_index_ & ring_mask]);
    }
}

void
WindowLane::advanceTo(uint64_t issue_target, const MicroOp *ring,
                      uint64_t ring_mask, uint64_t avail_end,
                      bool exhausted)
{
    while (issued_count_ < issue_target) {
        placeDue(ring, ring_mask, avail_end, exhausted);
        if (issued_count_ == next_index_ - base_)
            fatal("instruction source exhausted at %llu issued "
                  "instructions (advance target %llu)",
                  static_cast<unsigned long long>(issued_count_),
                  static_cast<unsigned long long>(issue_target));
        finishCycle();
    }
}

Cycles
WindowLane::resize(int queue_entries, const MicroOp *ring,
                   uint64_t ring_mask, uint64_t avail_end, bool exhausted)
{
    capAssert(queue_entries >= 1, "queue must keep at least one entry");
    const uint64_t q = static_cast<uint64_t>(queue_entries);
    if (q > reclaim_at_.size()) {
        // Op i - Q' must be in the ring.  Ops older than the old ring
        // were reclaimed by tick_ (the youngest placed op dispatched
        // by then, after op Q older than it), so their slots may read
        // 0: the next dispatch is after tick_ anyway.
        std::vector<Cycles> grown(nextPow2(q), 0);
        uint64_t first = next_index_ - std::min<uint64_t>(
                                           next_index_ - base_,
                                           reclaim_at_.size());
        for (uint64_t i = first; i < next_index_; ++i)
            grown[i & (grown.size() - 1)] = reclaim_at_[i & reclaim_mask_];
        reclaim_at_ = std::move(grown);
        reclaim_mask_ = reclaim_at_.size() - 1;
    }
    if (occ_counts_.size() < q + 1)
        occ_counts_.resize(q + 1, 0);
    queue_entries_ = queue_entries;

    // Cycle tick_ is closed, so op i dispatches after it, and not
    // before op i - Q' is reclaimed.  Placed ops keep their issue and
    // reclaim cycles: neither depends on the queue size.
    next_dispatch_ = tick_ + 1;
    if (next_index_ - base_ >= q)
        next_dispatch_ = std::max(
            next_dispatch_, reclaim_at_[(next_index_ - q) & reclaim_mask_]);

    // A shrink stalls dispatch until the occupancy fits (the drain's
    // last cycle may dispatch into the space it frees).
    const Cycles start = tick_;
    while (occupancy_ > q) {
        placeDue(ring, ring_mask, avail_end, exhausted);
        finishCycle();
    }
    return tick_ - start;
}

// --------------------------------------------------------------------
// WindowSweeper
// --------------------------------------------------------------------

WindowSweeper::WindowSweeper(OpSource &source, const CoreParams &base,
                             const std::vector<int> &sizes)
    : source_(source), base_params_(base), ring_(kRingOps),
      ring_mask_(kRingOps - 1)
{
    capAssert(base.dep_break_prob == 0.0,
              "WindowSweeper needs dep_break_prob == 0 (value prediction "
              "breaks the one-pass dataflow argument)");
    capAssert(!base.free_at_issue,
              "WindowSweeper models the RUU (free-in-order) machine");
    base_ = source.position();
    produced_ = base_;
    for (int entries : sizes)
        if (findLane(entries) == lanes_.size())
            addLane(entries);
    live_lane_ = findLane(base.queue_entries);
    live_in_ladder_ = live_lane_ < lanes_.size();
    if (!live_in_ladder_)
        addLane(base.queue_entries);
}

WindowSweeper::~WindowSweeper() = default;

size_t
WindowSweeper::findLane(int entries) const
{
    size_t lane = 0;
    while (lane < lanes_.size() && lanes_[lane]->queueEntries() != entries)
        ++lane;
    return lane;
}

void
WindowSweeper::addLane(int entries)
{
    lanes_.push_back(std::make_unique<WindowLane>(
        entries, base_params_.dispatch_width, base_params_.issue_width,
        base_));
    admitEntries(entries);
}

void
WindowSweeper::admitEntries(int entries)
{
    max_entries_ = std::max(max_entries_, entries);
    capAssert(std::max(kChunk, reserved_span_) +
                      static_cast<uint64_t>(max_entries_) +
                      static_cast<uint64_t>(base_params_.issue_width) + 1 <=
                  ring_.size(),
              "queue ladder too large for the shared op ring");
}

void
WindowSweeper::reserveSpan(uint64_t span)
{
    capAssert(produced_ == base_, "reserveSpan must precede any advance");
    reserved_span_ = std::max(reserved_span_, span);
    uint64_t need = reserved_span_ + static_cast<uint64_t>(max_entries_) +
                    static_cast<uint64_t>(base_params_.issue_width) + 2;
    if (need <= ring_.size())
        return;
    ring_.assign(nextPow2(need), MicroOp{});
    ring_mask_ = ring_.size() - 1;
}

int
WindowSweeper::laneEntries(size_t lane) const
{
    return lanes_.at(lane)->queueEntries();
}

uint64_t
WindowSweeper::laneIssued(size_t lane) const
{
    return lanes_.at(lane)->issued();
}

Cycles
WindowSweeper::laneCycles(size_t lane) const
{
    return lanes_.at(lane)->cycles();
}

void
WindowSweeper::addLaneMark(size_t lane, uint64_t issue_target)
{
    lanes_.at(lane)->addMark(issue_target);
}

const std::vector<Cycles> &
WindowSweeper::laneMarkTicks(size_t lane) const
{
    return lanes_.at(lane)->markTicks();
}

void
WindowSweeper::ensureOps(uint64_t upto)
{
    // Overwrite guard: a slot recycled by the producer must already
    // have been dispatched by every lane (a lane copies everything it
    // needs out of the ring at dispatch).  Only per-lane advancement
    // can spread lanes far enough to trip this; reserveSpan() sizes
    // the ring for the expected spread.
    if (upto > base_ + ring_.size()) {
        uint64_t floor = upto - ring_.size();
        for (const auto &lane : lanes_)
            capAssert(lane->nextIndex() >= floor,
                      "shared op ring too small for the lane spread "
                      "(reserveSpan() before advancing per lane)");
    }
    while (produced_ < upto && !exhausted_) {
        uint64_t slot = produced_ & ring_mask_;
        uint64_t contiguous =
            std::min(upto - produced_, ring_.size() - slot);
        uint64_t got = source_.nextBatch(ring_.data() + slot, contiguous);
        produced_ += got;
        if (got < contiguous)
            exhausted_ = true;
    }
}

void
WindowSweeper::advanceLaneTo(size_t lane, uint64_t target)
{
    WindowLane &l = *lanes_.at(lane);
    while (l.issued() < target) {
        uint64_t next = std::min(target, l.issued() + kChunk);
        ensureOps(base_ + next + static_cast<uint64_t>(max_entries_) +
                  static_cast<uint64_t>(base_params_.issue_width) + 1);
        l.advanceTo(next, ring_.data(), ring_mask_, produced_,
                    exhausted_);
    }
}

void
WindowSweeper::advanceAllTo(uint64_t target)
{
    while (last_sync_ < target) {
        uint64_t next = std::min(target, last_sync_ + kChunk);
        ensureOps(base_ + next + static_cast<uint64_t>(max_entries_) +
                  static_cast<uint64_t>(base_params_.issue_width) + 1);
        for (auto &lane : lanes_)
            lane->advanceTo(next, ring_.data(), ring_mask_, produced_,
                            exhausted_);
        last_sync_ = next;
    }
}

void
WindowSweeper::foldLaneMetrics(size_t lane, obs::CounterRegistry &registry,
                               const std::string &prefix) const
{
    const WindowLane &l = *lanes_.at(lane);
    registry.counter(prefix + "cycles").add(l.cycles());
    registry.counter(prefix + "issued_instructions").add(l.issued());
    registry.counter(prefix + "dispatched_instructions")
        .add(l.dispatched());
    registry.counter(prefix + "dispatch_stall_cycles")
        .add(l.stallCycles());
    obs::FixedHistogram &hist = registry.histogram(
        prefix + "occupancy", 0.0, CoreModel::kOccupancyHistMax,
        CoreModel::kOccupancyHistBins);
    const std::vector<uint64_t> &occ = l.occupancyCounts();
    for (size_t value = 0; value < occ.size(); ++value)
        if (occ[value])
            hist.add(static_cast<double>(value), occ[value]);
}

int
WindowSweeper::queueEntries() const
{
    return lanes_[live_lane_]->queueEntries();
}

uint64_t
WindowSweeper::issuedInstructions() const
{
    return lanes_[live_lane_]->issued();
}

Cycles
WindowSweeper::cycleCount() const
{
    return lanes_[live_lane_]->cycles();
}

RunResult
WindowSweeper::step(uint64_t instructions)
{
    Cycles before = cycleCount();
    advanceAllTo(issuedInstructions() + instructions);
    RunResult result;
    result.instructions = instructions;
    result.cycles = cycleCount() - before;
    return result;
}

Cycles
WindowSweeper::resize(int new_entries)
{
    if (live_in_ladder_) {
        // The ladder lane keeps its size; the live machine continues
        // on a copy.
        lanes_.push_back(std::make_unique<WindowLane>(*lanes_[live_lane_]));
        live_lane_ = lanes_.size() - 1;
        live_in_ladder_ = false;
    }
    admitEntries(new_entries);
    WindowLane &live = *lanes_[live_lane_];
    // A drain dispatches only in its last cycle.
    ensureOps(live.nextIndex() +
              static_cast<uint64_t>(base_params_.dispatch_width));
    return live.resize(new_entries, ring_.data(), ring_mask_, produced_,
                       exhausted_);
}

} // namespace cap::ooo
