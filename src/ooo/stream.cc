#include "stream.h"

#include <algorithm>

#include "util/status.h"

namespace cap::ooo {

InstructionStream::InstructionStream(const trace::IlpBehavior &behavior,
                                     uint64_t seed)
    : behavior_(behavior), rng_(seed)
{
    capAssert(!behavior_.phases.empty(), "IlpBehavior has no phases");
    capAssert(!behavior_.schedule.empty(), "IlpBehavior has no schedule");
    for (const trace::PhaseSegment &seg : behavior_.schedule) {
        capAssert(seg.phase >= 0 &&
                  static_cast<size_t>(seg.phase) < behavior_.phases.size(),
                  "segment references unknown phase %d", seg.phase);
        capAssert(seg.length_instrs > 0, "zero-length phase segment");
    }
    draws_.reserve(behavior_.phases.size());
    for (const trace::IlpPhase &phase : behavior_.phases) {
        for (int latency : {phase.short_lat_cycles, phase.long_lat_cycles})
            capAssert(latency >= 1 &&
                          static_cast<uint32_t>(latency) <= kMaxLatency,
                      "phase latency %d outside [1, %u]", latency,
                      kMaxLatency);
        PhaseDraw draw;
        draw.floor = std::max<uint32_t>(1, phase.min_dep_distance);
        const uint64_t cap = kMaxDepDistance - draw.floor;
        const double p1 = 1.0 / std::max(1.0, phase.mean_dep_distance);
        const double p2 = 1.0 / std::max(1.0, phase.mean_dep_distance2);
        if (p1 < 1.0)
            draw.gap1 = InverseTable::geometric(p1, cap);
        if (p2 < 1.0)
            draw.gap2 = InverseTable::geometric(p2, cap);
        draws_.push_back(std::move(draw));
    }
    segment_left_ = behavior_.schedule[0].length_instrs;
}

void
InstructionStream::advanceSegment()
{
    while (segment_left_ == 0) {
        segment_ = (segment_ + 1) % behavior_.schedule.size();
        segment_left_ = behavior_.schedule[segment_].length_instrs;
    }
}

int
InstructionStream::currentPhase() const
{
    return behavior_.schedule[segment_].phase;
}

InstructionStream::Cursor
InstructionStream::saveCursor() const
{
    Cursor cursor;
    cursor.position = position_;
    cursor.segment = segment_;
    cursor.segment_left = segment_left_;
    cursor.rng_state = rng_.saveState();
    return cursor;
}

void
InstructionStream::restoreCursor(const Cursor &cursor)
{
    capAssert(cursor.segment < behavior_.schedule.size(),
              "cursor segment index out of range");
    capAssert(cursor.segment_left <=
                  behavior_.schedule[cursor.segment].length_instrs,
              "cursor segment_left exceeds the segment length");
    position_ = cursor.position;
    segment_ = cursor.segment;
    segment_left_ = cursor.segment_left;
    rng_.restoreState(cursor.rng_state);
}

MicroOp
InstructionStream::next()
{
    advanceSegment();
    const trace::IlpPhase &phase = behavior_.phases[currentPhase()];

    MicroOp op;
    // Distances are a floor plus a geometric draw with the phase's
    // mean, clamped both by the generator cap and by the instructions
    // that actually exist before this one.
    uint64_t floor = std::max<uint32_t>(1, phase.min_dep_distance);
    double p1 = 1.0 / std::max(1.0, phase.mean_dep_distance);
    uint64_t d1 = floor + rng_.geometric(p1, kMaxDepDistance - floor);
    op.src1_dist = static_cast<uint32_t>(std::min<uint64_t>(
        d1, position_ == 0 ? 0 : std::min<uint64_t>(position_,
                                                    kMaxDepDistance)));

    if (position_ > 0 && rng_.chance(phase.second_src_prob)) {
        double p2 = 1.0 / std::max(1.0, phase.mean_dep_distance2);
        uint64_t d2 = floor + rng_.geometric(p2, kMaxDepDistance - floor);
        op.src2_dist = static_cast<uint32_t>(std::min<uint64_t>(
            d2, std::min<uint64_t>(position_, kMaxDepDistance)));
    }

    op.latency = rng_.chance(phase.long_lat_prob)
                     ? static_cast<uint32_t>(phase.long_lat_cycles)
                     : static_cast<uint32_t>(phase.short_lat_cycles);

    ++position_;
    --segment_left_;
    return op;
}

uint64_t
InstructionStream::nextBatch(MicroOp *out, uint64_t max)
{
    uint64_t n = 0;
    while (n < max) {
        advanceSegment();
        const trace::IlpPhase &phase = behavior_.phases[currentPhase()];
        const PhaseDraw &draw = draws_[currentPhase()];
        uint64_t chunk = std::min(max - n, segment_left_);
        // The RNG call sequence below matches next() exactly, so batch
        // and single-op generation stay cursor-equivalent.
        for (uint64_t i = 0; i < chunk; ++i) {
            MicroOp op;
            uint64_t d1 =
                draw.floor + (draw.gap1 ? draw.gap1->draw(rng_) : 0);
            op.src1_dist = static_cast<uint32_t>(std::min<uint64_t>(
                d1, position_ == 0
                        ? 0
                        : std::min<uint64_t>(position_,
                                             kMaxDepDistance)));
            if (position_ > 0 && rng_.chance(phase.second_src_prob)) {
                uint64_t d2 =
                    draw.floor + (draw.gap2 ? draw.gap2->draw(rng_) : 0);
                op.src2_dist = static_cast<uint32_t>(std::min<uint64_t>(
                    d2, std::min<uint64_t>(position_, kMaxDepDistance)));
            }
            op.latency =
                rng_.chance(phase.long_lat_prob)
                    ? static_cast<uint32_t>(phase.long_lat_cycles)
                    : static_cast<uint32_t>(phase.short_lat_cycles);
            ++position_;
            --segment_left_;
            out[n++] = op;
        }
    }
    return max;
}

} // namespace cap::ooo
