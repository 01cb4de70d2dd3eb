#include "stream.h"

#include <algorithm>

#include "util/status.h"

namespace cap::trace {

namespace {

constexpr Addr kRegionAlignment = mib(1);

std::unique_ptr<Pattern>
makePattern(const PatternSpec &spec, Region region, uint64_t shuffle_seed)
{
    switch (spec.kind) {
      case PatternKind::ZipfResident:
        return std::make_unique<ZipfResident>(region, kBlockBytes,
                                              spec.zipf_s, shuffle_seed);
      case PatternKind::CyclicSweep:
        return std::make_unique<CyclicSweep>(region, kBlockBytes);
      case PatternKind::Stream:
        return std::make_unique<Stream>(region, kBlockBytes,
                                        spec.touches_per_block);
    }
    panic("unknown pattern kind");
}

} // namespace

SyntheticTraceSource::SyntheticTraceSource(const CacheBehavior &behavior,
                                           uint64_t seed, uint64_t limit)
    : write_fraction_(behavior.write_fraction),
      limit_(limit),
      rng_(seed)
{
    Addr next_base = kRegionAlignment;
    Rng shuffle_rng = rng_.split();

    auto build_phase = [&](const std::vector<PatternSpec> &mix,
                           uint64_t length_refs) {
        capAssert(!mix.empty(), "profile has an empty reference mix");
        Phase phase;
        phase.length_refs = length_refs;
        std::vector<double> weights;
        for (const PatternSpec &spec : mix) {
            capAssert(spec.region_bytes >= kBlockBytes,
                      "component region smaller than a block");
            Region region{next_base, spec.region_bytes};
            next_base += divCeil(spec.region_bytes, kRegionAlignment) *
                         kRegionAlignment;
            phase.patterns.push_back(
                makePattern(spec, region, shuffle_rng.next()));
            weights.push_back(spec.weight);
        }
        if (phase.patterns.size() > 1)
            phase.weight_prefix = Rng::weightPrefix(weights);
        phases_.push_back(std::move(phase));
    };

    if (behavior.phases.empty()) {
        build_phase(behavior.mix, UINT64_MAX);
    } else {
        for (const CachePhase &phase : behavior.phases) {
            capAssert(phase.length_refs > 0, "zero-length cache phase");
            build_phase(phase.mix, phase.length_refs);
        }
    }
}

SyntheticTraceSource::Cursor
SyntheticTraceSource::saveCursor() const
{
    Cursor cursor;
    cursor.phase = phase_;
    cursor.phase_left = phase_left_;
    cursor.produced = produced_;
    cursor.rng_state = rng_.saveState();
    for (const Phase &phase : phases_) {
        for (const auto &pattern : phase.patterns)
            pattern->saveCursor(cursor.pattern_state);
    }
    return cursor;
}

void
SyntheticTraceSource::restoreCursor(const Cursor &cursor)
{
    capAssert(cursor.phase < phases_.size(),
              "cursor phase index out of range");
    capAssert(cursor.phase_left <=
                  phases_[cursor.phase].length_refs,
              "cursor phase_left exceeds the phase length");
    phase_ = cursor.phase;
    phase_left_ = cursor.phase_left;
    produced_ = cursor.produced;
    rng_.restoreState(cursor.rng_state);
    // Shape check before any pattern reads its words: a cursor from a
    // differently-shaped source must not partially apply.
    std::vector<uint64_t> shape;
    for (const Phase &phase : phases_) {
        for (const auto &pattern : phase.patterns)
            pattern->saveCursor(shape);
    }
    capAssert(shape.size() == cursor.pattern_state.size(),
              "cursor pattern state shape mismatch");
    size_t consumed = 0;
    for (Phase &phase : phases_) {
        for (const auto &pattern : phase.patterns) {
            consumed += pattern->restoreCursor(
                cursor.pattern_state.data() + consumed);
        }
    }
}

bool
SyntheticTraceSource::next(TraceRecord &record)
{
    if (limit_ != 0 && produced_ >= limit_)
        return false;
    // Advance the phase schedule (single-phase profiles never switch).
    if (phase_left_ == 0)
        phase_left_ = phases_[phase_].length_refs;
    Phase &phase = phases_[phase_];
    size_t which = phase.patterns.size() == 1
                       ? 0
                       : rng_.weightedPrefix(phase.weight_prefix);
    record.addr = phase.patterns[which]->next(rng_);
    record.is_write = rng_.chance(write_fraction_);
    ++produced_;
    if (--phase_left_ == 0 && phases_.size() > 1)
        phase_ = (phase_ + 1) % phases_.size();
    return true;
}

uint64_t
SyntheticTraceSource::nextBatch(TraceRecord *out, uint64_t max)
{
    if (limit_ != 0) {
        uint64_t left = produced_ >= limit_ ? 0 : limit_ - produced_;
        if (max > left)
            max = left;
    }
    uint64_t n = 0;
    while (n < max) {
        if (phase_left_ == 0)
            phase_left_ = phases_[phase_].length_refs;
        Phase &phase = phases_[phase_];
        uint64_t chunk = std::min(max - n, phase_left_);
        // The Rng call order must match next() exactly (cursors and
        // replay depend on it): single-pattern phases skip the
        // weighted draw.
        if (phase.patterns.size() == 1) {
            Pattern &pattern = *phase.patterns[0];
            for (uint64_t i = 0; i < chunk; ++i, ++n) {
                out[n].addr = pattern.next(rng_);
                out[n].is_write = rng_.chance(write_fraction_);
            }
        } else {
            for (uint64_t i = 0; i < chunk; ++i, ++n) {
                size_t which = rng_.weightedPrefix(phase.weight_prefix);
                out[n].addr = phase.patterns[which]->next(rng_);
                out[n].is_write = rng_.chance(write_fraction_);
            }
        }
        produced_ += chunk;
        // Like next(), a depleted phase is left at zero and re-armed
        // lazily, so saved cursors are indistinguishable between the
        // batched and single-record paths.
        phase_left_ -= chunk;
        if (phase_left_ == 0 && phases_.size() > 1)
            phase_ = (phase_ + 1) % phases_.size();
    }
    return n;
}

} // namespace cap::trace
