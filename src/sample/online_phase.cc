#include "online_phase.h"

#include <cmath>

#include "ooo/core_model.h"
#include "util/status.h"

namespace cap::sample {

std::vector<double>
ilpFeatures(const ooo::MicroOp *ops, uint64_t count, uint64_t start_index)
{
    capAssert(count > 0, "empty interval");
    // The floating-point sums depend on their order: accumulate in
    // program order.
    double sum_d1 = 0.0;
    double sum_d2 = 0.0;
    double sum_lat = 0.0;
    uint64_t with_src2 = 0;
    uint64_t long_lat = 0;
    for (uint64_t i = 0; i < count; ++i) {
        const ooo::MicroOp &op = ops[i];
        sum_d1 += static_cast<double>(op.src1_dist);
        sum_d2 += static_cast<double>(op.src2_dist);
        with_src2 += op.src2_dist ? 1 : 0;
        sum_lat += static_cast<double>(op.latency);
        long_lat += op.latency > 1 ? 1 : 0;
    }
    ooo::RunResult limit = ooo::fastProfileBuffer(ops, count, start_index);

    double n = static_cast<double>(count);
    return {sum_d1 / n,
            sum_d2 / n,
            static_cast<double>(with_src2) / n,
            sum_lat / n,
            static_cast<double>(long_lat) / n,
            limit.ipc()};
}

OnlinePhaseDetector::OnlinePhaseDetector(const OnlinePhaseParams &params)
    : params_(params)
{
    capAssert(params.distance_threshold > 0.0,
              "phase distance threshold must be positive");
    capAssert(params.max_phases >= 1, "phase table needs capacity");
    capAssert(params.centroid_alpha > 0.0 && params.centroid_alpha <= 1.0,
              "centroid_alpha must be in (0,1]");
}

OnlinePhaseDetector::OnlinePhaseDetector(const trace::IlpBehavior &behavior,
                                         uint64_t seed,
                                         const OnlinePhaseParams &params)
    : OnlinePhaseDetector(params)
{
    stream_.emplace(behavior, seed);
}

double
OnlinePhaseDetector::distanceTo(const std::vector<double> &x,
                                const std::vector<double> &centroid) const
{
    // Relative (Canberra-style) distance: each dimension's difference
    // is scaled by the mean magnitude of the two values, with a small
    // absolute floor so near-zero dimensions (fractions around a few
    // per mille) cannot blow a sampling wobble up to order one.
    constexpr double kScaleFloor = 0.01;
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        double scale =
            0.5 * (std::abs(x[i]) + std::abs(centroid[i])) + kScaleFloor;
        double d = (x[i] - centroid[i]) / scale;
        sum += d * d;
    }
    return std::sqrt(sum);
}

PhaseObservation
OnlinePhaseDetector::observe(uint64_t instructions)
{
    capAssert(stream_.has_value(),
              "observe() needs a detector built over a stream");
    ops_.resize(instructions);
    stream_->nextBatch(ops_.data(), instructions);
    return observeOps(ops_.data(), instructions);
}

PhaseObservation
OnlinePhaseDetector::observeOps(const ooo::MicroOp *ops, uint64_t count)
{
    capAssert(count > 0, "empty interval");
    std::vector<double> x = ilpFeatures(ops, count, position_);
    position_ += count;
    ++observed_;

    PhaseObservation obs;
    obs.previous = current_;
    if (centroids_.empty()) {
        centroids_.push_back(x);
        members_.push_back(1);
        obs.phase = 0;
        obs.new_phase = true;
        current_ = 0;
        return obs;
    }

    size_t nearest = 0;
    double best = distanceTo(x, centroids_[0]);
    for (size_t c = 1; c < centroids_.size(); ++c) {
        double d = distanceTo(x, centroids_[c]);
        // Strict < keeps the lowest phase ID on ties (determinism).
        if (d < best) {
            best = d;
            nearest = c;
        }
    }

    if (best > params_.distance_threshold &&
        centroids_.size() < params_.max_phases) {
        centroids_.push_back(x);
        members_.push_back(1);
        obs.phase = static_cast<int>(centroids_.size()) - 1;
        obs.new_phase = true;
        obs.distance = 0.0;
    } else {
        std::vector<double> &centroid = centroids_[nearest];
        for (size_t i = 0; i < x.size(); ++i) {
            centroid[i] += params_.centroid_alpha * (x[i] - centroid[i]);
        }
        ++members_[nearest];
        obs.phase = static_cast<int>(nearest);
        obs.distance = best;
    }
    obs.transition = obs.phase != current_;
    current_ = obs.phase;
    return obs;
}

} // namespace cap::sample
