/**
 * @file
 * Online phase detection for the interval controller.
 *
 * The offline sampling pipeline (signature.h, cluster.h) profiles a
 * whole run up front, z-scores the interval signatures, and clusters
 * them with k-medoids.  A live controller cannot afford the pre-pass:
 * it sees the run one interval at a time and must label each interval
 * with a phase ID *as it retires*.  OnlinePhaseDetector is the
 * streaming counterpart:
 *
 *  - the per-interval features are the same ILP moments the offline
 *    extractor computes (ilpFeatures(): mean dependency distances,
 *    two-source fraction, latency moments, dataflow-limit IPC), folded
 *    from each interval's ops in program order.  The interval
 *    controller hands the detector the ops its own core already
 *    generated (observeOps()); observe() generates them from a private
 *    stream instead, for callers without a core.  The features depend
 *    only on the instruction mix -- never on the queue size the
 *    controller is currently running -- so probing does not perturb
 *    the phase IDs;
 *  - the offline z-score normalization is replaced by a *relative*
 *    (Canberra-style) distance: each dimension's difference is scaled
 *    by the mean magnitude of the two values compared.  A whole-run
 *    z-score needs the whole run; any running estimate of it is
 *    treacherous online -- before the second behaviour appears, the
 *    running variance IS the within-phase noise, so early intervals
 *    all sit ~sqrt(dims) "standard deviations" apart and the detector
 *    shatters the first phase into noise clusters it never recovers
 *    from.  Relative distance is stationary from the first interval:
 *    within-phase sampling noise stays small (percent-level per
 *    dimension) and distinct behaviours differ by order one,
 *    independent of what has been observed so far;
 *  - clustering is leader-follower (the classic streaming variant of
 *    k-medoids): assign an interval to the nearest existing centroid
 *    when it is within distance_threshold, otherwise open a new
 *    phase, up to max_phases.
 *
 * Everything is pure arithmetic over the deterministic generator --
 * no RNG, no wall clock -- so the phase sequence is bit-identical
 * across runs and platforms (the same contract as the offline
 * clusterer; see docs/MODEL.md section 13 for the state machine this
 * detector drives).
 */

#ifndef CAPSIM_SAMPLE_ONLINE_PHASE_H
#define CAPSIM_SAMPLE_ONLINE_PHASE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "ooo/stream.h"
#include "trace/profile.h"

namespace cap::sample {

/**
 * The ILP feature vector of one interval of @p count > 0 ops whose
 * first op has absolute index @p start_index: mean dependency
 * distances, two-source fraction, latency moments and the
 * dataflow-limit IPC of ooo::fastProfileBuffer().  Shared by
 * OnlinePhaseDetector and the offline profilers (signature.h).
 */
std::vector<double> ilpFeatures(const ooo::MicroOp *ops, uint64_t count,
                                uint64_t start_index);

/** Tunables of the streaming clusterer. */
struct OnlinePhaseParams
{
    /**
     * Leader-follower assignment radius, in relative-distance units
     * (see distanceTo()).  Within-phase sampling noise at the
     * controller's interval length sits around 0.1-0.3 with rare
     * spikes near 0.8; distinct behaviours differ by 1.5 or more.
     * Smaller values split phases more eagerly (a single noise spike
     * past the radius opens a duplicate centroid and assignments then
     * flip between the two forever); larger values merge
     * near-identical behaviour.
     */
    double distance_threshold = 1.0;
    /** Phase-table capacity; beyond it intervals snap to the nearest
     *  existing phase regardless of distance. */
    size_t max_phases = 16;
    /** EWMA weight folding an assigned interval into its centroid. */
    double centroid_alpha = 0.25;
};

/** What observe() concluded about one interval. */
struct PhaseObservation
{
    /** Phase ID assigned to the interval (dense, starting at 0). */
    int phase = 0;
    /** Phase of the previous interval; -1 for the first interval. */
    int previous = -1;
    /** True when phase != previous (never set on the first interval). */
    bool transition = false;
    /** True when the interval opened a new phase. */
    bool new_phase = false;
    /** Relative distance to the assigned centroid. */
    double distance = 0.0;
};

/** Streaming phase labeller over one application's ILP behaviour. */
class OnlinePhaseDetector
{
  public:
    /** A detector fed through observeOps() only. */
    explicit OnlinePhaseDetector(const OnlinePhaseParams &params = {});

    /** A detector that also generates its own ops for observe(), from
     *  (@p behavior, @p seed) -- the same generator arguments the
     *  controller's core model consumes. */
    OnlinePhaseDetector(const trace::IlpBehavior &behavior, uint64_t seed,
                        const OnlinePhaseParams &params = {});

    /**
     * Fold the interval's @p count > 0 ops @p ops, the next ones in
     * program order, into a feature vector and assign its phase.
     * Call once per controller interval, in execution order.
     */
    PhaseObservation observeOps(const ooo::MicroOp *ops, uint64_t count);

    /**
     * observeOps() over the next @p instructions ops of the detector's
     * own stream (the behavior/seed constructor only).
     */
    PhaseObservation observe(uint64_t instructions);

    /** Phase of the most recent interval; -1 before any observation. */
    int currentPhase() const { return current_; }

    /** Distinct phases discovered so far. */
    size_t phaseCount() const { return centroids_.size(); }

    /** Intervals folded so far. */
    uint64_t intervalsObserved() const { return observed_; }

  private:
    double distanceTo(const std::vector<double> &x,
                      const std::vector<double> &centroid) const;

    OnlinePhaseParams params_;
    /** observe()'s generator and its interval buffer. */
    std::optional<ooo::InstructionStream> stream_;
    std::vector<ooo::MicroOp> ops_;
    /** Absolute index of the next op observed. */
    uint64_t position_ = 0;
    uint64_t observed_ = 0;
    /** Centroids in raw feature space; distances are relative. */
    std::vector<std::vector<double>> centroids_;
    std::vector<uint64_t> members_;
    int current_ = -1;
};

} // namespace cap::sample

#endif // CAPSIM_SAMPLE_ONLINE_PHASE_H
