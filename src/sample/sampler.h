/**
 * @file
 * Checkpointed sampled simulation: plan, replay, reconstruct.
 *
 * The pipeline (docs/SAMPLING.md):
 *
 *  1. profile the whole run into per-interval signatures (signature.h;
 *     generation + arithmetic only, no simulator runs);
 *  2. cluster the intervals with deterministic k-medoids (cluster.h);
 *  3. replay only the representatives: restore the generator cursor a
 *     configurable warmup before each representative, simulate the
 *     warmup to re-establish cache/queue state, then measure the
 *     representative interval.  The cache side replays one
 *     configuration's representatives in temporal order through a
 *     single hierarchy (stale-state warmup): a cold prefix measured
 *     exactly captures the run's cold-start transient, and the rest
 *     inherit the resident set across the fast-forwarded gaps and
 *     only need a short recency warmup;
 *  4. reconstruct whole-run TPI / IPC / miss rates as the
 *     cluster-weighted combination of the medoid measurements, with a
 *     stratified-sampling confidence interval whose per-cluster spread
 *     comes from a second "variance probe" representative (the member
 *     farthest from the medoid).
 *
 * CacheSampler / IqSampler bind the pipeline to the paper's two study
 * sides.  measureConfig() / measureRep() are const and touch only
 * locals, so distinct configurations (cache) or representatives (IQ)
 * can be measured concurrently (the study runners fan them across the
 * PR-1 thread pool); reconstruct() is a serial, deterministic
 * reduction over the measurement vector.
 */

#ifndef CAPSIM_SAMPLE_SAMPLER_H
#define CAPSIM_SAMPLE_SAMPLER_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/exclusive_hierarchy.h"
#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "sample/cluster.h"
#include "sample/signature.h"
#include "trace/profile.h"

namespace cap::sample {

/** Knobs of the sampling pipeline. */
struct SampleParams
{
    /** Interval length, references (cache) or instructions (IQ). */
    uint64_t interval_len = 5000;
    /** Cluster count k; clamped to the interval count. */
    size_t clusters = 8;
    /** Warmup simulated before each representative (same unit as
     *  interval_len); rounded up to whole intervals.  On the cache
     *  side this is only a *recency* fix-up: representatives of one
     *  configuration are replayed in temporal order sharing a single
     *  hierarchy, so each one inherits the stale-but-resident state
     *  left by its predecessor (docs/SAMPLING.md).  CacheSampler
     *  treats this as a floor and raises it to the profile's measured
     *  90th-percentile block reuse gap, capped at 8x this value
     *  (CacheSampler::effectiveWarmupRefs()).  Queue state warms in a
     *  few hundred instructions, so IQ-side runs can lower it. */
    uint64_t warmup_len = 20000;
    /** Cold-prefix span (cache side): the run's first
     *  ceil(cold_prefix_len / interval_len) intervals are simulated
     *  from the same cold hierarchy the full run starts with and kept
     *  as *exact* per-interval measurements carrying their own weight.
     *  This captures the run's cold-start transient -- which cluster
     *  representatives, measured warm, systematically miss -- and
     *  leaves the replay chain fully warm where the sampled region
     *  begins.  Paid once per configuration; ignored by the IQ side
     *  (queue state has no comparable transient). */
    uint64_t cold_prefix_len = 50000;
    /** Voronoi-iteration cap of the clusterer. */
    int max_sweeps = 16;
    /** Normal quantile of the confidence interval (1.96 = 95%). */
    double confidence_z = 1.96;
    /** Seeds the k-medoids++ initialization. */
    uint64_t cluster_seed = 0xCA97;
    /** Also simulate a variance probe per multi-member cluster. */
    bool variance_probes = true;

    bool operator==(const SampleParams &) const = default;
};

/** One interval the replayer must simulate. */
struct Representative
{
    /** Interval ordinal in the profile. */
    size_t interval = 0;
    /** Cluster it represents. */
    int cluster = 0;
    /** References/instructions its cluster covers in the full run
     *  (0 for variance probes, which carry no estimate weight). */
    uint64_t weight = 0;
    /** True for the variance probe (farthest member from medoid). */
    bool probe = false;
};

/** The sampling plan of one application side. */
struct SamplePlan
{
    uint64_t total_len = 0;
    uint64_t interval_len = 0;
    size_t num_intervals = 0;
    /** Cold-prefix intervals measured exactly (cache side; 0 when
     *  disabled).  Prefix intervals carry their own weight and are
     *  excluded from cluster weights, medoid anchoring and probe
     *  selection. */
    size_t prefix_intervals = 0;
    Clustering clustering;
    /** Medoids first (one per cluster, in cluster order), then
     *  probes, then cold-prefix intervals. */
    std::vector<Representative> reps;
};

/**
 * Build the plan: normalize a copy of @p signatures, cluster, and
 * derive the representative list with cluster weights in run units.
 * When @p cold_prefix_len > 0 the run's first
 * ceil(cold_prefix_len / interval_len) intervals become exact
 * cold-prefix representatives: they keep their own weight, are removed
 * from cluster weights, and medoids/probes are re-anchored onto
 * non-prefix members (a cluster living entirely inside the prefix
 * keeps its medoid with zero weight).
 */
SamplePlan planFromSignatures(const std::vector<IntervalSignature> &signatures,
                              uint64_t total_len, uint64_t interval_len,
                              const SampleParams &params,
                              uint64_t cold_prefix_len = 0);

/** Raw outcome of replaying one representative (cache side). */
struct CacheRepMeasurement
{
    /** Hierarchy stats of the measured interval (warmup excluded). */
    cache::CacheStats stats;
    /** References simulated to warm the hierarchy. */
    uint64_t warmup_refs = 0;
};

/** Sampled estimate of one (app, boundary) cell. */
struct SampledCachePerf
{
    /** Reconstructed whole-run performance (CachePerf shape). */
    core::CachePerf perf;
    /** 95% (confidence_z) interval around perf.tpi_ns. */
    double tpi_lo_ns = 0.0;
    double tpi_hi_ns = 0.0;
    /** References actually simulated (measurement + warmup). */
    uint64_t simulated_refs = 0;
};

/** Sampled evaluation of one application's cache side. */
class CacheSampler
{
  public:
    /**
     * Profiles and clusters @p refs references of @p app; the
     * expensive per-configuration simulation happens later in
     * measureRep().
     */
    CacheSampler(const core::AdaptiveCacheModel &model,
                 const trace::AppProfile &app, uint64_t refs,
                 const SampleParams &params);

    /**
     * File-backed variant: profiles and clusters the din-format trace
     * at @p trace_path (`capsim gen-trace` output, or any real address
     * trace) instead of the synthetic generator; the replayer then
     * fast-forwards via file offsets (trace::FileTraceSource::Cursor).
     * @p app still supplies refs_per_instr for reconstruction and the
     * cache geometry context; its synthetic cache behaviour is unused.
     */
    CacheSampler(const core::AdaptiveCacheModel &model,
                 const trace::AppProfile &app,
                 const std::string &trace_path,
                 const SampleParams &params);

    const SamplePlan &plan() const { return plan_; }
    const CacheIntervalProfile &profile() const { return profile_; }
    size_t repCount() const { return plan_.reps.size(); }

    /**
     * Replay every representative under boundary @p l1_increments, in
     * temporal order, sharing one hierarchy (stale-state warmup): the
     * cold-prefix intervals start the chain at reference zero from the
     * same cold hierarchy the full run sees; each later representative
     * keeps the resident set left by its predecessor across the
     * fast-forwarded gap and only simulates a short recency warmup
     * (warmup_len).  Stats are reset before each measured interval.
     * Pure function of its arguments -- distinct (config) calls may
     * run on different threads.  Returns the measurements in plan
     * order (not temporal order).
     */
    std::vector<CacheRepMeasurement> measureConfig(int l1_increments)
        const;

    /**
     * One-pass counterpart of measureConfig() for a whole boundary
     * sweep: the replay sequence (temporal order, cursor jumps,
     * warmups, measured intervals) does not depend on the boundary, so
     * a single stack-distance chain (cache::StackSimulator) replays it
     * once and reconstructs, for every boundary k in
     * [1, max_l1_increments], measurements bit-identical to
     * measureConfig(k).  Returns [k-1][rep slot].
     */
    std::vector<std::vector<CacheRepMeasurement>>
    measureAllConfigs(int max_l1_increments) const;

    /**
     * Warmup actually replayed before each representative, references:
     * the configured floor params.warmup_len, raised to the profile's
     * measured 90th-percentile block reuse gap (capped at 8x the floor
     * to bound replay cost).  Long-reuse workloads thus get the deeper
     * warmup they need instead of the one-size default.
     */
    uint64_t effectiveWarmupRefs() const { return effective_warmup_len_; }

    /** Serial reduction of all representatives' measurements. */
    SampledCachePerf
    reconstruct(int l1_increments,
                const std::vector<CacheRepMeasurement> &meas) const;

    /** Convenience: measure every representative, then reconstruct. */
    SampledCachePerf evaluate(int l1_increments) const;

  private:
    const core::AdaptiveCacheModel *model_;
    trace::AppProfile app_;
    SampleParams params_;
    CacheIntervalProfile profile_;
    SamplePlan plan_;
    uint64_t effective_warmup_len_ = 0;
};

/** Raw outcome of replaying one representative (IQ side). */
struct IqRepMeasurement
{
    /** Instructions credited to the measured interval. */
    uint64_t instructions = 0;
    /** Cycles the measured interval consumed. */
    Cycles cycles = 0;
    /** Instructions simulated to warm the queue. */
    uint64_t warmup_instrs = 0;
};

/** Sampled estimate of one (app, queue-size) cell. */
struct SampledIqPerf
{
    core::IqPerf perf;
    double tpi_lo_ns = 0.0;
    double tpi_hi_ns = 0.0;
    /** Instructions actually simulated (measurement + warmup). */
    uint64_t simulated_instrs = 0;
};

/** Sampled evaluation of one application's instruction-queue side. */
class IqSampler
{
  public:
    IqSampler(const core::AdaptiveIqModel &model,
              const trace::AppProfile &app, uint64_t instructions,
              const SampleParams &params);

    /**
     * File-backed variant: profiles and clusters the uop trace at
     * @p trace_path (`capsim gen-trace --study iq` /
     * ooo::writeUopTraceFile output) instead of the synthetic
     * generator; the replayer then fast-forwards via file offsets
     * (trace::FileTraceSource::Cursor).  @p app still supplies the
     * name and seed context; its synthetic ILP behaviour is unused.
     */
    IqSampler(const core::AdaptiveIqModel &model,
              const trace::AppProfile &app,
              const std::string &trace_path, const SampleParams &params);

    const SamplePlan &plan() const { return plan_; }
    const IlpIntervalProfile &profile() const { return profile_; }
    size_t repCount() const { return plan_.reps.size(); }

    /**
     * Replay representative @p rep with a fixed queue size.  The
     * measurement window is anchored at the warmup's actual issue
     * overshoot when that already covers the representative (a short
     * tail interval), so the interval always observes its nominal
     * instruction count of real execution.
     */
    IqRepMeasurement measureRep(int entries, size_t rep) const;

    /**
     * One-pass counterpart of measureRep() for the whole queue-size
     * ladder: a single replay of representative @p rep feeds one
     * ooo::WindowSweeper lane per study size, so one warmup+measure
     * chain scores every configuration.  Returns the measurements in
     * ladder order, each bit-identical to measureRep(size, rep).
     */
    std::vector<IqRepMeasurement> measureRepAllConfigs(size_t rep) const;

    /**
     * As measureRepAllConfigs(), but for an arbitrary candidate list:
     * one replay of representative @p rep scores every queue size in
     * @p entries (one counterfactual lane each, results in input
     * order), each bit-identical to measureRep(size, rep).  The lanes
     * never interact, so the list's composition does not change any
     * individual measurement.
     */
    std::vector<IqRepMeasurement>
    measureRepConfigs(const std::vector<int> &entries, size_t rep) const;

    /** measureRepAllConfigs() over every representative, as
     *  [config][rep slot] (ladder order x plan order). */
    std::vector<std::vector<IqRepMeasurement>> measureAllConfigs() const;

    SampledIqPerf reconstruct(int entries,
                              const std::vector<IqRepMeasurement> &meas)
        const;

    SampledIqPerf evaluate(int entries) const;

  private:
    IqRepMeasurement measureRepFrom(ooo::OpSource &source, int entries,
                                    size_t start,
                                    uint64_t warm_instrs) const;
    std::vector<IqRepMeasurement>
    measureRepChainFrom(ooo::OpSource &source,
                        const std::vector<int> &sizes, size_t start,
                        uint64_t warm_instrs) const;

    const core::AdaptiveIqModel *model_;
    trace::AppProfile app_;
    SampleParams params_;
    IlpIntervalProfile profile_;
    SamplePlan plan_;
};

} // namespace cap::sample

#endif // CAPSIM_SAMPLE_SAMPLER_H
