/**
 * @file
 * Sampled study runners: the fig9/fig11 sweeps and the interval
 * oracle, driven by the sampling engine instead of full simulation.
 *
 * A sampled study runs in two phases:
 *
 *  1. per application, profile + cluster (CacheSampler/IqSampler
 *     construction) -- applications fan across the thread pool;
 *  2. replay the representatives -- the cache study fans one
 *     application's representative chain per cell (stale-state warmup
 *     makes the representatives sequential) and scores every boundary
 *     from it in one stack-distance pass; the IQ study fans every
 *     (application, representative) pair and scores every queue size
 *     from one window sweep.  Either way the cells are just *more*
 *     cells for the study thread pool, written into pre-sized slots.
 *
 * Reconstruction, trace emission (one Representative record per
 * replayed cell) and `sample.*` registry counters all happen serially
 * on the orchestrator in cell order, so every artifact is
 * bit-identical for every `jobs` value (docs/MODEL.md section 11).
 */

#ifndef CAPSIM_SAMPLE_STUDY_H
#define CAPSIM_SAMPLE_STUDY_H

#include <vector>

#include "core/config_manager.h"
#include "core/interval_controller.h"
#include "core/telemetry.h"
#include "obs/hooks.h"
#include "sample/sampler.h"
#include "trace/profile.h"

namespace cap::sample {

/** Sampled counterpart of core::CacheStudy (Figures 7-9). */
struct SampledCacheStudy
{
    std::vector<trace::AppProfile> apps;
    std::vector<core::CacheBoundaryTiming> timings;
    /** perf[app][config]. */
    std::vector<std::vector<SampledCachePerf>> perf;
    core::SelectionResult selection;
    core::RunTelemetry telemetry;

    /** Estimated TPI matrix [app][config]. */
    std::vector<std::vector<double>> tpiMatrix() const;
    /** References simulated across all cells (warmup included). */
    uint64_t simulatedRefs() const;
};

/**
 * Run the sampled cache study: every (app, boundary) cell estimated
 * from cluster representatives.  @p hooks and @p jobs follow the
 * runCacheStudy contract.  Each application's representative chain is
 * replayed once through the stack-distance engine and every
 * boundary's measurements are reconstructed from it
 * (CacheSampler::measureAllConfigs, bit-identical to measureConfig()
 * per boundary; docs/PERF.md).  Telemetry has one cell per
 * application, and `sample.rep_simulations` counts each
 * representative once.
 */
SampledCacheStudy runSampledCacheStudy(
    const core::AdaptiveCacheModel &model,
    const std::vector<trace::AppProfile> &apps, uint64_t refs,
    const SampleParams &params, int max_l1_increments = 8, int jobs = 1,
    const obs::Hooks &hooks = {});

/** Sampled counterpart of core::IqStudy (Figures 10-11). */
struct SampledIqStudy
{
    std::vector<trace::AppProfile> apps;
    std::vector<core::IqTiming> timings;
    /** perf[app][config]. */
    std::vector<std::vector<SampledIqPerf>> perf;
    core::SelectionResult selection;
    core::RunTelemetry telemetry;

    std::vector<std::vector<double>> tpiMatrix() const;
    /** Instructions simulated across all cells (warmup included). */
    uint64_t simulatedInstrs() const;
};

/**
 * Run the sampled instruction-queue study.  Each representative's
 * warmup+measure chain is replayed once through ooo::WindowSweeper,
 * scoring every queue size (IqSampler::measureRepAllConfigs,
 * bit-identical to measureRep() per size; docs/PERF.md).  Telemetry
 * has one cell per (app, rep), and `sample.rep_simulations` counts
 * each representative once.
 */
SampledIqStudy runSampledIqStudy(const core::AdaptiveIqModel &model,
                                 const std::vector<trace::AppProfile> &apps,
                                 uint64_t instructions,
                                 const SampleParams &params, int jobs = 1,
                                 const obs::Hooks &hooks = {});

/**
 * Sampled per-interval oracle: the representatives are measured once
 * per candidate configuration, each cluster picks its per-interval
 * winner, and the whole-run time is reconstructed from cluster
 * weights.  Winner changes along the reconstructed interval sequence
 * are charged the clock-switch penalty when @p charge_switches is
 * set, mirroring core::runIntervalOracle.  The registry (when armed)
 * gains the `sample.*` counters; no per-interval trace records are
 * emitted -- the reconstructed sequence is cluster-quantized, not
 * measured.
 *
 * Each representative is replayed once through
 * IqSampler::measureRepConfigs(), scoring the whole candidate list in
 * a single warmup+measure chain (bit-identical to measureRep() per
 * candidate); the representative chains fan across @p jobs.
 */
core::IntervalRunResult runSampledIntervalOracle(
    const core::AdaptiveIqModel &model, const trace::AppProfile &app,
    uint64_t instructions, const std::vector<int> &candidates,
    const SampleParams &params, bool charge_switches,
    Cycles switch_penalty_cycles = core::kClockSwitchPenaltyCycles,
    int jobs = 1, const obs::Hooks &hooks = {});

} // namespace cap::sample

#endif // CAPSIM_SAMPLE_STUDY_H
