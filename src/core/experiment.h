/**
 * @file
 * Experiment runners that produce the data behind the paper's figures.
 *
 * A "study" sweeps every application of the relevant suite across
 * every configuration, then applies the selection policies: the best
 * conventional configuration (minimum mean TPI -- the fixed design a
 * conventional methodology would ship) and the process-level adaptive
 * choice (per-application argmin).
 *
 * Each application is one cell: a one-pass sweep (its own stream,
 * seeded from the application profile) scores every configuration at
 * once, bit-identically to evaluating each configuration alone
 * (docs/PERF.md).  The runners fan the cells across a work-stealing
 * thread pool when @p jobs exceeds 1.  Cells write into pre-sized
 * result matrices -- no locks on the hot path -- and the result is
 * bit-identical to the serial (jobs = 1) path for every thread count.
 */

#ifndef CAPSIM_CORE_EXPERIMENT_H
#define CAPSIM_CORE_EXPERIMENT_H

#include <vector>

#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/config_manager.h"
#include "core/telemetry.h"
#include "obs/hooks.h"
#include "trace/profile.h"

namespace cap::core {

/** Complete result of the cache study (Figures 7-9). */
struct CacheStudy
{
    std::vector<trace::AppProfile> apps;
    std::vector<CacheBoundaryTiming> timings;
    /** perf[app][config]. */
    std::vector<std::vector<CachePerf>> perf;
    SelectionResult selection;
    /** Execution cost of the sweep (per-cell times, throughput). */
    RunTelemetry telemetry;

    /** TPI matrix [app][config]. */
    std::vector<std::vector<double>> tpiMatrix() const;
    /** TPImiss matrix [app][config]. */
    std::vector<std::vector<double>> tpiMissMatrix() const;

    /** Mean TPImiss under the conventional / adaptive selections. */
    double conventionalMeanTpiMiss() const;
    double adaptiveMeanTpiMiss() const;
};

/**
 * Run the cache study over @p apps: one stack-distance pass per
 * application (AdaptiveCacheModel::sweepObserved) scores all its
 * boundaries.  Perf matrices, selection and Cell trace records equal
 * one evaluateObserved() per (app, boundary) bit for bit; telemetry
 * has one cell per application (config "onepass x<N>"), and the
 * `cache.service_way` histogram is not recorded.
 * @param refs References simulated per (application, configuration).
 * @param max_l1_increments Largest boundary swept (paper: 8 = 64 KB).
 * @param jobs Worker threads the per-application cells fan across;
 *        results are bit-identical for every value.
 * @param hooks Observation sinks; each cell records into a private
 *        buffer and the buffers are merged serially in cell order, so
 *        the trace too is bit-identical for every @p jobs.
 */
CacheStudy runCacheStudy(const AdaptiveCacheModel &model,
                         const std::vector<trace::AppProfile> &apps,
                         uint64_t refs, int max_l1_increments = 8,
                         int jobs = 1, const obs::Hooks &hooks = {});

/** Complete result of the instruction-queue study (Figures 10-11). */
struct IqStudy
{
    std::vector<trace::AppProfile> apps;
    std::vector<IqTiming> timings;
    /** perf[app][config]. */
    std::vector<std::vector<IqPerf>> perf;
    SelectionResult selection;
    /** Execution cost of the sweep (per-cell times, throughput). */
    RunTelemetry telemetry;

    std::vector<std::vector<double>> tpiMatrix() const;
};

/**
 * Run the instruction-queue study over @p apps: one shared-stream
 * sweep per application (AdaptiveIqModel::sweepObserved) scores every
 * queue size.  Perf matrices, selection, Interval trace records,
 * counters and occupancy histograms equal one evaluateObserved() per
 * (app, size) bit for bit (docs/PERF.md); telemetry has one cell per
 * application (config "onepass x<N>").
 * @param instructions Instructions simulated per (app, configuration).
 * @param jobs Worker threads the per-application cells fan across;
 *        results are bit-identical for every value.
 * @param hooks Observation sinks; per-cell buffers merged serially in
 *        cell order (bit-identical trace for every @p jobs).
 */
IqStudy runIqStudy(const AdaptiveIqModel &model,
                   const std::vector<trace::AppProfile> &apps,
                   uint64_t instructions, int jobs = 1,
                   const obs::Hooks &hooks = {});

} // namespace cap::core

#endif // CAPSIM_CORE_EXPERIMENT_H
