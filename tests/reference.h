/**
 * @file
 * Per-configuration reference engines: every configuration simulated
 * on a machine of its own, the direct computation the one-pass study
 * runners and interval oracles must reproduce (docs/PERF.md).  The
 * differential tests hold the one-pass engines to these bit for bit,
 * and bench/perf_smoke times them as the baseline of its speedup
 * ratios.
 *
 * The capsim_reference library is built for the test suites and the
 * perf smoke only; it is never installed.
 */

#ifndef CAPSIM_TESTS_REFERENCE_H
#define CAPSIM_TESTS_REFERENCE_H

#include <vector>

#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/experiment.h"
#include "core/interval_cache.h"
#include "core/interval_controller.h"
#include "obs/hooks.h"
#include "trace/profile.h"

namespace cap::reference {

/**
 * core::runCacheStudy with one AdaptiveCacheModel::evaluateObserved()
 * cell per (app, boundary), fanned across @p jobs workers.  Each cell
 * records into private buffers that merge into @p hooks serially in
 * cell order, so the trace is bit-identical for every @p jobs.
 * Telemetry carries only the worker count and the wall time.
 */
core::CacheStudy runCacheStudy(const core::AdaptiveCacheModel &model,
                               const std::vector<trace::AppProfile> &apps,
                               uint64_t refs, int max_l1_increments = 8,
                               int jobs = 1, const obs::Hooks &hooks = {});

/** core::runIqStudy with one AdaptiveIqModel::evaluateObserved() cell
 *  per (app, queue size); otherwise as runCacheStudy(). */
core::IqStudy runIqStudy(const core::AdaptiveIqModel &model,
                         const std::vector<trace::AppProfile> &apps,
                         uint64_t instructions, int jobs = 1,
                         const obs::Hooks &hooks = {});

/** core::intervalOracleCosts from one CoreModel per candidate,
 *  stepped interval by interval; candidates fan across @p jobs. */
std::vector<std::vector<core::IqIntervalCost>>
intervalOracleCosts(const trace::AppProfile &app, uint64_t instructions,
                    const std::vector<int> &candidates,
                    uint64_t interval_instrs, int jobs = 1);

/** core::cacheIntervalOracleCosts from one ExclusiveHierarchy and one
 *  MissClock per boundary, walked interval by interval (walkTrace);
 *  boundaries fan across @p jobs. */
std::vector<std::vector<core::CacheIntervalCost>>
cacheIntervalOracleCosts(const core::AdaptiveCacheModel &model,
                         const trace::AppProfile &app, uint64_t refs,
                         const std::vector<int> &boundaries,
                         uint64_t interval_refs, int jobs = 1);

} // namespace cap::reference

#endif // CAPSIM_TESTS_REFERENCE_H
