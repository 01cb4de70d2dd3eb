#include "reference.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "cache/exclusive_hierarchy.h"
#include "core/machine.h"
#include "ooo/core_model.h"
#include "ooo/stream.h"
#include "trace/stream.h"
#include "util/parallel.h"

namespace cap::reference {

namespace {

/**
 * Fan @p n_cells cells across @p jobs workers.  Each cell records
 * into private observation buffers, merged into @p hooks serially in
 * cell order after the fan-out.
 */
void
runCells(core::RunTelemetry &telemetry, size_t n_cells, int jobs,
         const obs::Hooks &hooks,
         const std::function<void(size_t cell, obs::DecisionTrace *,
                                  obs::CounterRegistry *)> &run_cell)
{
    std::vector<obs::DecisionTrace> traces(hooks.trace ? n_cells : 0);
    std::vector<obs::CounterRegistry> registries(
        hooks.registry ? n_cells : 0);
    auto start = std::chrono::steady_clock::now();
    parallelFor(jobs, n_cells, [&](size_t cell) {
        run_cell(cell, hooks.trace ? &traces[cell] : nullptr,
                 hooks.registry ? &registries[cell] : nullptr);
    });
    telemetry.jobs = jobs;
    telemetry.wall_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    for (size_t cell = 0; cell < n_cells; ++cell) {
        if (hooks.trace)
            hooks.trace->append(traces[cell]);
        if (hooks.registry)
            hooks.registry->merge(registries[cell]);
    }
}

} // namespace

core::CacheStudy
runCacheStudy(const core::AdaptiveCacheModel &model,
              const std::vector<trace::AppProfile> &apps, uint64_t refs,
              int max_l1_increments, int jobs, const obs::Hooks &hooks)
{
    core::CacheStudy study;
    study.apps = apps;
    for (int k = 1; k <= max_l1_increments; ++k)
        study.timings.push_back(model.boundaryTiming(k));
    size_t configs = study.timings.size();
    study.perf.assign(apps.size(), std::vector<core::CachePerf>(configs));
    runCells(study.telemetry, apps.size() * configs, jobs, hooks,
             [&](size_t cell, obs::DecisionTrace *trace,
                 obs::CounterRegistry *registry) {
                 size_t a = cell / configs;
                 size_t c = cell % configs;
                 study.perf[a][c] = model.evaluateObserved(
                     apps[a], static_cast<int>(c) + 1, refs, trace,
                     registry);
             });
    study.selection = core::selectConfigurations(study.tpiMatrix());
    return study;
}

core::IqStudy
runIqStudy(const core::AdaptiveIqModel &model,
           const std::vector<trace::AppProfile> &apps,
           uint64_t instructions, int jobs, const obs::Hooks &hooks)
{
    core::IqStudy study;
    study.apps = apps;
    study.timings = model.allTimings();
    size_t configs = study.timings.size();
    study.perf.assign(apps.size(), std::vector<core::IqPerf>(configs));
    runCells(study.telemetry, apps.size() * configs, jobs, hooks,
             [&](size_t cell, obs::DecisionTrace *trace,
                 obs::CounterRegistry *registry) {
                 size_t a = cell / configs;
                 size_t c = cell % configs;
                 study.perf[a][c] = model.evaluateObserved(
                     apps[a], study.timings[c].entries, instructions,
                     core::kIntervalInstructions, trace, registry);
             });
    study.selection = core::selectConfigurations(study.tpiMatrix());
    return study;
}

std::vector<std::vector<core::IqIntervalCost>>
intervalOracleCosts(const trace::AppProfile &app, uint64_t instructions,
                    const std::vector<int> &candidates,
                    uint64_t interval_instrs, int jobs)
{
    std::vector<std::vector<core::IqIntervalCost>> costs(candidates.size());
    parallelFor(jobs, candidates.size(), [&](size_t li) {
        ooo::InstructionStream stream(app.ilp, app.seed);
        ooo::CoreParams params;
        params.queue_entries = candidates[li];
        params.dispatch_width = core::IqMachine::kDispatchWidth;
        params.issue_width = core::IqMachine::kIssueWidth;
        ooo::CoreModel core(stream, params);
        for (uint64_t done = 0; done < instructions;) {
            uint64_t step = std::min(interval_instrs, instructions - done);
            ooo::RunResult run = core.step(step);
            costs[li].push_back({run.cycles, run.instructions});
            done += step;
        }
    });
    return costs;
}

std::vector<std::vector<core::CacheIntervalCost>>
cacheIntervalOracleCosts(const core::AdaptiveCacheModel &model,
                         const trace::AppProfile &app, uint64_t refs,
                         const std::vector<int> &boundaries,
                         uint64_t interval_refs, int jobs)
{
    const double rpi = app.cache.refs_per_instr;
    std::vector<std::vector<core::CacheIntervalCost>> costs(
        boundaries.size());
    parallelFor(jobs, boundaries.size(), [&](size_t li) {
        core::CacheBoundaryTiming timing =
            model.boundaryTiming(boundaries[li]);
        cache::ExclusiveHierarchy hierarchy(model.geometry(),
                                            boundaries[li]);
        trace::SyntheticTraceSource source(app.cache, app.seed, refs);
        core::MissClock clock(model.memConfig());
        clock.pace(timing, rpi);
        for (uint64_t done = 0; done < refs;) {
            uint64_t want = std::min(interval_refs, refs - done);
            cache::CacheStats before = hierarchy.stats();
            core::walkTrace(source, hierarchy, clock, want);
            cache::CacheStats delta = hierarchy.stats() - before;
            Nanoseconds stall = clock.takeStall();
            core::CachePerf perf =
                clock.dram()
                    ? model.perfFromDram(delta, timing, rpi, stall)
                    : model.perfFromStats(delta, timing, rpi);
            costs[li].push_back(
                {perf.tpi_ns * static_cast<double>(perf.instructions),
                 perf.instructions, stall});
            done += want;
        }
    });
    return costs;
}

} // namespace cap::reference
