#include "experiment.h"

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "util/parallel.h"
#include "util/status.h"

namespace cap::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/**
 * Fan the per-application cells of a study across @p jobs workers,
 * labelling each cell's telemetry @p config_label.  @p run_cell
 * simulates one application; it must write only to state owned by
 * that cell (including the cell-private observation buffers it is
 * handed).  When @p hooks carry
 * sinks, the private buffers are merged into them serially in cell
 * order after the fan-out, so the emitted trace/metrics are
 * bit-identical for every @p jobs (docs/MODEL.md section 11).
 *
 * @p progress_label names the run in --progress heartbeats.  Spans,
 * heartbeats, and pool stats only observe the fan-out, so the merged
 * results stay bit-identical with them on or off.
 */
void
runStudyCells(RunTelemetry &telemetry, const char *progress_label,
              const std::vector<trace::AppProfile> &apps,
              const std::string &config_label, int jobs,
              const obs::Hooks &hooks,
              const std::function<void(size_t app, obs::DecisionTrace *,
                                       obs::CounterRegistry *)> &run_cell)
{
    capAssert(jobs >= 1, "study needs at least one worker");
    telemetry.jobs = jobs;
    size_t n_cells = apps.size();
    telemetry.cells.assign(n_cells, {});

    std::vector<obs::DecisionTrace> traces(hooks.trace ? n_cells : 0);
    std::vector<obs::CounterRegistry> registries(
        hooks.registry ? n_cells : 0);

    if (hooks.progress)
        hooks.progress->beginRun(progress_label, n_cells, jobs);
    SteadyClock::time_point start = SteadyClock::now();
    ThreadPool pool(jobs);
    {
        CAPSIM_SPAN("study.fanout");
        parallelFor(pool, n_cells, [&](size_t cell) {
            CAPSIM_SPAN("study.cell");
            SteadyClock::time_point cell_start = SteadyClock::now();
            run_cell(cell, hooks.trace ? &traces[cell] : nullptr,
                     hooks.registry ? &registries[cell] : nullptr);
            CellTelemetry &ct = telemetry.cells[cell];
            ct.app = apps[cell].name;
            ct.config = config_label;
            ct.sim_seconds = secondsSince(cell_start);
            ct.worker = currentWorkerId();
            if (hooks.progress)
                hooks.progress->noteCellDone(
                    ct.worker,
                    static_cast<uint64_t>(ct.sim_seconds * 1e9));
        });
    }
    telemetry.wall_seconds = secondsSince(start);
    telemetry.recordPool(pool);
    if (hooks.progress)
        hooks.progress->endRun();

    CAPSIM_SPAN("study.merge");
    if (hooks.trace) {
        size_t total = hooks.trace->size();
        for (const obs::DecisionTrace &t : traces)
            total += t.size();
        hooks.trace->reserve(total);
    }
    for (size_t cell = 0; cell < n_cells; ++cell) {
        if (hooks.trace)
            hooks.trace->append(traces[cell]);
        if (hooks.registry)
            hooks.registry->merge(registries[cell]);
    }
}

} // namespace

std::vector<std::vector<double>>
CacheStudy::tpiMatrix() const
{
    std::vector<std::vector<double>> matrix;
    for (const auto &row : perf) {
        std::vector<double> values;
        for (const CachePerf &p : row)
            values.push_back(p.tpi_ns);
        matrix.push_back(std::move(values));
    }
    return matrix;
}

std::vector<std::vector<double>>
CacheStudy::tpiMissMatrix() const
{
    std::vector<std::vector<double>> matrix;
    for (const auto &row : perf) {
        std::vector<double> values;
        for (const CachePerf &p : row)
            values.push_back(p.tpi_miss_ns);
        matrix.push_back(std::move(values));
    }
    return matrix;
}

double
CacheStudy::conventionalMeanTpiMiss() const
{
    double sum = 0.0;
    for (const auto &row : perf)
        sum += row[selection.best_conventional].tpi_miss_ns;
    return perf.empty() ? 0.0 : sum / static_cast<double>(perf.size());
}

double
CacheStudy::adaptiveMeanTpiMiss() const
{
    double sum = 0.0;
    for (size_t a = 0; a < perf.size(); ++a)
        sum += perf[a][selection.per_app_best[a]].tpi_miss_ns;
    return perf.empty() ? 0.0 : sum / static_cast<double>(perf.size());
}

CacheStudy
runCacheStudy(const AdaptiveCacheModel &model,
              const std::vector<trace::AppProfile> &apps, uint64_t refs,
              int max_l1_increments, int jobs, const obs::Hooks &hooks)
{
    capAssert(!apps.empty(), "cache study needs applications");
    CAPSIM_SPAN("study.cache");
    CacheStudy study;
    study.apps = apps;
    for (int k = 1; k <= max_l1_increments; ++k)
        study.timings.push_back(model.boundaryTiming(k));

    // Each cell emits its boundaries' Cell records in ascending-k
    // order, so the serially merged trace lists every (app, boundary)
    // in the order one evaluateObserved() per pair would.
    study.perf.resize(apps.size());
    runStudyCells(study.telemetry, "cache-sweep", apps,
                  "onepass x" + std::to_string(max_l1_increments), jobs,
                  obs::effectiveHooks(hooks),
                  [&](size_t a, obs::DecisionTrace *trace,
                      obs::CounterRegistry *registry) {
                      study.perf[a] = model.sweepObserved(
                          apps[a], max_l1_increments, refs, trace,
                          registry);
                  });
    study.selection = selectConfigurations(study.tpiMatrix());
    return study;
}

std::vector<std::vector<double>>
IqStudy::tpiMatrix() const
{
    std::vector<std::vector<double>> matrix;
    for (const auto &row : perf) {
        std::vector<double> values;
        for (const IqPerf &p : row)
            values.push_back(p.tpi_ns);
        matrix.push_back(std::move(values));
    }
    return matrix;
}

IqStudy
runIqStudy(const AdaptiveIqModel &model,
           const std::vector<trace::AppProfile> &apps,
           uint64_t instructions, int jobs, const obs::Hooks &hooks)
{
    capAssert(!apps.empty(), "IQ study needs applications");
    CAPSIM_SPAN("study.iq");
    IqStudy study;
    study.apps = apps;
    study.timings = model.allTimings();

    // Each cell emits its sizes' Interval records in ascending-size
    // order, so the serially merged trace lists every (app, size) in
    // the order one evaluateObserved() per pair would.
    study.perf.resize(apps.size());
    runStudyCells(study.telemetry, "iq-sweep", apps,
                  "onepass x" + std::to_string(study.timings.size()), jobs,
                  obs::effectiveHooks(hooks),
                  [&](size_t a, obs::DecisionTrace *trace,
                      obs::CounterRegistry *registry) {
                      study.perf[a] = model.sweepObserved(
                          apps[a], instructions, kIntervalInstructions,
                          trace, registry);
                  });
    study.selection = selectConfigurations(study.tpiMatrix());
    return study;
}

} // namespace cap::core
