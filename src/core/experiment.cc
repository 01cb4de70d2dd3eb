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
 * Fan the (app x config) cells of a study across @p jobs workers.
 * @p run_cell simulates one cell and returns its configuration label;
 * it must write only to state owned by that cell (including the
 * cell-private observation buffers it is handed).  When @p hooks carry
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
              size_t n_apps, size_t n_configs, int jobs,
              const obs::Hooks &hooks,
              const std::function<std::string(size_t app, size_t config,
                                              obs::DecisionTrace *,
                                              obs::CounterRegistry *)>
                  &run_cell)
{
    capAssert(jobs >= 1, "study needs at least one worker");
    telemetry.jobs = jobs;
    size_t n_cells = n_apps * n_configs;
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
            size_t app = cell / n_configs;
            size_t config = cell % n_configs;
            SteadyClock::time_point cell_start = SteadyClock::now();
            std::string label =
                run_cell(app, config,
                         hooks.trace ? &traces[cell] : nullptr,
                         hooks.registry ? &registries[cell] : nullptr);
            CellTelemetry &ct = telemetry.cells[cell];
            ct.config = std::move(label);
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
              int max_l1_increments, int jobs, const obs::Hooks &hooks,
              bool one_pass)
{
    capAssert(!apps.empty(), "cache study needs applications");
    CAPSIM_SPAN("study.cache");
    CacheStudy study;
    study.apps = apps;
    for (int k = 1; k <= max_l1_increments; ++k)
        study.timings.push_back(model.boundaryTiming(k));

    obs::Hooks sinks = obs::effectiveHooks(hooks);
    size_t configs = static_cast<size_t>(max_l1_increments);
    study.perf.assign(apps.size(), std::vector<CachePerf>(configs));
    if (one_pass) {
        // One stack-distance pass per application scores every
        // boundary; each per-app cell emits its boundaries' Cell
        // records in ascending-k order, so the serially merged trace
        // matches the per-config path byte for byte.
        runStudyCells(study.telemetry, "cache-sweep", apps.size(), 1,
                      jobs, sinks,
                      [&](size_t a, size_t, obs::DecisionTrace *trace,
                          obs::CounterRegistry *registry) {
                          study.perf[a] = model.sweepOnePassObserved(
                              apps[a], max_l1_increments, refs, trace,
                              registry);
                          study.telemetry.cells[a].app = apps[a].name;
                          return "onepass x" +
                                 std::to_string(max_l1_increments);
                      });
    } else {
        runStudyCells(study.telemetry, "cache-sweep", apps.size(),
                      configs, jobs, sinks,
                      [&](size_t a, size_t c, obs::DecisionTrace *trace,
                          obs::CounterRegistry *registry) {
                          int k = static_cast<int>(c) + 1;
                          study.perf[a][c] = model.evaluateObserved(
                              apps[a], k, refs, trace, registry);
                          study.telemetry.cells[a * configs + c].app =
                              apps[a].name;
                          return std::to_string(
                                     study.timings[c].l1_bytes / 1024) +
                                 "KB/" +
                                 std::to_string(
                                     study.timings[c].l1_assoc) +
                                 "way";
                      });
    }
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
           uint64_t instructions, int jobs, const obs::Hooks &hooks,
           bool one_pass)
{
    capAssert(!apps.empty(), "IQ study needs applications");
    CAPSIM_SPAN("study.iq");
    IqStudy study;
    study.apps = apps;
    study.timings = model.allTimings();

    obs::Hooks sinks = obs::effectiveHooks(hooks);
    std::vector<int> sizes = AdaptiveIqModel::studySizes();
    size_t configs = sizes.size();
    study.perf.assign(apps.size(), std::vector<IqPerf>(configs));
    if (one_pass) {
        // One shared-stream sweep per application scores every queue
        // size; each per-app cell emits its sizes' Interval records
        // in ascending-size order, so the serially merged trace
        // matches the per-config path byte for byte.
        runStudyCells(study.telemetry, "iq-sweep", apps.size(), 1,
                      jobs, sinks,
                      [&](size_t a, size_t, obs::DecisionTrace *trace,
                          obs::CounterRegistry *registry) {
                          study.perf[a] = model.sweepOnePassObserved(
                              apps[a], instructions,
                              kIntervalInstructions, trace, registry);
                          study.telemetry.cells[a].app = apps[a].name;
                          return "onepass x" + std::to_string(configs);
                      });
    } else {
        runStudyCells(study.telemetry, "iq-sweep", apps.size(),
                      configs, jobs, sinks,
                      [&](size_t a, size_t c, obs::DecisionTrace *trace,
                          obs::CounterRegistry *registry) {
                          study.perf[a][c] = model.evaluateObserved(
                              apps[a], sizes[c], instructions,
                              kIntervalInstructions, trace, registry);
                          study.telemetry.cells[a * configs + c].app =
                              apps[a].name;
                          return std::to_string(sizes[c]) + " entries";
                      });
    }
    study.selection = selectConfigurations(study.tpiMatrix());
    return study;
}

} // namespace cap::core
