#include "study.h"

#include <chrono>
#include <memory>
#include <string>

#include "util/parallel.h"
#include "util/status.h"

namespace cap::sample {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

/** One (app, representative) simulation unit. */
struct RepCell
{
    size_t app;
    size_t rep;
};

std::string
cacheConfigLabel(const core::CacheBoundaryTiming &timing)
{
    return std::to_string(timing.l1_bytes / 1024) + "KB/" +
           std::to_string(timing.l1_assoc) + "way";
}

/** Registry emission shared by the sampled runners (orchestrator
 *  thread only, after the fan-out). */
void
foldSampleCounters(obs::CounterRegistry *registry, uint64_t intervals,
                   uint64_t clusters, uint64_t rep_sims, uint64_t warmup,
                   uint64_t simulated, const char *unit_suffix)
{
    if (!registry)
        return;
    registry->counter("sample.intervals_profiled").add(intervals);
    registry->counter("sample.clusters").add(clusters);
    registry->counter("sample.rep_simulations").add(rep_sims);
    registry->counter(std::string("sample.warmup_") + unit_suffix)
        .add(warmup);
    registry->counter(std::string("sample.simulated_") + unit_suffix)
        .add(simulated);
}

} // namespace

std::vector<std::vector<double>>
SampledCacheStudy::tpiMatrix() const
{
    std::vector<std::vector<double>> matrix;
    for (const auto &row : perf) {
        std::vector<double> values;
        for (const SampledCachePerf &p : row)
            values.push_back(p.perf.tpi_ns);
        matrix.push_back(std::move(values));
    }
    return matrix;
}

uint64_t
SampledCacheStudy::simulatedRefs() const
{
    uint64_t total = 0;
    for (const auto &row : perf) {
        for (const SampledCachePerf &p : row)
            total += p.simulated_refs;
    }
    return total;
}

SampledCacheStudy
runSampledCacheStudy(const core::AdaptiveCacheModel &model,
                     const std::vector<trace::AppProfile> &apps,
                     uint64_t refs, const SampleParams &params,
                     int max_l1_increments, int jobs,
                     const obs::Hooks &hooks)
{
    capAssert(!apps.empty(), "sampled cache study needs applications");
    capAssert(jobs >= 1, "study needs at least one worker");

    SampledCacheStudy study;
    study.apps = apps;
    for (int k = 1; k <= max_l1_increments; ++k)
        study.timings.push_back(model.boundaryTiming(k));

    obs::Hooks sinks = obs::effectiveHooks(hooks);
    study.telemetry.jobs = jobs;
    SteadyClock::time_point start = SteadyClock::now();
    ThreadPool pool(jobs);

    // Phase 1: profile + cluster each application (simulator-free).
    std::vector<std::unique_ptr<CacheSampler>> samplers(apps.size());
    if (sinks.progress)
        sinks.progress->beginRun("sample-cache/profile", apps.size(),
                                 jobs);
    {
        CAPSIM_SPAN("sample.profile");
        parallelFor(pool, apps.size(), [&](size_t a) {
            CAPSIM_SPAN("sample.profile.app");
            SteadyClock::time_point app_start = SteadyClock::now();
            samplers[a] = std::make_unique<CacheSampler>(model, apps[a],
                                                         refs, params);
            if (sinks.progress)
                sinks.progress->noteCellDone(
                    currentWorkerId(),
                    static_cast<uint64_t>(secondsSince(app_start) *
                                          1e9));
        });
    }
    if (sinks.progress)
        sinks.progress->endRun();

    // Phase 2: replay each application's chain once (the stale-state
    // warmup makes its representatives a sequential chain, so the
    // chain is the parallel unit) through the stack-distance engine,
    // reconstructing every boundary's measurements from it --
    // bit-identical to one chain per boundary (docs/PERF.md).
    size_t configs = static_cast<size_t>(max_l1_increments);
    std::vector<std::vector<std::vector<CacheRepMeasurement>>> meas(
        apps.size());
    size_t rep_sims = 0;
    for (size_t a = 0; a < apps.size(); ++a)
        rep_sims += samplers[a]->repCount();
    if (sinks.progress)
        sinks.progress->beginRun("sample-cache/replay", apps.size(),
                                 jobs);
    {
        CAPSIM_SPAN("sample.replay");
        study.telemetry.cells.assign(apps.size(), {});
        parallelFor(pool, apps.size(), [&](size_t a) {
            CAPSIM_SPAN("sample.replay.cell");
            SteadyClock::time_point cell_start = SteadyClock::now();
            meas[a] = samplers[a]->measureAllConfigs(max_l1_increments);
            core::CellTelemetry &ct = study.telemetry.cells[a];
            ct.app = apps[a].name;
            ct.config =
                "onepass x" + std::to_string(max_l1_increments);
            ct.sim_seconds = secondsSince(cell_start);
            ct.worker = currentWorkerId();
            if (sinks.progress)
                sinks.progress->noteCellDone(
                    ct.worker,
                    static_cast<uint64_t>(ct.sim_seconds * 1e9));
        });
    }
    study.telemetry.wall_seconds = secondsSince(start);
    study.telemetry.recordPool(pool);
    if (sinks.progress)
        sinks.progress->endRun();

    // Phase 3: serial reconstruction + emission, in cell order.
    CAPSIM_SPAN("sample.reconstruct");
    study.perf.assign(apps.size(),
                      std::vector<SampledCachePerf>(configs));
    uint64_t warmup_total = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        const SamplePlan &plan = samplers[a]->plan();
        double rpi = apps[a].cache.refs_per_instr;
        for (size_t c = 0; c < configs; ++c) {
            int k = static_cast<int>(c) + 1;
            study.perf[a][c] = samplers[a]->reconstruct(k, meas[a][c]);
            std::string config = cacheConfigLabel(study.timings[c]);
            for (size_t r = 0; r < plan.reps.size(); ++r) {
                warmup_total += meas[a][c][r].warmup_refs;
                if (!sinks.trace)
                    continue;
                core::CachePerf rp = model.perfFromStats(
                    meas[a][c][r].stats, study.timings[c], rpi);
                obs::TraceEvent event;
                event.kind = obs::EventKind::Representative;
                event.lane = apps[a].name + "/" + config;
                event.app = apps[a].name;
                event.config = config;
                event.interval = plan.reps[r].interval;
                event.cluster = plan.reps[r].cluster;
                event.weight = plan.reps[r].weight;
                event.warmup = meas[a][c][r].warmup_refs;
                event.retired = rp.instructions;
                event.cycles = meas[a][c][r].stats.refs;
                event.start_ns =
                    static_cast<double>(plan.reps[r].interval *
                                        plan.interval_len) /
                    rpi * study.perf[a][c].perf.tpi_ns;
                event.duration_ns =
                    rp.tpi_ns * static_cast<double>(rp.instructions);
                event.tpi_ns = rp.tpi_ns;
                sinks.trace->add(std::move(event));
            }
        }
    }
    study.selection = core::selectConfigurations(study.tpiMatrix());

    uint64_t intervals = 0;
    uint64_t clusters = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        intervals += samplers[a]->profile().signatures.size();
        clusters += samplers[a]->plan().clustering.clusterCount();
    }
    foldSampleCounters(sinks.registry, intervals, clusters, rep_sims,
                       warmup_total, study.simulatedRefs(), "refs");
    if (sinks.registry) {
        sinks.registry->counter("stacksim.sweeps").add(apps.size());
        sinks.registry->counter("stacksim.boundaries")
            .add(apps.size() * configs);
    }
    return study;
}

std::vector<std::vector<double>>
SampledIqStudy::tpiMatrix() const
{
    std::vector<std::vector<double>> matrix;
    for (const auto &row : perf) {
        std::vector<double> values;
        for (const SampledIqPerf &p : row)
            values.push_back(p.perf.tpi_ns);
        matrix.push_back(std::move(values));
    }
    return matrix;
}

uint64_t
SampledIqStudy::simulatedInstrs() const
{
    uint64_t total = 0;
    for (const auto &row : perf) {
        for (const SampledIqPerf &p : row)
            total += p.simulated_instrs;
    }
    return total;
}

SampledIqStudy
runSampledIqStudy(const core::AdaptiveIqModel &model,
                  const std::vector<trace::AppProfile> &apps,
                  uint64_t instructions, const SampleParams &params,
                  int jobs, const obs::Hooks &hooks)
{
    capAssert(!apps.empty(), "sampled IQ study needs applications");
    capAssert(jobs >= 1, "study needs at least one worker");

    SampledIqStudy study;
    study.apps = apps;
    study.timings = model.allTimings();
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    size_t configs = sizes.size();

    obs::Hooks sinks = obs::effectiveHooks(hooks);
    study.telemetry.jobs = jobs;
    SteadyClock::time_point start = SteadyClock::now();
    ThreadPool pool(jobs);

    std::vector<std::unique_ptr<IqSampler>> samplers(apps.size());
    if (sinks.progress)
        sinks.progress->beginRun("sample-iq/profile", apps.size(), jobs);
    {
        CAPSIM_SPAN("sample.profile");
        parallelFor(pool, apps.size(), [&](size_t a) {
            CAPSIM_SPAN("sample.profile.app");
            SteadyClock::time_point app_start = SteadyClock::now();
            samplers[a] = std::make_unique<IqSampler>(
                model, apps[a], instructions, params);
            if (sinks.progress)
                sinks.progress->noteCellDone(
                    currentWorkerId(),
                    static_cast<uint64_t>(secondsSince(app_start) *
                                          1e9));
        });
    }
    if (sinks.progress)
        sinks.progress->endRun();

    // Phase 2: replay.  Fan the (app, rep) chains, each replaying its
    // warmup+measure window once through a WindowSweeper lane per
    // queue size -- measurements bit-identical to one replay per size
    // (docs/PERF.md).
    std::vector<RepCell> cells;
    std::vector<std::vector<std::vector<IqRepMeasurement>>> meas(
        apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        meas[a].assign(configs, std::vector<IqRepMeasurement>(
                                    samplers[a]->repCount()));
        for (size_t r = 0; r < samplers[a]->repCount(); ++r)
            cells.push_back({a, r});
    }
    study.telemetry.cells.assign(cells.size(), {});
    if (sinks.progress)
        sinks.progress->beginRun("sample-iq/replay", cells.size(), jobs);
    {
        CAPSIM_SPAN("sample.replay");
        parallelFor(pool, cells.size(), [&](size_t i) {
            CAPSIM_SPAN("sample.replay.cell");
            const RepCell &cell = cells[i];
            SteadyClock::time_point cell_start = SteadyClock::now();
            std::vector<IqRepMeasurement> per_cfg =
                samplers[cell.app]->measureRepAllConfigs(cell.rep);
            for (size_t c = 0; c < configs; ++c)
                meas[cell.app][c][cell.rep] = per_cfg[c];
            core::CellTelemetry &ct = study.telemetry.cells[i];
            ct.config = "onepass x" + std::to_string(configs) + "#rep" +
                        std::to_string(cell.rep);
            ct.app = apps[cell.app].name;
            ct.sim_seconds = secondsSince(cell_start);
            ct.worker = currentWorkerId();
            if (sinks.progress)
                sinks.progress->noteCellDone(
                    ct.worker,
                    static_cast<uint64_t>(ct.sim_seconds * 1e9));
        });
    }
    study.telemetry.wall_seconds = secondsSince(start);
    study.telemetry.recordPool(pool);
    if (sinks.progress)
        sinks.progress->endRun();

    CAPSIM_SPAN("sample.reconstruct");
    study.perf.assign(apps.size(), std::vector<SampledIqPerf>(configs));
    uint64_t warmup_total = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        const SamplePlan &plan = samplers[a]->plan();
        for (size_t c = 0; c < configs; ++c) {
            study.perf[a][c] =
                samplers[a]->reconstruct(sizes[c], meas[a][c]);
            std::string config = std::to_string(sizes[c]);
            double cycle = model.cycleNs(sizes[c]);
            for (size_t r = 0; r < plan.reps.size(); ++r) {
                const IqRepMeasurement &m = meas[a][c][r];
                warmup_total += m.warmup_instrs;
                if (!sinks.trace)
                    continue;
                obs::TraceEvent event;
                event.kind = obs::EventKind::Representative;
                event.lane = apps[a].name + "/" + config;
                event.app = apps[a].name;
                event.config = config;
                event.interval = plan.reps[r].interval;
                event.cluster = plan.reps[r].cluster;
                event.weight = plan.reps[r].weight;
                event.warmup = m.warmup_instrs;
                event.retired = m.instructions;
                event.cycles = m.cycles;
                event.start_ns =
                    static_cast<double>(plan.reps[r].interval *
                                        plan.interval_len) *
                    study.perf[a][c].perf.tpi_ns;
                event.duration_ns =
                    static_cast<double>(m.cycles) * cycle;
                event.ipc = m.cycles
                                ? static_cast<double>(m.instructions) /
                                      static_cast<double>(m.cycles)
                                : 0.0;
                event.tpi_ns =
                    m.instructions
                        ? event.duration_ns /
                              static_cast<double>(m.instructions)
                        : 0.0;
                sinks.trace->add(std::move(event));
            }
        }
    }
    study.selection = core::selectConfigurations(study.tpiMatrix());

    uint64_t intervals = 0;
    uint64_t clusters = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        intervals += samplers[a]->profile().signatures.size();
        clusters += samplers[a]->plan().clustering.clusterCount();
    }
    foldSampleCounters(sinks.registry, intervals, clusters, cells.size(),
                       warmup_total, study.simulatedInstrs(), "instrs");
    if (sinks.registry) {
        sinks.registry->counter("windowsweep.sweeps").add(cells.size());
        sinks.registry->counter("windowsweep.lanes")
            .add(cells.size() * configs);
    }
    return study;
}

core::IntervalRunResult
runSampledIntervalOracle(const core::AdaptiveIqModel &model,
                         const trace::AppProfile &app,
                         uint64_t instructions,
                         const std::vector<int> &candidates,
                         const SampleParams &params, bool charge_switches,
                         Cycles switch_penalty_cycles, int jobs,
                         const obs::Hooks &hooks)
{
    capAssert(!candidates.empty(), "oracle needs candidates");
    capAssert(jobs >= 1, "oracle needs at least one worker");

    obs::Hooks sinks = obs::effectiveHooks(hooks);
    std::unique_ptr<IqSampler> sampler_holder;
    {
        CAPSIM_SPAN("sample.profile");
        sampler_holder = std::make_unique<IqSampler>(model, app,
                                                     instructions, params);
    }
    IqSampler &sampler = *sampler_holder;
    const SamplePlan &plan = sampler.plan();
    size_t n_cand = candidates.size();
    size_t n_rep = sampler.repCount();
    size_t k = plan.clustering.clusterCount();

    core::IntervalRunResult result;
    result.instructions = instructions;
    result.telemetry.jobs = jobs;
    result.telemetry.cells.assign(n_rep, {});

    // Replay each representative once, scoring the whole candidate
    // list in a single warmup+measure chain (bit-identical to one
    // replay per candidate, see measureRepConfigs).  The chains share
    // the sampler (const) and write disjoint slots.
    std::vector<std::vector<IqRepMeasurement>> meas(
        n_cand, std::vector<IqRepMeasurement>(n_rep));
    SteadyClock::time_point start = SteadyClock::now();
    ThreadPool pool(jobs);
    if (sinks.progress)
        sinks.progress->beginRun("sample-oracle/replay", n_rep, jobs);
    {
        CAPSIM_SPAN("sample.replay");
        parallelFor(pool, n_rep, [&](size_t i) {
            CAPSIM_SPAN("sample.replay.cell");
            SteadyClock::time_point cell_start = SteadyClock::now();
            std::vector<IqRepMeasurement> per_cand =
                sampler.measureRepConfigs(candidates, i);
            for (size_t cand = 0; cand < n_cand; ++cand)
                meas[cand][i] = per_cand[cand];
            core::CellTelemetry &ct = result.telemetry.cells[i];
            ct.config = "onepass x" + std::to_string(n_cand) + "#rep" +
                        std::to_string(i);
            ct.app = app.name;
            ct.sim_seconds = secondsSince(cell_start);
            ct.worker = currentWorkerId();
            if (sinks.progress)
                sinks.progress->noteCellDone(
                    ct.worker,
                    static_cast<uint64_t>(ct.sim_seconds * 1e9));
        });
    }
    result.telemetry.wall_seconds = secondsSince(start);
    result.telemetry.recordPool(pool);
    if (sinks.progress)
        sinks.progress->endRun();

    CAPSIM_SPAN("sample.reconstruct");

    // Per-cluster winner: the candidate minimizing the medoid's
    // per-instruction time (ties: lowest candidate index).  Medoids
    // occupy rep slots [0, k) in cluster order.
    std::vector<size_t> winner(k, 0);
    std::vector<std::vector<double>> time_per_instr(
        k, std::vector<double>(n_cand, 0.0));
    for (size_t c = 0; c < k; ++c) {
        for (size_t j = 0; j < n_cand; ++j) {
            const IqRepMeasurement &m = meas[j][c];
            double cpi = m.instructions
                             ? static_cast<double>(m.cycles) /
                                   static_cast<double>(m.instructions)
                             : 0.0;
            time_per_instr[c][j] = cpi * model.cycleNs(candidates[j]);
            if (time_per_instr[c][j] < time_per_instr[c][winner[c]])
                winner[c] = j;
        }
    }

    // Reconstruct the per-interval winner sequence and total time.
    double total_ns = 0.0;
    int previous = -1;
    for (size_t i = 0; i < plan.num_intervals; ++i) {
        size_t c = static_cast<size_t>(plan.clustering.assignment[i]);
        size_t j = winner[c];
        uint64_t len = sampler.profile().lengthOf(i);
        total_ns += static_cast<double>(len) * time_per_instr[c][j];
        int entries = candidates[j];
        if (previous >= 0 && entries != previous) {
            ++result.reconfigurations;
            ++result.committed_moves;
            if (charge_switches) {
                total_ns += static_cast<double>(switch_penalty_cycles) *
                            model.cycleNs(entries);
            }
        }
        previous = entries;
        result.config_trace.push_back(entries);
    }
    result.total_time_ns = total_ns;
    result.telemetry.reconfigurations =
        static_cast<uint64_t>(result.reconfigurations);

    uint64_t warmup_total = 0;
    uint64_t simulated = 0;
    for (size_t j = 0; j < n_cand; ++j) {
        for (size_t r = 0; r < n_rep; ++r) {
            warmup_total += meas[j][r].warmup_instrs;
            simulated += meas[j][r].warmup_instrs +
                         sampler.profile().lengthOf(plan.reps[r].interval);
        }
    }
    foldSampleCounters(sinks.registry, plan.num_intervals, k, n_rep,
                       warmup_total, simulated, "instrs");
    if (sinks.registry) {
        sinks.registry->counter("windowsweep.sweeps").add(n_rep);
        sinks.registry->counter("windowsweep.lanes").add(n_rep * n_cand);
    }
    return result;
}

} // namespace cap::sample
