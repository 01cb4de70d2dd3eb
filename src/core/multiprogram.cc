#include "multiprogram.h"

#include <algorithm>
#include <memory>

#include "cache/exclusive_hierarchy.h"
#include "trace/stream.h"
#include "util/status.h"

namespace cap::core {

uint64_t
MultiprogramResult::totalInstructions() const
{
    uint64_t total = 0;
    for (const MultiprogramAppResult &app : apps)
        total += app.instructions;
    return total;
}

double
MultiprogramResult::tpi() const
{
    uint64_t instrs = totalInstructions();
    return instrs ? total_time_ns / static_cast<double>(instrs) : 0.0;
}

namespace {

/** Pick each application's boundary per the requested policy. */
std::vector<int>
resolveBoundaries(const AdaptiveCacheModel &model,
                  const std::vector<trace::AppProfile> &apps,
                  const MultiprogramParams &params)
{
    if (params.boundaries.size() == apps.size())
        return params.boundaries;
    if (params.boundaries.size() == 1) {
        return std::vector<int>(apps.size(), params.boundaries.front());
    }
    capAssert(params.boundaries.empty(),
              "boundaries must be empty, one entry, or one per app");
    // Adaptive: solo-profile each application, as the paper's CAP
    // compiler / runtime environment is assumed to do.
    std::vector<int> chosen;
    for (const trace::AppProfile &app : apps) {
        std::vector<CachePerf> sweep =
            model.sweep(app, params.max_boundary, params.profile_refs);
        size_t best = 0;
        for (size_t k = 1; k < sweep.size(); ++k) {
            if (sweep[k].tpi_ns < sweep[best].tpi_ns)
                best = k;
        }
        chosen.push_back(static_cast<int>(best) + 1);
    }
    return chosen;
}

} // namespace

MultiprogramResult
runMultiprogram(const AdaptiveCacheModel &model,
                const std::vector<trace::AppProfile> &apps,
                uint64_t refs_per_app, const MultiprogramParams &params)
{
    capAssert(!apps.empty(), "multiprogram needs applications");
    capAssert(refs_per_app > 0 && params.quantum_refs > 0,
              "positive reference counts required");

    std::vector<int> boundaries = resolveBoundaries(model, apps, params);

    // One shared hierarchy: quanta pollute each other's working sets.
    cache::ExclusiveHierarchy hierarchy(model.geometry(), boundaries[0]);

    struct Task
    {
        std::unique_ptr<trace::SyntheticTraceSource> source;
        cache::CacheStats quantum_base;
        MultiprogramAppResult result;
        CacheBoundaryTiming timing;
        uint64_t remaining;
    };
    std::vector<Task> tasks;
    for (size_t i = 0; i < apps.size(); ++i) {
        Task task;
        task.source = std::make_unique<trace::SyntheticTraceSource>(
            apps[i].cache, apps[i].seed, refs_per_app);
        task.result.name = apps[i].name;
        task.result.boundary = boundaries[i];
        task.timing = model.boundaryTiming(boundaries[i]);
        task.remaining = refs_per_app;
        tasks.push_back(std::move(task));
    }

    MultiprogramResult result;
    size_t current = 0;
    int previous = -1;
    uint64_t live_tasks = tasks.size();

    // One shared miss clock, like the shared hierarchy: quanta inherit
    // each other's open rows and in-flight misses.
    MissClock clock(model.memConfig());

    while (live_tasks > 0) {
        Task &task = tasks[current];
        if (task.remaining == 0) {
            current = (current + 1) % tasks.size();
            continue;
        }

        // Context switch into this task: restore its configuration.
        if (previous != static_cast<int>(current)) {
            if (previous >= 0) {
                ++result.switches;
                double overhead_ns =
                    static_cast<double>(params.os_switch_cycles) *
                    task.timing.cycle_ns;
                if (tasks[static_cast<size_t>(previous)].result.boundary !=
                    task.result.boundary) {
                    // Clock pause at the incoming clock.
                    overhead_ns +=
                        static_cast<double>(
                            params.clock_switch_penalty_cycles) *
                        task.timing.cycle_ns;
                }
                result.switch_overhead_ns += overhead_ns;
            }
            hierarchy.setBoundary(task.result.boundary);
            previous = static_cast<int>(current);
        }

        // Run one quantum.
        uint64_t quantum = std::min(params.quantum_refs, task.remaining);
        cache::CacheStats before = hierarchy.stats();
        const trace::AppProfile &profile = apps[current];
        clock.pace(task.timing, profile.cache.refs_per_instr);
        walkTrace(*task.source, hierarchy, clock, quantum);
        cache::CacheStats delta = hierarchy.stats() - before;
        task.remaining -= quantum;

        CachePerf perf =
            clock.dram()
                ? model.perfFromDram(delta, task.timing,
                                     profile.cache.refs_per_instr,
                                     clock.takeStall())
                : model.perfFromStats(delta, task.timing,
                                      profile.cache.refs_per_instr);
        task.result.refs += delta.refs;
        task.result.instructions += perf.instructions;
        task.result.time_ns +=
            perf.tpi_ns * static_cast<double>(perf.instructions);

        if (task.remaining == 0)
            --live_tasks;
        current = (current + 1) % tasks.size();
    }

    double app_time = 0.0;
    for (Task &task : tasks) {
        app_time += task.result.time_ns;
        result.apps.push_back(std::move(task.result));
    }
    result.total_time_ns = app_time + result.switch_overhead_ns;
    return result;
}

} // namespace cap::core
