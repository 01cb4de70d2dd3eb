#include "profile_guided.h"

#include <limits>

#include "ooo/stream.h"
#include "ooo/window_sweep.h"
#include "util/status.h"

namespace cap::core {

ConfigSchedule
buildScheduleFromProfile(const AdaptiveIqModel &model,
                         const trace::AppProfile &app,
                         uint64_t instructions,
                         const std::vector<int> &candidates,
                         uint64_t interval_instrs, int hysteresis)
{
    capAssert(!candidates.empty(), "profiling needs candidates");
    capAssert(hysteresis >= 1, "hysteresis must be positive");

    // Per-interval winners, scored from the interval oracle's
    // one-pass walk (one chained lane per candidate).
    std::vector<std::vector<IqIntervalCost>> costs =
        intervalOracleCosts(app, instructions, candidates, interval_instrs);
    std::vector<int> winners;
    uint64_t total_intervals = instructions / interval_instrs;
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        double best_time = std::numeric_limits<double>::infinity();
        int winner = candidates.front();
        for (size_t li = 0; li < candidates.size(); ++li) {
            double time_ns =
                static_cast<double>(costs[li][interval].cycles) *
                model.cycleNs(candidates[li]);
            if (time_ns < best_time) {
                best_time = time_ns;
                winner = candidates[li];
            }
        }
        winners.push_back(winner);
    }

    // Compress with hysteresis: adopt a new configuration only at the
    // start of a run of at least `hysteresis` identical winners.
    ConfigSchedule schedule;
    if (winners.empty())
        return schedule;
    int active = winners.front();
    schedule.push_back({0, active});
    size_t i = 0;
    while (i < winners.size()) {
        if (winners[i] == active) {
            ++i;
            continue;
        }
        // Length of the run of this new winner.
        size_t j = i;
        while (j < winners.size() && winners[j] == winners[i])
            ++j;
        if (j - i >= static_cast<size_t>(hysteresis)) {
            active = winners[i];
            schedule.push_back({i, active});
        }
        i = j;
    }
    return schedule;
}

IntervalRunResult
runWithSchedule(const AdaptiveIqModel &model, const trace::AppProfile &app,
                uint64_t instructions, const ConfigSchedule &schedule,
                uint64_t interval_instrs, Cycles switch_penalty_cycles)
{
    capAssert(!schedule.empty(), "empty schedule");
    for (size_t i = 1; i < schedule.size(); ++i) {
        capAssert(schedule[i].start_interval >
                  schedule[i - 1].start_interval,
                  "schedule segments must be strictly increasing");
    }

    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::CoreParams params;
    params.queue_entries = schedule.front().entries;
    params.dispatch_width = IqMachine::kDispatchWidth;
    params.issue_width = IqMachine::kIssueWidth;
    ooo::WindowSweeper core(stream, params, {});

    IntervalRunResult result;
    int current = schedule.front().entries;
    size_t next_segment = 1;
    uint64_t total_intervals = instructions / interval_instrs;
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        if (next_segment < schedule.size() &&
            schedule[next_segment].start_interval == interval) {
            int target = schedule[next_segment].entries;
            ++next_segment;
            if (target != current) {
                Nanoseconds old_cycle = model.cycleNs(current);
                Cycles drained = core.resize(target);
                result.total_time_ns +=
                    static_cast<double>(drained) * old_cycle;
                result.total_time_ns +=
                    static_cast<double>(switch_penalty_cycles) *
                    model.cycleNs(target);
                ++result.reconfigurations;
                ++result.committed_moves;
                current = target;
            }
        }
        ooo::RunResult run = core.step(interval_instrs);
        result.total_time_ns += static_cast<double>(run.cycles) *
                                model.cycleNs(current);
        result.instructions += run.instructions;
        result.config_trace.push_back(current);
    }
    return result;
}

} // namespace cap::core
