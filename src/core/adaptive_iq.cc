#include "adaptive_iq.h"

#include <algorithm>

#include "ooo/stream.h"
#include "ooo/window_sweep.h"
#include "util/status.h"

namespace cap::core {

AdaptiveIqModel::AdaptiveIqModel(const timing::Technology &tech)
    : issue_logic_(tech)
{
}

std::vector<int>
AdaptiveIqModel::studySizes()
{
    std::vector<int> sizes;
    for (int n = IqMachine::kMinEntries; n <= IqMachine::kMaxEntries;
         n += IqMachine::kEntryStep) {
        sizes.push_back(n);
    }
    return sizes;
}

Nanoseconds
AdaptiveIqModel::cycleNs(int entries) const
{
    return clock_table_.cycleFor(issue_logic_.cycleTime(entries));
}

std::vector<IqTiming>
AdaptiveIqModel::allTimings() const
{
    std::vector<IqTiming> timings;
    for (int entries : studySizes())
        timings.push_back({entries, cycleNs(entries)});
    return timings;
}

IqPerf
AdaptiveIqModel::evaluate(const trace::AppProfile &app, int entries,
                          uint64_t instructions) const
{
    capAssert(instructions > 0, "evaluation needs instructions");
    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::CoreParams params;
    params.queue_entries = entries;
    params.dispatch_width = IqMachine::kDispatchWidth;
    params.issue_width = IqMachine::kIssueWidth;
    ooo::CoreModel model(stream, params);

    ooo::RunResult run = model.step(instructions);

    IqPerf perf;
    perf.entries = entries;
    perf.instructions = run.instructions;
    perf.cycles = run.cycles;
    perf.ipc = run.ipc();
    perf.tpi_ns = perf.ipc > 0.0 ? cycleNs(entries) / perf.ipc : 0.0;
    return perf;
}

IqPerf
AdaptiveIqModel::evaluateObserved(const trace::AppProfile &app,
                                  int entries, uint64_t instructions,
                                  uint64_t interval_instrs,
                                  obs::DecisionTrace *trace,
                                  obs::CounterRegistry *registry) const
{
    if (!trace && !registry)
        return evaluate(app, entries, instructions);
    capAssert(instructions > 0, "evaluation needs instructions");
    capAssert(interval_instrs > 0, "interval length must be positive");

    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::CoreParams params;
    params.queue_entries = entries;
    params.dispatch_width = IqMachine::kDispatchWidth;
    params.issue_width = IqMachine::kIssueWidth;
    ooo::CoreModel model(stream, params);
    if (registry)
        model.attachMetrics(*registry);

    Nanoseconds cycle = cycleNs(entries);
    std::string config = std::to_string(entries);
    std::string lane = app.name + "/" + config;

    // Chunk against *absolute* issue targets so the tick sequence --
    // and therefore the result -- is bit-identical to the single
    // step() of evaluate().  A relative step(interval_instrs) per
    // chunk would drift: step() overshoots its target by up to the
    // issue width, and relative chunking compounds the overshoot.
    // Crediting is nominal per interval (the step() convention), so
    // the interval records' retired counts sum to @p instructions
    // exactly.
    IqPerf perf;
    perf.entries = entries;
    double sim_ns = 0.0;
    uint64_t interval_id = 0;
    uint64_t done = 0;
    while (done < instructions) {
        uint64_t nominal = std::min(interval_instrs, instructions - done);
        uint64_t target = done + nominal;
        uint64_t issued = model.issuedInstructions();
        Cycles cycles_before = model.cycleCount();
        if (issued < target)
            model.step(target - issued);
        Cycles interval_cycles = model.cycleCount() - cycles_before;
        done = target;
        double duration_ns = static_cast<double>(interval_cycles) * cycle;
        if (trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::Interval;
            event.lane = lane;
            event.app = app.name;
            event.config = config;
            event.interval = interval_id;
            event.retired = nominal;
            event.cycles = interval_cycles;
            event.start_ns = sim_ns;
            event.duration_ns = duration_ns;
            event.ipc = interval_cycles
                            ? static_cast<double>(nominal) /
                                  static_cast<double>(interval_cycles)
                            : 0.0;
            event.tpi_ns =
                nominal ? duration_ns / static_cast<double>(nominal)
                        : 0.0;
            trace->add(std::move(event));
        }
        sim_ns += duration_ns;
        ++interval_id;
    }
    perf.instructions = instructions;
    perf.cycles = model.cycleCount();
    perf.ipc = perf.cycles ? static_cast<double>(perf.instructions) /
                             static_cast<double>(perf.cycles)
                           : 0.0;
    perf.tpi_ns = perf.ipc > 0.0 ? cycle / perf.ipc : 0.0;
    return perf;
}

std::vector<IqPerf>
AdaptiveIqModel::sweep(const trace::AppProfile &app,
                       uint64_t instructions) const
{
    return sweepObserved(app, instructions, kIntervalInstructions,
                         nullptr, nullptr);
}

std::vector<IqPerf>
AdaptiveIqModel::sweepObserved(const trace::AppProfile &app,
                               uint64_t instructions,
                               uint64_t interval_instrs,
                               obs::DecisionTrace *trace,
                               obs::CounterRegistry *registry) const
{
    capAssert(instructions > 0, "evaluation needs instructions");
    capAssert(interval_instrs > 0, "interval length must be positive");

    std::vector<int> sizes = studySizes();
    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::CoreParams params;
    params.queue_entries = sizes.front();
    params.dispatch_width = IqMachine::kDispatchWidth;
    params.issue_width = IqMachine::kIssueWidth;
    ooo::WindowSweeper sweeper(stream, params, sizes);

    // The absolute per-interval issue targets of evaluateObserved()'s
    // chunking, marked on every lane so one advance captures each
    // size's interval boundaries.
    std::vector<uint64_t> targets;
    for (uint64_t done = 0; done < instructions;) {
        uint64_t nominal = std::min(interval_instrs, instructions - done);
        done += nominal;
        targets.push_back(done);
    }
    for (size_t lane = 0; lane < sweeper.laneCount(); ++lane)
        for (uint64_t target : targets)
            sweeper.addLaneMark(lane, target);
    sweeper.advanceAllTo(instructions);

    // Emit per size in ladder order, all of one size's intervals
    // before the next: exactly the order evaluateObserved() at each
    // size emits in, so trace and registry match byte for byte.
    std::vector<IqPerf> results;
    results.reserve(sweeper.laneCount());
    for (size_t lane = 0; lane < sweeper.laneCount(); ++lane) {
        int entries = sweeper.laneEntries(lane);
        Nanoseconds cycle = cycleNs(entries);
        std::string config = std::to_string(entries);
        std::string lane_name = app.name + "/" + config;
        const std::vector<Cycles> &ticks = sweeper.laneMarkTicks(lane);
        capAssert(ticks.size() == targets.size(),
                  "lane missed interval marks");

        double sim_ns = 0.0;
        uint64_t done = 0;
        Cycles prev = 0;
        for (size_t k = 0; k < targets.size(); ++k) {
            uint64_t nominal = targets[k] - done;
            Cycles interval_cycles = ticks[k] - prev;
            double duration_ns =
                static_cast<double>(interval_cycles) * cycle;
            if (trace) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::Interval;
                event.lane = lane_name;
                event.app = app.name;
                event.config = config;
                event.interval = k;
                event.retired = nominal;
                event.cycles = interval_cycles;
                event.start_ns = sim_ns;
                event.duration_ns = duration_ns;
                event.ipc = interval_cycles
                                ? static_cast<double>(nominal) /
                                      static_cast<double>(interval_cycles)
                                : 0.0;
                event.tpi_ns =
                    nominal ? duration_ns / static_cast<double>(nominal)
                            : 0.0;
                trace->add(std::move(event));
            }
            sim_ns += duration_ns;
            prev = ticks[k];
            done = targets[k];
        }

        IqPerf perf;
        perf.entries = entries;
        perf.instructions = instructions;
        perf.cycles = sweeper.laneCycles(lane);
        perf.ipc = perf.cycles ? static_cast<double>(perf.instructions) /
                                     static_cast<double>(perf.cycles)
                               : 0.0;
        perf.tpi_ns = perf.ipc > 0.0 ? cycle / perf.ipc : 0.0;
        if (registry)
            sweeper.foldLaneMetrics(lane, *registry);
        results.push_back(perf);
    }
    if (registry) {
        registry->counter("windowsweep.sweeps").add(1);
        registry->counter("windowsweep.instructions").add(instructions);
        registry->counter("windowsweep.lanes")
            .add(static_cast<uint64_t>(sweeper.laneCount()));
    }
    return results;
}

IntervalSeries
AdaptiveIqModel::intervalSeries(const trace::AppProfile &app, int entries,
                                uint64_t instructions,
                                uint64_t interval_instrs) const
{
    capAssert(interval_instrs > 0, "interval length must be positive");
    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::CoreParams params;
    params.queue_entries = entries;
    params.dispatch_width = IqMachine::kDispatchWidth;
    params.issue_width = IqMachine::kIssueWidth;
    ooo::CoreModel model(stream, params);

    Nanoseconds cycle = cycleNs(entries);
    IntervalSeries series;
    for (uint64_t done = 0; done + interval_instrs <= instructions;
         done += interval_instrs) {
        ooo::RunResult run = model.step(interval_instrs);
        double tpi = cycle * static_cast<double>(run.cycles) /
                     static_cast<double>(run.instructions);
        series.add(tpi);
    }
    return series;
}

} // namespace cap::core
