#include "interval_controller.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "ooo/stream.h"
#include "ooo/window_sweep.h"
#include "sample/online_phase.h"
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

} // namespace

IntervalAdaptiveIq::IntervalAdaptiveIq(const AdaptiveIqModel &model,
                                       IntervalPolicyParams params)
    : model_(&model), params_(params)
{
    capAssert(params.ewma_alpha > 0.0 && params.ewma_alpha <= 1.0,
              "ewma_alpha must be in (0,1]");
    // A negative margin would invert the gate: the controller would
    // demand the neighbour be *worse* before moving to it.
    capAssert(params.switch_margin >= 0.0,
              "switch margin must be non-negative");
    capAssert(params.probe_period >= 2, "probe period too short");
    capAssert(params.confidence_needed >= 1, "confidence must be >= 1");
    capAssert(params.interval_instrs > 0, "empty interval");
    if (params.trigger != IntervalTrigger::Period) {
        capAssert(params.probe_period_max >= params.probe_period,
                  "probe backoff ceiling below probe period");
        capAssert(params.phase_distance_threshold > 0.0,
                  "phase distance threshold must be positive");
        capAssert(params.max_phases >= 1, "phase table needs capacity");
    }
}

IntervalRunResult
IntervalAdaptiveIq::run(const trace::AppProfile &app, uint64_t instructions,
                        int initial_entries,
                        const obs::Hooks &hooks) const
{
    std::vector<int> candidates = AdaptiveIqModel::studySizes();
    auto pos = std::find(candidates.begin(), candidates.end(),
                         initial_entries);
    capAssert(pos != candidates.end(),
              "initial queue size %d is not a study configuration",
              initial_entries);
    size_t current = static_cast<size_t>(pos - candidates.begin());

    CAPSIM_SPAN("interval.run");
    SteadyClock::time_point start = SteadyClock::now();

    // Under the phase triggers the core reads through a tap that
    // hands its ops on to the phase detector.  The detector folds
    // each interval after the core has issued past it, and the core
    // fetches at least as far as it issues, so the interval's ops are
    // always in the tap.
    bool phase_aware = params_.trigger != IntervalTrigger::Period;
    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::OpTap tap(stream);
    ooo::CoreParams core_params;
    core_params.queue_entries = candidates[current];
    core_params.dispatch_width = IqMachine::kDispatchWidth;
    core_params.issue_width = IqMachine::kIssueWidth;
    // The live machine is a lane of its own (an empty ladder): the
    // closed form resizes exactly between intervals.
    ooo::WindowSweeper core(phase_aware ? static_cast<ooo::OpSource &>(tap)
                                        : stream,
                            core_params, {});

    obs::Hooks sinks = obs::effectiveHooks(hooks);
    obs::Counter *probe_counter = nullptr;
    obs::Counter *reconfig_counter = nullptr;
    obs::Counter *commit_counter = nullptr;
    obs::FixedHistogram *ipc_hist = nullptr;
    if (sinks.registry) {
        probe_counter = &sinks.registry->counter("interval.probes");
        reconfig_counter =
            &sinks.registry->counter("interval.reconfigurations");
        commit_counter =
            &sinks.registry->counter("interval.committed_moves");
        ipc_hist = &sinks.registry->histogram(
            "interval.ipc", 0.0,
            static_cast<double>(IqMachine::kIssueWidth), 16);
    }

    // EWMA TPI estimate per candidate; negative = no estimate yet.
    // Phase modes swap this array per phase (see notePhase below).
    std::vector<double> estimate(candidates.size(), -1.0);
    // TPI of the most recent non-drained interval (phase modes re-fold
    // it into the new phase's estimates on a transition).
    double last_interval_tpi = -1.0;
    auto fold = [&](size_t cfg, double tpi) {
        estimate[cfg] = estimate[cfg] < 0.0
                            ? tpi
                            : (1.0 - params_.ewma_alpha) * estimate[cfg] +
                              params_.ewma_alpha * tpi;
    };

    IntervalRunResult result;

    // Candidate labels formatted once: the per-interval trace path
    // must not pay a std::to_string allocation per event.
    std::vector<std::string> labels;
    labels.reserve(candidates.size());
    for (int entries : candidates)
        labels.push_back(std::to_string(entries));

    // Reconfigure the live core, charging drain cycles at the old
    // clock and the clock-switch pause at the new clock.
    auto reconfigure = [&](size_t to) {
        if (to == current)
            return;
        Nanoseconds old_cycle = model_->cycleNs(candidates[current]);
        Nanoseconds new_cycle = model_->cycleNs(candidates[to]);
        double event_start_ns = result.total_time_ns;
        Cycles drained = core.resize(candidates[to]);
        double drain_ns = static_cast<double>(drained) * old_cycle;
        double penalty_ns =
            static_cast<double>(params_.switch_penalty_cycles) * new_cycle;
        result.total_time_ns += drain_ns + penalty_ns;
        ++result.reconfigurations;
        CAPSIM_OBS_COUNT(reconfig_counter, 1);
        if (sinks.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::Reconfig;
            event.lane = app.name;
            event.app = app.name;
            event.config = labels[to];
            event.start_ns = event_start_ns;
            event.duration_ns = drain_ns + penalty_ns;
            event.from_config = candidates[current];
            event.to_config = candidates[to];
            event.drain_cycles = drained;
            event.penalty_ns = penalty_ns;
            sinks.trace->add(std::move(event));
            if (old_cycle != new_cycle) {
                obs::TraceEvent clock;
                clock.kind = obs::EventKind::ClockChange;
                clock.lane = app.name;
                clock.app = app.name;
                clock.config = labels[to];
                clock.start_ns = result.total_time_ns;
                clock.ghz_before = 1.0 / old_cycle;
                clock.ghz_after = 1.0 / new_cycle;
                sinks.trace->add(std::move(clock));
            }
        }
        current = to;
    };

    // Run @p count instructions at the current configuration; returns
    // the instructions actually retired (how many ops the phase
    // detector folds for the interval).
    auto runInterval = [&](uint64_t count) -> uint64_t {
        if (count == 0)
            return 0;
        double event_start_ns = result.total_time_ns;
        ooo::RunResult run = core.step(count);
        Nanoseconds cycle = model_->cycleNs(candidates[current]);
        double time_ns = static_cast<double>(run.cycles) * cycle;
        result.total_time_ns += time_ns;
        result.instructions += run.instructions;
        result.config_trace.push_back(candidates[current]);
        // A drained interval retires nothing; folding it would poison
        // the EWMA estimates with NaN/inf.
        if (run.instructions != 0) {
            last_interval_tpi =
                time_ns / static_cast<double>(run.instructions);
            fold(current, last_interval_tpi);
            CAPSIM_OBS_SAMPLE(ipc_hist, run.ipc());
        }
        if (sinks.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::Interval;
            event.lane = app.name;
            event.app = app.name;
            event.config = labels[current];
            event.interval = result.config_trace.size() - 1;
            event.retired = run.instructions;
            event.cycles = run.cycles;
            event.start_ns = event_start_ns;
            event.duration_ns = time_ns;
            event.ipc = run.ipc();
            event.tpi_ns =
                run.instructions
                    ? time_ns / static_cast<double>(run.instructions)
                    : 0.0;
            event.ewma_tpi_ns = estimate[current];
            sinks.trace->add(std::move(event));
        }
        return run.instructions;
    };

    // One Decision record per probe: which neighbour was evaluated,
    // what the EWMA estimates said, and what the controller did.
    auto recordDecision = [&](const char *verdict, size_t home,
                              size_t cand, size_t chosen,
                              int confidence_now) {
        CAPSIM_OBS_COUNT(probe_counter, 1);
        if (!sinks.trace)
            return;
        obs::TraceEvent event;
        event.kind = obs::EventKind::Decision;
        event.lane = app.name;
        event.app = app.name;
        event.config = labels[chosen];
        event.interval = result.config_trace.empty()
                             ? 0
                             : result.config_trace.size() - 1;
        event.start_ns = result.total_time_ns;
        event.decision = verdict;
        event.candidate = candidates[cand];
        event.chosen = candidates[chosen];
        event.confidence = confidence_now;
        event.ewma_home_tpi_ns = estimate[home];
        event.ewma_candidate_tpi_ns = estimate[cand];
        sinks.trace->add(std::move(event));
    };

    uint64_t total_intervals = instructions / params_.interval_instrs;
    result.config_trace.reserve(total_intervals);
    if (sinks.trace) {
        // One Interval record per interval, one Decision per probe,
        // at most a Reconfig + ClockChange pair per probe, and (phase
        // modes) at most one Phase record per interval.
        uint64_t probes = total_intervals / params_.probe_period + 1;
        sinks.trace->reserve(sinks.trace->size() + total_intervals +
                             3 * probes +
                             (phase_aware ? total_intervals : 0));
    }

    // Phase-trigger state (never constructed under Period, so the
    // fixed-period path is untouched by the detector's existence).
    std::unique_ptr<sample::OnlinePhaseDetector> detector;
    obs::Counter *phase_transition_counter = nullptr;
    obs::Counter *phase_new_counter = nullptr;
    obs::Counter *phase_snap_counter = nullptr;
    obs::Gauge *phase_count_gauge = nullptr;
    if (phase_aware) {
        sample::OnlinePhaseParams phase_params;
        phase_params.distance_threshold = params_.phase_distance_threshold;
        phase_params.max_phases = params_.max_phases;
        detector =
            std::make_unique<sample::OnlinePhaseDetector>(phase_params);
        if (sinks.registry) {
            phase_transition_counter =
                &sinks.registry->counter("phase.transitions");
            phase_new_counter =
                &sinks.registry->counter("phase.new_phases");
            phase_snap_counter = &sinks.registry->counter("phase.snaps");
            phase_count_gauge = &sinks.registry->gauge("phase.count");
        }
        result.phase_trace.reserve(total_intervals + 1);
    }

    // Phase ID -> best known configuration (candidate index) and how
    // many probe rounds have confirmed it.
    struct PhaseBest
    {
        int config_idx = -1;
        int confidence = 0;
    };
    std::vector<PhaseBest> phase_memory;
    // Each phase also keeps private EWMA estimates: a measurement
    // taken in one behaviour says nothing about configurations in
    // another, and folding them into one array makes every
    // post-transition verdict start from stale cross-phase data.
    std::vector<std::vector<double>> phase_estimates;

    int probe_direction = 1;
    int confidence = 0;
    size_t pending_move = current;
    // Phase-mode probe scheduling: probes fire every backoff_period
    // intervals while climbing (or always, under Hybrid); the period
    // doubles on each settled probe up to probe_period_max and resets
    // on commits and phase transitions.
    int backoff_period = params_.probe_period;
    uint64_t since_probe = 0;
    bool probe_requested = false;
    bool climbing = true;
    // Consecutive rejected probes.  A single reject only says one
    // neighbour is worse -- the alternating probe may simply have
    // looked the wrong way mid-climb -- so the climb settles (and the
    // probe period starts backing off) only once both directions have
    // rejected in a row.
    int rejects_in_a_row = 0;
    // Climb-mode confidence, one slot per probe direction (down, up).
    // The classic single pending-move gate is unreachable mid-climb:
    // when both neighbours measure better than home the alternating
    // probe steals the pending slot every round and confidence pins
    // at 1, so each direction accumulates its own consecutive-better
    // count instead.
    int climb_conf[2] = {0, 0};
    int snap_to = -1;
    int snap_confidence = 0;

    auto rememberBest = [&](size_t cfg) {
        if (!detector || detector->intervalsObserved() == 0)
            return;
        size_t phase = static_cast<size_t>(detector->currentPhase());
        if (phase >= phase_memory.size())
            phase_memory.resize(phase + 1);
        PhaseBest &mem = phase_memory[phase];
        if (mem.config_idx == static_cast<int>(cfg)) {
            ++mem.confidence;
        } else {
            mem.config_idx = static_cast<int>(cfg);
            mem.confidence = 1;
        }
    };

    // Feed one executed interval to the detector and react to a phase
    // transition: reset the probing cadence and the confidence gate,
    // and either schedule a snap to the phase's remembered
    // configuration or request an immediate probe.
    auto notePhase = [&](uint64_t retired) {
        if (!detector || retired == 0)
            return;
        sample::PhaseObservation seen =
            detector->observeOps(tap.take(retired), retired);
        result.phase_trace.push_back(seen.phase);
        if (static_cast<size_t>(seen.phase) >= phase_memory.size()) {
            phase_memory.resize(static_cast<size_t>(seen.phase) + 1);
            phase_estimates.resize(static_cast<size_t>(seen.phase) + 1);
        }
        if (phase_count_gauge)
            phase_count_gauge->set(
                static_cast<double>(detector->phaseCount()));
        if (seen.new_phase)
            CAPSIM_OBS_COUNT(phase_new_counter, 1);
        if (!seen.transition)
            return;
        ++result.phase_transitions;
        CAPSIM_OBS_COUNT(phase_transition_counter, 1);
        if (sinks.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::Phase;
            event.lane = app.name;
            event.app = app.name;
            event.config = labels[current];
            event.interval = result.config_trace.size() - 1;
            event.start_ns = result.total_time_ns;
            event.cluster = seen.phase;
            event.from_config = seen.previous;
            event.to_config = seen.phase;
            event.decision = seen.new_phase ? "new" : "recur";
            sinks.trace->add(std::move(event));
        }
        backoff_period = params_.probe_period;
        confidence = 0;
        pending_move = current;
        rejects_in_a_row = 0;
        climb_conf[0] = climb_conf[1] = 0;
        // Swap in the new phase's private estimates.  The interval
        // that revealed the transition ran in the new phase, so its
        // measurement is re-folded there (giving the probe logic a
        // home estimate without waiting another interval).
        phase_estimates[static_cast<size_t>(seen.previous)] = estimate;
        std::vector<double> &incoming =
            phase_estimates[static_cast<size_t>(seen.phase)];
        if (incoming.empty())
            incoming.assign(estimate.size(), -1.0);
        estimate = incoming;
        if (last_interval_tpi >= 0.0)
            fold(current, last_interval_tpi);
        const PhaseBest &mem =
            phase_memory[static_cast<size_t>(seen.phase)];
        if (mem.config_idx >= 0) {
            // Recurring phase: snap to its remembered configuration at
            // the next interval boundary instead of re-climbing.
            snap_to = mem.config_idx != static_cast<int>(current)
                          ? mem.config_idx
                          : -1;
            snap_confidence = mem.confidence;
            probe_requested = false;
            // Trust the memory outright only once repeated occurrences
            // have confirmed it; a configuration remembered from one
            // partial climb keeps climbing after the snap.
            climbing = mem.confidence < 2;
            since_probe = 0;
        } else {
            snap_to = -1;
            probe_requested = true;
            climbing = true;
        }
    };

    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        bool probe_now;
        if (!phase_aware) {
            probe_now = params_.probe_period > 0 &&
                        interval % static_cast<uint64_t>(
                                       params_.probe_period) ==
                            static_cast<uint64_t>(params_.probe_period) - 1;
        } else {
            if (snap_to >= 0) {
                size_t to = static_cast<size_t>(snap_to);
                size_t from = current;
                snap_to = -1;
                reconfigure(to);
                ++result.phase_snaps;
                ++result.committed_moves;
                CAPSIM_OBS_COUNT(commit_counter, 1);
                CAPSIM_OBS_COUNT(phase_snap_counter, 1);
                recordDecision("snap", from, to, to, snap_confidence);
            }
            // While climbing, probe every other interval (the home
            // interval in between keeps the home estimate fresh).
            // Once settled, Hybrid probes at the backed-off period
            // while PhaseChange drops straight to the ceiling -- a
            // slow safety net so a configuration remembered wrongly
            // can still be corrected.  A verdict needs a home
            // measurement in *this* phase first, so probing holds off
            // until one exists.
            constexpr int kClimbPeriod = 2;
            int period = climbing ? kClimbPeriod
                         : params_.trigger == IntervalTrigger::Hybrid
                             ? backoff_period
                             : params_.probe_period_max;
            bool cadence =
                since_probe + 1 >= static_cast<uint64_t>(period);
            bool home_known = estimate[current] >= 0.0;
            probe_now = home_known && (probe_requested || cadence);
        }
        if (!probe_now) {
            uint64_t retired = runInterval(params_.interval_instrs);
            ++since_probe;
            notePhase(retired);
            continue;
        }
        since_probe = 0;
        probe_requested = false;

        // Probe a neighbour for one interval, then decide.
        size_t home = current;
        int direction = probe_direction;
        probe_direction = -probe_direction;
        int64_t neighbour_idx = static_cast<int64_t>(home) + direction;
        if (neighbour_idx < 0 ||
            neighbour_idx >= static_cast<int64_t>(candidates.size())) {
            // At the ladder's end the alternation points outside the
            // candidate range; probe the one valid neighbour instead
            // of skipping the round (which would halve the effective
            // probe rate at the extremes).
            neighbour_idx = static_cast<int64_t>(home) - direction;
        }
        if (neighbour_idx < 0 ||
            neighbour_idx >= static_cast<int64_t>(candidates.size())) {
            // Single-configuration ladder: nothing to probe.
            uint64_t retired = runInterval(params_.interval_instrs);
            notePhase(retired);
            continue;
        }
        size_t neighbour = static_cast<size_t>(neighbour_idx);

        reconfigure(neighbour);
        uint64_t probe_retired = runInterval(params_.interval_instrs);

        // The switch margin guards steady state against needless
        // reconfiguration; during an active climb it would stall the
        // ascent on rungs whose individual gain is below the margin
        // even when the phase's optimum is several rungs away, so a
        // climbing probe commits on any measured gain (the confidence
        // gate still applies).
        double margin = phase_aware && climbing
                            ? 0.0
                            : params_.switch_margin;
        bool neighbour_better =
            estimate[neighbour] >= 0.0 && estimate[home] >= 0.0 &&
            estimate[neighbour] < estimate[home] * (1.0 - margin);

        if (!params_.use_confidence) {
            if (!neighbour_better) {
                reconfigure(home);
                recordDecision("reject", home, neighbour, home, 0);
                if (phase_aware && ++rejects_in_a_row >= 2) {
                    rememberBest(home);
                    backoff_period = std::min(backoff_period * 2,
                                              params_.probe_period_max);
                    climbing = false;
                }
            } else {
                ++result.committed_moves;
                CAPSIM_OBS_COUNT(commit_counter, 1);
                recordDecision("commit", home, neighbour, neighbour, 0);
                if (phase_aware) {
                    rememberBest(neighbour);
                    rejects_in_a_row = 0;
                    backoff_period = params_.probe_period;
                    climbing = true;
                }
            }
            notePhase(probe_retired);
            continue;
        }

        bool commit_now;
        int verdict_conf;
        if (phase_aware && climbing) {
            int di = neighbour > home ? 1 : 0;
            if (neighbour_better)
                ++climb_conf[di];
            else
                climb_conf[di] = 0;
            verdict_conf = climb_conf[di];
            commit_now = neighbour_better &&
                         climb_conf[di] >= params_.confidence_needed;
        } else {
            if (neighbour_better && pending_move == neighbour) {
                ++confidence;
            } else if (neighbour_better) {
                pending_move = neighbour;
                confidence = 1;
            } else if (pending_move == neighbour) {
                pending_move = home;
                confidence = 0;
            }
            verdict_conf = confidence;
            commit_now = neighbour_better &&
                         confidence >= params_.confidence_needed;
        }

        if (!commit_now) {
            // Not confident enough: return to the home configuration.
            reconfigure(home);
            // "revert": the candidate looked better but the gate held;
            // "reject": the margin was not met at all.
            recordDecision(neighbour_better ? "revert" : "reject", home,
                           neighbour, home, verdict_conf);
            if (phase_aware) {
                if (neighbour_better) {
                    // The gate held with a pending move: keep the base
                    // cadence so the gate resolves quickly.
                    rejects_in_a_row = 0;
                    backoff_period = params_.probe_period;
                } else if (++rejects_in_a_row >= 2) {
                    rememberBest(home);
                    backoff_period = std::min(backoff_period * 2,
                                              params_.probe_period_max);
                    climbing = false;
                    climb_conf[0] = climb_conf[1] = 0;
                    confidence = 0;
                    pending_move = home;
                }
            }
        } else {
            confidence = 0;
            pending_move = neighbour;
            ++result.committed_moves;
            CAPSIM_OBS_COUNT(commit_counter, 1);
            recordDecision("commit", home, neighbour, neighbour,
                           verdict_conf);
            if (phase_aware) {
                rememberBest(neighbour);
                rejects_in_a_row = 0;
                backoff_period = params_.probe_period;
                climbing = true;
                climb_conf[0] = climb_conf[1] = 0;
            }
        }
        notePhase(probe_retired);
    }

    // The final partial interval: too short to probe, but its
    // instructions are part of the run and must be simulated and
    // credited.
    runInterval(instructions % params_.interval_instrs);
    if (sinks.registry)
        core.foldLaneMetrics(core.liveLane(), *sinks.registry);

    result.telemetry.jobs = 1;
    result.telemetry.wall_seconds = secondsSince(start);
    result.telemetry.reconfigurations =
        static_cast<uint64_t>(result.reconfigurations);
    result.telemetry.cells.push_back({app.name, "interval-controller",
                                      result.telemetry.wall_seconds,
                                      currentWorkerId()});
    return result;
}

std::vector<std::vector<IqIntervalCost>>
intervalOracleCosts(const trace::AppProfile &app, uint64_t instructions,
                    const std::vector<int> &candidates,
                    uint64_t interval_instrs)
{
    capAssert(!candidates.empty(), "oracle needs candidates");
    capAssert(interval_instrs > 0, "empty interval");
    CAPSIM_SPAN("oracle.onepass");

    // Each interval advances every lane to its *own* chained issue
    // target (issued-so-far + interval length): a machine's step()
    // stops at the first cycle where the issued count crosses its
    // target and chains the next target off the overshot count, so
    // per-lane chained advancement reproduces every lane's interval
    // boundaries -- and hence cycle deltas -- bit-identically.
    // Precomputed absolute marks would not: each lane's boundaries
    // depend on its own overshoot history.
    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::CoreParams params;
    params.queue_entries = candidates[0];
    params.dispatch_width = IqMachine::kDispatchWidth;
    params.issue_width = IqMachine::kIssueWidth;
    ooo::WindowSweeper sweeper(stream, params, candidates);
    // Lanes spread up to one interval apart, so the shared ring must
    // cover that span.
    sweeper.reserveSpan(interval_instrs);

    uint64_t full_intervals = instructions / interval_instrs;
    uint64_t tail_instrs = instructions % interval_instrs;
    uint64_t total_intervals = full_intervals + (tail_instrs ? 1 : 0);
    std::vector<std::vector<IqIntervalCost>> costs(candidates.size());
    std::vector<size_t> lane_of(candidates.size());
    for (size_t li = 0; li < candidates.size(); ++li) {
        for (size_t lane = 0; lane < sweeper.laneCount(); ++lane) {
            if (sweeper.laneEntries(lane) == candidates[li]) {
                lane_of[li] = lane;
                break;
            }
        }
        costs[li].reserve(total_intervals);
    }
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        uint64_t instrs =
            interval < full_intervals ? interval_instrs : tail_instrs;
        for (size_t li = 0; li < candidates.size(); ++li) {
            size_t lane = lane_of[li];
            Cycles before = sweeper.laneCycles(lane);
            sweeper.advanceLaneTo(lane, sweeper.laneIssued(lane) + instrs);
            costs[li].push_back({sweeper.laneCycles(lane) - before, instrs});
        }
    }
    return costs;
}

IntervalRunResult
runIntervalOracle(const AdaptiveIqModel &model,
                  const trace::AppProfile &app, uint64_t instructions,
                  const std::vector<int> &candidates,
                  uint64_t interval_instrs, bool charge_switches,
                  Cycles switch_penalty_cycles, int /*jobs*/,
                  const obs::Hooks &hooks)
{
    obs::Hooks sinks = obs::effectiveHooks(hooks);
    if (sinks.progress)
        sinks.progress->beginRun("interval-oracle", 1, 1);
    SteadyClock::time_point start = SteadyClock::now();
    std::vector<std::vector<IqIntervalCost>> lane_costs =
        intervalOracleCosts(app, instructions, candidates,
                            interval_instrs);
    double walk_seconds = secondsSince(start);
    if (sinks.progress) {
        sinks.progress->noteCellDone(
            0, static_cast<uint64_t>(walk_seconds * 1e9));
        sinks.progress->endRun();
    }
    CAPSIM_SPAN("oracle.reduce");

    std::vector<Nanoseconds> lane_cycle_ns;
    for (int entries : candidates)
        lane_cycle_ns.push_back(model.cycleNs(entries));
    size_t total_intervals = lane_costs[0].size();

    // Serial winner reduction; the trace (like the result) is emitted
    // here, on the orchestrator thread only.
    IntervalRunResult result;
    obs::Counter *oracle_switches =
        sinks.registry
            ? &sinks.registry->counter("oracle.reconfigurations")
            : nullptr;
    obs::Counter *oracle_intervals =
        sinks.registry ? &sinks.registry->counter("oracle.intervals")
                       : nullptr;
    std::string oracle_lane = app.name + "/oracle";
    int previous_winner = -1;
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        double best_time = std::numeric_limits<double>::infinity();
        size_t winner_lane = 0;
        int winner = -1;
        for (size_t li = 0; li < candidates.size(); ++li) {
            double time_ns =
                static_cast<double>(lane_costs[li][interval].cycles) *
                lane_cycle_ns[li];
            if (time_ns < best_time) {
                best_time = time_ns;
                winner = candidates[li];
                winner_lane = li;
            }
        }
        // Accumulation order (best_time, then penalty) matches the
        // uninstrumented implementation bit for bit; the trace merely
        // re-derives the simulated-timeline positions.
        double interval_start_ns = result.total_time_ns;
        bool switched = previous_winner >= 0 && winner != previous_winner;
        double penalty_ns =
            switched && charge_switches
                ? static_cast<double>(switch_penalty_cycles) *
                      model.cycleNs(winner)
                : 0.0;
        result.total_time_ns += best_time;
        // Credit what the winning lane actually retired: on a short
        // final interval this is less than interval_instrs, and
        // crediting the nominal length would overstate the TPI
        // denominator.
        uint64_t retired = lane_costs[winner_lane][interval].instructions;
        result.instructions += retired;
        result.config_trace.push_back(winner);
        CAPSIM_OBS_COUNT(oracle_intervals, 1);
        if (switched) {
            ++result.reconfigurations;
            CAPSIM_OBS_COUNT(oracle_switches, 1);
            if (charge_switches)
                result.total_time_ns += penalty_ns;
            if (sinks.trace) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::Reconfig;
                event.lane = oracle_lane;
                event.app = app.name;
                event.config = std::to_string(winner);
                event.start_ns = interval_start_ns;
                event.duration_ns = penalty_ns;
                event.from_config = previous_winner;
                event.to_config = winner;
                event.penalty_ns = penalty_ns;
                sinks.trace->add(std::move(event));
            }
        }
        if (sinks.trace) {
            Cycles cycles = lane_costs[winner_lane][interval].cycles;
            obs::TraceEvent event;
            event.kind = obs::EventKind::Interval;
            event.lane = oracle_lane;
            event.app = app.name;
            event.config = std::to_string(winner);
            event.interval = interval;
            event.retired = retired;
            event.cycles = cycles;
            event.start_ns = interval_start_ns + penalty_ns;
            event.duration_ns = best_time;
            event.ipc = cycles ? static_cast<double>(retired) /
                                     static_cast<double>(cycles)
                               : 0.0;
            event.tpi_ns = retired ? best_time /
                                         static_cast<double>(retired)
                                   : 0.0;
            sinks.trace->add(std::move(event));
        }
        previous_winner = winner;
    }

    result.telemetry.jobs = 1;
    result.telemetry.wall_seconds = secondsSince(start);
    result.telemetry.reconfigurations =
        static_cast<uint64_t>(result.reconfigurations);
    result.telemetry.cells.push_back(
        {app.name, "onepass x" + std::to_string(candidates.size()),
         walk_seconds, 0});
    return result;
}

} // namespace cap::core
