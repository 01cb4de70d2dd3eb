#include "interval_cache.h"

#include <algorithm>
#include <limits>

#include "cache/exclusive_hierarchy.h"
#include "cache/stack_sim.h"
#include "trace/stream.h"
#include "util/status.h"

namespace cap::core {

namespace {

/** Price one interval's stats @p delta at @p timing, taking the miss
 *  stall @p clock accrued over it. */
CacheIntervalCost
priceInterval(const AdaptiveCacheModel &model,
              const cache::CacheStats &delta,
              const CacheBoundaryTiming &timing, double refs_per_instr,
              MissClock &clock)
{
    Nanoseconds stall = clock.takeStall();
    CachePerf perf =
        clock.dram()
            ? model.perfFromDram(delta, timing, refs_per_instr, stall)
            : model.perfFromStats(delta, timing, refs_per_instr);
    return {perf.tpi_ns * static_cast<double>(perf.instructions),
            perf.instructions, stall};
}

/** Run one interval of @p interval_refs on a live hierarchy, pricing
 *  misses on @p clock (its DRAM state and time carry across
 *  intervals). */
CacheIntervalCost
runInterval(const AdaptiveCacheModel &model,
            cache::ExclusiveHierarchy &hierarchy,
            trace::SyntheticTraceSource &source, uint64_t interval_refs,
            const CacheBoundaryTiming &timing, double refs_per_instr,
            MissClock &clock)
{
    cache::CacheStats before = hierarchy.stats();
    clock.pace(timing, refs_per_instr);
    walkTrace(source, hierarchy, clock, interval_refs);
    return priceInterval(model, hierarchy.stats() - before, timing,
                         refs_per_instr, clock);
}

/** Credit one interval run at @p boundary to a controller's
 *  @p result; returns the interval's TPI. */
double
credit(CacheIntervalResult &result, const CacheIntervalCost &cost,
       uint64_t refs, int boundary)
{
    result.total_time_ns += cost.time_ns;
    result.refs += refs;
    result.instructions += cost.instructions;
    result.boundary_trace.push_back(boundary);
    return cost.instructions
               ? cost.time_ns / static_cast<double>(cost.instructions)
               : 0.0;
}

} // namespace

IntervalAdaptiveCache::IntervalAdaptiveCache(const AdaptiveCacheModel &model,
                                             CacheIntervalParams params)
    : model_(&model), params_(params)
{
    capAssert(params.ewma_alpha > 0.0 && params.ewma_alpha <= 1.0,
              "ewma_alpha must be in (0,1]");
    capAssert(params.probe_period >= 2, "probe period too short");
    capAssert(params.confidence_needed >= 1, "confidence must be >= 1");
    capAssert(params.interval_refs > 0, "empty interval");
}

CacheIntervalResult
IntervalAdaptiveCache::run(const trace::AppProfile &app, uint64_t refs,
                           int initial_boundary, int max_boundary) const
{
    capAssert(initial_boundary >= 1 && initial_boundary <= max_boundary,
              "initial boundary out of range");
    capAssert(max_boundary < model_->geometry().increments,
              "max boundary out of range");

    cache::ExclusiveHierarchy hierarchy(model_->geometry(),
                                        initial_boundary);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    MissClock clock(model_->memConfig());

    int current = initial_boundary;
    std::vector<double> estimate(static_cast<size_t>(max_boundary) + 1,
                                 -1.0);
    auto fold = [&](int boundary, double tpi) {
        double &e = estimate[static_cast<size_t>(boundary)];
        e = e < 0.0 ? tpi
                    : (1.0 - params_.ewma_alpha) * e +
                          params_.ewma_alpha * tpi;
    };

    CacheIntervalResult result;

    auto reconfigure = [&](int to) {
        if (to == current)
            return;
        hierarchy.setBoundary(to);
        // No data motion or draining; only the clock pause, at the
        // incoming configuration's clock.
        result.total_time_ns +=
            static_cast<double>(kClockSwitchPenaltyCycles) *
            model_->boundaryTiming(to).cycle_ns;
        ++result.reconfigurations;
        current = to;
    };

    auto measureInterval = [&](uint64_t count) {
        CacheIntervalCost cost =
            runInterval(*model_, hierarchy, source, count,
                        model_->boundaryTiming(current),
                        app.cache.refs_per_instr, clock);
        fold(current, credit(result, cost, count, current));
    };

    uint64_t total_intervals = refs / params_.interval_refs;
    int probe_direction = 1;
    int confidence = 0;
    int pending_move = current;

    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        bool probe_now =
            interval % static_cast<uint64_t>(params_.probe_period) ==
            static_cast<uint64_t>(params_.probe_period) - 1;
        if (!probe_now) {
            measureInterval(params_.interval_refs);
            continue;
        }

        int home = current;
        int neighbour = home + probe_direction;
        probe_direction = -probe_direction;
        if (neighbour < 1 || neighbour > max_boundary) {
            measureInterval(params_.interval_refs);
            continue;
        }

        reconfigure(neighbour);
        measureInterval(params_.interval_refs);

        double home_est = estimate[static_cast<size_t>(home)];
        double nb_est = estimate[static_cast<size_t>(neighbour)];
        bool neighbour_better =
            nb_est >= 0.0 && home_est >= 0.0 &&
            nb_est < home_est * (1.0 - params_.switch_margin);

        if (!params_.use_confidence) {
            if (!neighbour_better)
                reconfigure(home);
            else
                ++result.committed_moves;
            continue;
        }

        if (neighbour_better && pending_move == neighbour) {
            ++confidence;
        } else if (neighbour_better) {
            pending_move = neighbour;
            confidence = 1;
        } else if (pending_move == neighbour) {
            pending_move = home;
            confidence = 0;
        }

        if (!(neighbour_better && confidence >= params_.confidence_needed)) {
            reconfigure(home);
        } else {
            confidence = 0;
            pending_move = neighbour;
            ++result.committed_moves;
        }
    }
    // The final partial interval: too short to probe, but its
    // references are part of the run and must be simulated and
    // credited.
    if (uint64_t tail = refs % params_.interval_refs)
        measureInterval(tail);
    return result;
}


PhasePredictiveCache::PhasePredictiveCache(const AdaptiveCacheModel &model,
                                           PhasePredictorParams params)
    : model_(&model), params_(params)
{
    capAssert(params.jump_threshold > 0.0, "jump threshold must be > 0");
    capAssert(params.min_stable_intervals >= 1,
              "need a positive stability guard");
    capAssert(params.interval_refs > 0, "empty interval");
}

CacheIntervalResult
PhasePredictiveCache::run(const trace::AppProfile &app, uint64_t refs,
                          int initial_boundary, int max_boundary) const
{
    capAssert(initial_boundary >= 1 && initial_boundary <= max_boundary,
              "initial boundary out of range");

    cache::ExclusiveHierarchy hierarchy(model_->geometry(),
                                        initial_boundary);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    MissClock clock(model_->memConfig());

    int current = initial_boundary;
    CacheIntervalResult result;

    auto reconfigure = [&](int to) {
        if (to == current)
            return;
        hierarchy.setBoundary(to);
        result.total_time_ns +=
            static_cast<double>(kClockSwitchPenaltyCycles) *
            model_->boundaryTiming(to).cycle_ns;
        ++result.reconfigurations;
        current = to;
    };

    // Per-boundary expectation within the current phase.
    std::vector<double> estimate(static_cast<size_t>(max_boundary) + 1,
                                 -1.0);
    auto fold = [&](int boundary, double tpi) {
        double &e = estimate[static_cast<size_t>(boundary)];
        e = e < 0.0 ? tpi
                    : (1.0 - params_.ewma_alpha) * e +
                          params_.ewma_alpha * tpi;
    };

    // Two-phase memory: best boundary remembered per phase id.
    int phase = 0;
    std::vector<int> phase_best{current, current};
    int since_jump = 0;
    int jump_votes = 0;
    int probe_direction = 1;
    int trial_home = -1; // >= 0 while measuring a one-interval trial

    uint64_t total_intervals = refs / params_.interval_refs;
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        CacheIntervalCost cost =
            runInterval(*model_, hierarchy, source, params_.interval_refs,
                        model_->boundaryTiming(current),
                        app.cache.refs_per_instr, clock);
        double tpi = credit(result, cost, params_.interval_refs, current);
        ++since_jump;
        fold(current, tpi);

        // --- Finish a one-interval trial: commit or go home. ---
        if (trial_home >= 0) {
            double nb_est = estimate[static_cast<size_t>(current)];
            double home_est = estimate[static_cast<size_t>(trial_home)];
            if (home_est > 0.0 && nb_est > 0.0 &&
                nb_est < home_est * (1.0 - params_.switch_margin)) {
                phase_best[static_cast<size_t>(phase)] = current;
                ++result.committed_moves;
            } else {
                reconfigure(trial_home);
            }
            trial_home = -1;
            continue;
        }

        // --- Phase-change detection against the current boundary's
        // expectation; two consecutive deviating intervals are
        // required (the confidence idea of Section 6 applied to the
        // detector itself, so noise cannot scramble the phase memory).
        double expected = estimate[static_cast<size_t>(current)];
        if (expected > 0.0 && since_jump >= params_.min_stable_intervals) {
            double deviation = std::abs(tpi - expected) / expected;
            if (deviation > params_.jump_threshold)
                ++jump_votes;
            else
                jump_votes = 0;
            if (jump_votes >= 2) {
                jump_votes = 0;
                since_jump = 0;
                // Identify the incoming phase by the jump direction
                // (a TPI increase means the demanding phase).  This
                // is idempotent under spurious re-detections, unlike
                // a parity flip.
                int new_phase = tpi > expected ? 1 : 0;
                // Expectations belong to the old phase: discard them.
                std::fill(estimate.begin(), estimate.end(), -1.0);
                if (new_phase != phase) {
                    phase_best[static_cast<size_t>(phase)] = current;
                    phase = new_phase;
                    int target = phase_best[static_cast<size_t>(phase)];
                    if (target != current) {
                        reconfigure(target);
                        ++result.committed_moves;
                    }
                }
                continue;
            }
        }

        // --- Local refinement: trial a neighbour for one interval. ---
        bool probe_now =
            interval % static_cast<uint64_t>(params_.probe_period) ==
            static_cast<uint64_t>(params_.probe_period) - 1;
        if (probe_now) {
            int neighbour = current + probe_direction;
            probe_direction = -probe_direction;
            if (neighbour >= 1 && neighbour <= max_boundary) {
                trial_home = current;
                reconfigure(neighbour);
            }
        }
    }
    // The final partial interval, at the boundary the run ended on,
    // with no trial verdict or phase decision.
    if (uint64_t tail = refs % params_.interval_refs)
        credit(result,
               runInterval(*model_, hierarchy, source, tail,
                           model_->boundaryTiming(current),
                           app.cache.refs_per_instr, clock),
               tail, current);
    return result;
}

std::vector<std::vector<CacheIntervalCost>>
cacheIntervalOracleCosts(const AdaptiveCacheModel &model,
                         const trace::AppProfile &app, uint64_t refs,
                         const std::vector<int> &boundaries,
                         uint64_t interval_refs)
{
    capAssert(!boundaries.empty(), "oracle needs boundaries");
    capAssert(interval_refs > 0, "empty interval");
    CAPSIM_SPAN("oracle.onepass");

    // Each interval's statsFor() delta and lane stall are the inputs
    // runInterval() prices on a live hierarchy.
    uint64_t full_intervals = refs / interval_refs;
    uint64_t tail_refs = refs % interval_refs;
    uint64_t total_intervals = full_intervals + (tail_refs ? 1 : 0);
    std::vector<std::vector<CacheIntervalCost>> costs(boundaries.size());
    std::vector<CacheBoundaryTiming> timings;
    std::vector<StackLane> lanes;
    timings.reserve(boundaries.size());
    lanes.reserve(boundaries.size());
    for (size_t li = 0; li < boundaries.size(); ++li) {
        timings.push_back(model.boundaryTiming(boundaries[li]));
        lanes.push_back({model.geometry().l1Ways(boundaries[li]),
                         MissClock(model.memConfig())});
        lanes.back().clock.pace(timings[li], app.cache.refs_per_instr);
        costs[li].reserve(total_intervals);
    }
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    cache::StackSimulator stack(model.geometry());
    std::vector<cache::CacheStats> previous_cum(boundaries.size());
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        uint64_t want =
            interval < full_intervals ? interval_refs : tail_refs;
        walkStack(source, stack, lanes, want);
        for (size_t li = 0; li < boundaries.size(); ++li) {
            cache::CacheStats cum = stack.statsFor(boundaries[li]);
            costs[li].push_back(priceInterval(
                model, cum - previous_cum[li], timings[li],
                app.cache.refs_per_instr, lanes[li].clock));
            previous_cum[li] = cum;
        }
    }
    return costs;
}

CacheIntervalResult
runCacheIntervalOracle(const AdaptiveCacheModel &model,
                       const trace::AppProfile &app, uint64_t refs,
                       const std::vector<int> &boundaries,
                       uint64_t interval_refs, bool charge_switches,
                       Cycles switch_penalty_cycles, int /*jobs*/,
                       const obs::Hooks &hooks)
{
    obs::Hooks sinks = obs::effectiveHooks(hooks);
    if (sinks.progress)
        sinks.progress->beginRun("cache-interval-oracle", 1, 1);
    std::vector<std::vector<CacheIntervalCost>> lane_costs =
        cacheIntervalOracleCosts(model, app, refs, boundaries,
                                 interval_refs);
    if (sinks.progress) {
        sinks.progress->noteCellDone(0, 0);
        sinks.progress->endRun();
    }
    uint64_t full_intervals = refs / interval_refs;
    uint64_t tail_refs = refs % interval_refs;
    size_t total_intervals = lane_costs[0].size();

    // Serial winner reduction; obs emission happens here only.
    CAPSIM_SPAN("oracle.reduce");
    CacheIntervalResult result;
    obs::Counter *oracle_switches =
        sinks.registry
            ? &sinks.registry->counter("oracle.reconfigurations")
            : nullptr;
    obs::Counter *oracle_intervals =
        sinks.registry ? &sinks.registry->counter("oracle.intervals")
                       : nullptr;
    std::string oracle_lane = app.name + "/oracle";
    int previous = -1;
    for (uint64_t interval = 0; interval < total_intervals; ++interval) {
        uint64_t want =
            interval < full_intervals ? interval_refs : tail_refs;
        double best_time = std::numeric_limits<double>::infinity();
        size_t winner_lane = 0;
        int winner = boundaries.front();
        for (size_t li = 0; li < boundaries.size(); ++li) {
            double time_ns = lane_costs[li][interval].time_ns;
            if (time_ns < best_time) {
                best_time = time_ns;
                winner = boundaries[li];
                winner_lane = li;
            }
        }
        double interval_start_ns = result.total_time_ns;
        bool switched = previous >= 0 && winner != previous;
        double penalty_ns =
            switched && charge_switches
                ? static_cast<double>(switch_penalty_cycles) *
                      model.boundaryTiming(winner).cycle_ns
                : 0.0;
        result.total_time_ns += best_time;
        result.refs += want;
        uint64_t retired = lane_costs[winner_lane][interval].instructions;
        result.instructions += retired;
        result.boundary_trace.push_back(winner);
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
                event.from_config = previous;
                event.to_config = winner;
                event.penalty_ns = penalty_ns;
                sinks.trace->add(std::move(event));
            }
        }
        if (sinks.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::Interval;
            event.lane = oracle_lane;
            event.app = app.name;
            event.config = std::to_string(winner);
            event.interval = interval;
            event.retired = retired;
            event.start_ns = interval_start_ns + penalty_ns;
            event.duration_ns = best_time;
            event.tpi_ns = retired ? best_time /
                                         static_cast<double>(retired)
                                   : 0.0;
            // 0.0 under flat; the JSONL writer omits the field then,
            // keeping flat trace bytes unchanged.
            event.mem_stall_ns =
                lane_costs[winner_lane][interval].mem_stall_ns;
            sinks.trace->add(std::move(event));
        }
        previous = winner;
    }
    return result;
}

} // namespace cap::core
