/**
 * @file
 * Differential tests for the one-pass interval oracles: the cost
 * table of the single WindowSweeper walk (IQ side) and of the single
 * stack-distance walk (cache side) must equal the per-candidate
 * reference tables (tests/reference.h) on every candidate and every
 * interval, and the oracles' results, traces and counters must be the
 * winner reduction of that table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cli/cli.h"
#include "core/interval_cache.h"
#include "core/interval_controller.h"
#include "obs/decision_trace.h"
#include "obs/registry.h"
#include "reference.h"
#include "sample/sampler.h"
#include "sample/study.h"
#include "trace/workloads.h"

namespace cap {
namespace {

void
expectSameIqCosts(const std::vector<std::vector<core::IqIntervalCost>> &want,
                  const std::vector<std::vector<core::IqIntervalCost>> &got,
                  const std::string &context)
{
    ASSERT_EQ(want.size(), got.size()) << context;
    for (size_t li = 0; li < want.size(); ++li) {
        ASSERT_EQ(want[li].size(), got[li].size()) << context;
        for (size_t i = 0; i < want[li].size(); ++i) {
            EXPECT_EQ(want[li][i].cycles, got[li][i].cycles)
                << context << " lane " << li << " interval " << i;
            EXPECT_EQ(want[li][i].instructions, got[li][i].instructions)
                << context << " lane " << li << " interval " << i;
        }
    }
}

void
expectSameCacheCosts(
    const std::vector<std::vector<core::CacheIntervalCost>> &want,
    const std::vector<std::vector<core::CacheIntervalCost>> &got,
    const std::string &context)
{
    ASSERT_EQ(want.size(), got.size()) << context;
    for (size_t li = 0; li < want.size(); ++li) {
        ASSERT_EQ(want[li].size(), got[li].size()) << context;
        for (size_t i = 0; i < want[li].size(); ++i) {
            EXPECT_EQ(want[li][i].time_ns, got[li][i].time_ns)
                << context << " lane " << li << " interval " << i;
            EXPECT_EQ(want[li][i].instructions, got[li][i].instructions)
                << context << " lane " << li << " interval " << i;
            EXPECT_EQ(want[li][i].mem_stall_ns, got[li][i].mem_stall_ns)
                << context << " lane " << li << " interval " << i;
        }
    }
}

/** Index of the first candidate whose interval time @p time_of(li)
 *  is smallest: the oracles' winner rule. */
template <typename TimeOf>
size_t
winnerOf(size_t candidates, TimeOf time_of)
{
    size_t best = 0;
    for (size_t li = 1; li < candidates; ++li)
        if (time_of(li) < time_of(best))
            best = li;
    return best;
}

void
expectSameIqResult(const core::IntervalRunResult &want,
                   const core::IntervalRunResult &got,
                   const std::string &context)
{
    EXPECT_EQ(want.instructions, got.instructions) << context;
    EXPECT_EQ(want.total_time_ns, got.total_time_ns) << context;
    EXPECT_EQ(want.reconfigurations, got.reconfigurations) << context;
    EXPECT_EQ(want.config_trace, got.config_trace) << context;
}

// ---------------------------------------------------------------------
// IQ side
// ---------------------------------------------------------------------

TEST(OnePassOracleTest, IqBitIdenticalAcrossAllApps)
{
    std::vector<int> candidates = {16, 64, 128};
    constexpr uint64_t kInstrs = 30000;
    for (const trace::AppProfile &app : trace::workloadSuite()) {
        expectSameIqCosts(
            reference::intervalOracleCosts(app, kInstrs, candidates,
                                           core::kIntervalInstructions),
            core::intervalOracleCosts(app, kInstrs, candidates,
                                      core::kIntervalInstructions),
            app.name);
    }
}

TEST(OnePassOracleTest, IqFullLadderWithTailInterval)
{
    core::AdaptiveIqModel model;
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    const trace::AppProfile &app = trace::findApp("vortex");
    // 90500 = 45 full intervals plus a 500-instruction tail.
    constexpr uint64_t kInstrs = 90500;
    expectSameIqCosts(
        reference::intervalOracleCosts(app, kInstrs, sizes,
                                       core::kIntervalInstructions, 4),
        core::intervalOracleCosts(app, kInstrs, sizes,
                                  core::kIntervalInstructions),
        app.name);
    core::IntervalRunResult onepass = core::runIntervalOracle(
        model, app, kInstrs, sizes, core::kIntervalInstructions, true);
    EXPECT_EQ(onepass.instructions, kInstrs);
    EXPECT_EQ(onepass.config_trace.size(), 46u);
}

TEST(OnePassOracleTest, IqShortIntervalsStressLaneDrift)
{
    // Short intervals maximize the relative per-lane overshoot drift
    // the chained advancement must reproduce.
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    const trace::AppProfile &app = trace::findApp("turb3d");
    expectSameIqCosts(
        reference::intervalOracleCosts(app, 20000, sizes, 100, 4),
        core::intervalOracleCosts(app, 20000, sizes, 100), app.name);
}

TEST(OnePassOracleTest, IqLongIntervalsNeedRingReserve)
{
    // An interval longer than the default shared ring: reserveSpan()
    // must grow the ring so per-lane advancement can spread the lanes
    // a whole interval apart.
    const trace::AppProfile &app = trace::findApp("li");
    std::vector<int> candidates = {16, 128};
    expectSameIqCosts(
        reference::intervalOracleCosts(app, 120000, candidates, 40000),
        core::intervalOracleCosts(app, 120000, candidates, 40000),
        app.name);
}

TEST(OnePassOracleTest, IqObsTraceAndCountersMatchLaneOracle)
{
    // Every Interval record is the winning lane's cost in the
    // per-candidate reference table.
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("vortex");
    std::vector<int> candidates = {16, 64};
    std::vector<std::vector<core::IqIntervalCost>> lanes =
        reference::intervalOracleCosts(app, 50000, candidates,
                                       core::kIntervalInstructions);

    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    core::IntervalRunResult result = core::runIntervalOracle(
        model, app, 50000, candidates, core::kIntervalInstructions, true,
        core::kClockSwitchPenaltyCycles, 1, {&trace, &registry});

    size_t intervals = 0;
    for (const obs::TraceEvent &e : trace.events()) {
        if (e.kind != obs::EventKind::Interval)
            continue;
        size_t i = e.interval;
        ASSERT_LT(i, lanes[0].size());
        size_t li = winnerOf(candidates.size(), [&](size_t c) {
            return static_cast<double>(lanes[c][i].cycles) *
                   model.cycleNs(candidates[c]);
        });
        EXPECT_EQ(e.config, std::to_string(candidates[li])) << i;
        EXPECT_EQ(result.config_trace[i], candidates[li]) << i;
        EXPECT_EQ(e.cycles, lanes[li][i].cycles) << i;
        EXPECT_EQ(e.retired, lanes[li][i].instructions) << i;
        EXPECT_EQ(e.duration_ns, static_cast<double>(lanes[li][i].cycles) *
                                     model.cycleNs(candidates[li]))
            << i;
        ++intervals;
    }
    EXPECT_EQ(intervals, lanes[0].size());
    EXPECT_EQ(trace.countKind(obs::EventKind::Reconfig),
              static_cast<size_t>(result.reconfigurations));
    EXPECT_EQ(trace.intervalRetiredTotal(), result.instructions);
    EXPECT_EQ(registry.counter("oracle.intervals").value(), intervals);
    EXPECT_EQ(registry.counter("oracle.reconfigurations").value(),
              static_cast<uint64_t>(result.reconfigurations));
}

// ---------------------------------------------------------------------
// Cache side
// ---------------------------------------------------------------------

TEST(OnePassOracleTest, CacheBitIdenticalAcrossAllApps)
{
    core::AdaptiveCacheModel model;
    std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    constexpr uint64_t kRefs = 40000;
    for (const trace::AppProfile &app : trace::workloadSuite()) {
        expectSameCacheCosts(
            reference::cacheIntervalOracleCosts(model, app, kRefs,
                                                boundaries, 1000),
            core::cacheIntervalOracleCosts(model, app, kRefs, boundaries,
                                           1000),
            app.name);
    }
}

// Regression: the cache oracle used to truncate the run at the last
// full interval -- refs % interval_refs references were silently
// dropped from both the walk and the accounting.
TEST(OnePassOracleTest, CacheFinalPartialIntervalIsCredited)
{
    core::AdaptiveCacheModel model;
    const trace::AppProfile &app = trace::findApp("li");
    std::vector<int> boundaries = {1, 2, 3, 4};
    expectSameCacheCosts(
        reference::cacheIntervalOracleCosts(model, app, 2500, boundaries,
                                            1000),
        core::cacheIntervalOracleCosts(model, app, 2500, boundaries, 1000),
        app.name);
    core::CacheIntervalResult result = core::runCacheIntervalOracle(
        model, app, 2500, boundaries, 1000, false);
    EXPECT_EQ(result.refs, 2500u);
    EXPECT_EQ(result.boundary_trace.size(), 3u);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_TRUE(std::isfinite(result.tpi()));
}

// Regression: the 30-cycle switch penalty was a hard-coded literal;
// it now comes from the shared kClockSwitchPenaltyCycles parameter.
TEST(OnePassOracleTest, CacheSwitchPenaltyParameterScalesCharge)
{
    core::AdaptiveCacheModel model;
    trace::AppProfile demo = trace::phasedCacheDemo();
    std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    core::CacheIntervalResult uncharged = core::runCacheIntervalOracle(
        model, demo, 60000, boundaries, 1000, false);
    core::CacheIntervalResult zero_penalty =
        core::runCacheIntervalOracle(model, demo, 60000, boundaries,
                                     1000, true, 0);
    core::CacheIntervalResult expensive = core::runCacheIntervalOracle(
        model, demo, 60000, boundaries, 1000, true, 300);
    EXPECT_EQ(zero_penalty.total_time_ns, uncharged.total_time_ns);
    EXPECT_EQ(zero_penalty.reconfigurations, expensive.reconfigurations);
    ASSERT_GT(zero_penalty.reconfigurations, 0);
    EXPECT_GT(expensive.total_time_ns, zero_penalty.total_time_ns);
}

TEST(OnePassOracleTest, CacheObsTraceAndCountersMatchBothEngines)
{
    // Every Interval record is the winning boundary's cost in the
    // per-boundary reference table.
    core::AdaptiveCacheModel model;
    trace::AppProfile demo = trace::phasedCacheDemo();
    std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<std::vector<core::CacheIntervalCost>> lanes =
        reference::cacheIntervalOracleCosts(model, demo, 60000,
                                            boundaries, 1000, 2);

    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    core::CacheIntervalResult result = core::runCacheIntervalOracle(
        model, demo, 60000, boundaries, 1000, true,
        core::kClockSwitchPenaltyCycles, 1, {&trace, &registry});

    size_t intervals = 0;
    for (const obs::TraceEvent &e : trace.events()) {
        if (e.kind != obs::EventKind::Interval)
            continue;
        size_t i = e.interval;
        ASSERT_LT(i, lanes[0].size());
        size_t li = winnerOf(boundaries.size(),
                             [&](size_t c) { return lanes[c][i].time_ns; });
        EXPECT_EQ(e.config, std::to_string(boundaries[li])) << i;
        EXPECT_EQ(result.boundary_trace[i], boundaries[li]) << i;
        EXPECT_EQ(e.retired, lanes[li][i].instructions) << i;
        EXPECT_EQ(e.duration_ns, lanes[li][i].time_ns) << i;
        ++intervals;
    }
    EXPECT_EQ(intervals, result.boundary_trace.size());
    EXPECT_EQ(intervals, lanes[0].size());
    EXPECT_EQ(trace.countKind(obs::EventKind::Reconfig),
              static_cast<size_t>(result.reconfigurations));
    EXPECT_EQ(trace.intervalRetiredTotal(), result.instructions);
    EXPECT_EQ(registry.counter("oracle.intervals").value(), intervals);
    EXPECT_EQ(registry.counter("oracle.reconfigurations").value(),
              static_cast<uint64_t>(result.reconfigurations));
}

// ---------------------------------------------------------------------
// Sampled oracle and CLI round trips
// ---------------------------------------------------------------------

sample::SampleParams
oracleSampleParams()
{
    sample::SampleParams params;
    params.interval_len = 2000;
    params.clusters = 6;
    params.warmup_len = 2000;
    params.cold_prefix_len = 10000;
    return params;
}

TEST(OnePassOracleTest, SamplerRepConfigsMatchesPerConfigMeasurement)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("vortex");
    sample::IqSampler sampler(model, app, 60000, oracleSampleParams());
    std::vector<int> candidates = {24, 48, 96};
    for (size_t rep = 0; rep < sampler.repCount(); ++rep) {
        std::vector<sample::IqRepMeasurement> chained =
            sampler.measureRepConfigs(candidates, rep);
        ASSERT_EQ(chained.size(), candidates.size());
        for (size_t c = 0; c < candidates.size(); ++c) {
            sample::IqRepMeasurement solo =
                sampler.measureRep(candidates[c], rep);
            EXPECT_EQ(chained[c].cycles, solo.cycles)
                << "rep " << rep << " entries " << candidates[c];
            EXPECT_EQ(chained[c].instructions, solo.instructions);
            EXPECT_EQ(chained[c].warmup_instrs, solo.warmup_instrs);
        }
    }
}

TEST(OnePassOracleTest, SampledOracleBitIdenticalAcrossEngines)
{
    // The one-chain-per-representative oracle against its reduction
    // over one measureRep() replay per (candidate, medoid).
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("turb3d");
    sample::SampleParams params = oracleSampleParams();
    std::vector<int> candidates = {32, 64, 128};
    sample::IqSampler sampler(model, app, 60000, params);
    const sample::SamplePlan &plan = sampler.plan();

    std::vector<std::vector<double>> time_per_instr;
    std::vector<size_t> winner;
    for (size_t c = 0; c < plan.clustering.clusterCount(); ++c) {
        std::vector<double> row;
        for (int entries : candidates) {
            sample::IqRepMeasurement m = sampler.measureRep(entries, c);
            double cpi = m.instructions
                             ? static_cast<double>(m.cycles) /
                                   static_cast<double>(m.instructions)
                             : 0.0;
            row.push_back(cpi * model.cycleNs(entries));
        }
        winner.push_back(
            winnerOf(candidates.size(), [&](size_t j) { return row[j]; }));
        time_per_instr.push_back(std::move(row));
    }
    core::IntervalRunResult want;
    want.instructions = 60000;
    int previous = -1;
    for (size_t i = 0; i < plan.num_intervals; ++i) {
        size_t c = static_cast<size_t>(plan.clustering.assignment[i]);
        int entries = candidates[winner[c]];
        want.total_time_ns +=
            static_cast<double>(sampler.profile().lengthOf(i)) *
            time_per_instr[c][winner[c]];
        if (previous >= 0 && entries != previous) {
            ++want.reconfigurations;
            want.total_time_ns +=
                static_cast<double>(core::kClockSwitchPenaltyCycles) *
                model.cycleNs(entries);
        }
        previous = entries;
        want.config_trace.push_back(entries);
    }

    for (int jobs : {1, 4}) {
        core::IntervalRunResult onepass = sample::runSampledIntervalOracle(
            model, app, 60000, candidates, params, true,
            core::kClockSwitchPenaltyCycles, jobs);
        expectSameIqResult(want, onepass, "jobs=" + std::to_string(jobs));
    }
}

TEST(OnePassOracleTest, SampleRunOracleCliIdenticalAcrossJobs)
{
    std::ostringstream out_serial, out_parallel, err;
    int rc_serial = cli::runCommand(
        {"sample-run", "vortex", "--study", "iq", "--instrs", "60000",
         "--oracle", "--jobs", "1"},
        out_serial, err);
    int rc_parallel = cli::runCommand(
        {"sample-run", "vortex", "--study", "iq", "--instrs", "60000",
         "--oracle", "--jobs", "4"},
        out_parallel, err);
    ASSERT_EQ(rc_serial, 0) << err.str();
    ASSERT_EQ(rc_parallel, 0) << err.str();
    EXPECT_EQ(out_serial.str(), out_parallel.str());
}

TEST(OnePassOracleTest, CacheOracleStillBeatsEveryFixedBoundary)
{
    core::AdaptiveCacheModel model;
    trace::AppProfile demo = trace::phasedCacheDemo();
    uint64_t refs = 900000;
    core::CacheIntervalResult oracle = core::runCacheIntervalOracle(
        model, demo, refs, {1, 2, 3, 4, 5, 6, 7, 8}, 1000, false);
    for (int k = 1; k <= 8; ++k) {
        double fixed = model.evaluate(demo, k, refs).tpi_ns;
        EXPECT_LE(oracle.tpi(), fixed + 1e-9) << k;
    }
    EXPECT_GT(oracle.reconfigurations, 0);
}

} // namespace
} // namespace cap
