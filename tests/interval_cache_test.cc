/**
 * @file
 * Tests for the cache-side interval controllers and the phased cache
 * workload support.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/interval_cache.h"
#include "trace/stream.h"
#include "trace/workloads.h"

namespace cap::core {
namespace {

TEST(PhasedCacheWorkloadTest, PhasesCycleByReferenceCount)
{
    trace::AppProfile demo = trace::phasedCacheDemo();
    ASSERT_EQ(demo.cache.phases.size(), 2u);
    uint64_t phase_len = demo.cache.phases[0].length_refs;

    trace::SyntheticTraceSource source(demo.cache, demo.seed, 0);
    trace::TraceRecord record;
    EXPECT_EQ(source.currentPhase(), 0u);
    for (uint64_t i = 0; i < phase_len; ++i)
        ASSERT_TRUE(source.next(record));
    EXPECT_EQ(source.currentPhase(), 1u);
    for (uint64_t i = 0; i < demo.cache.phases[1].length_refs; ++i)
        ASSERT_TRUE(source.next(record));
    EXPECT_EQ(source.currentPhase(), 0u);
}

TEST(PhasedCacheWorkloadTest, PhasesUseDisjointRegions)
{
    trace::AppProfile demo = trace::phasedCacheDemo();
    trace::SyntheticTraceSource source(demo.cache, demo.seed, 0);
    trace::TraceRecord record;
    uint64_t phase_len = demo.cache.phases[0].length_refs;
    Addr max_phase0 = 0;
    for (uint64_t i = 0; i < phase_len; ++i) {
        source.next(record);
        max_phase0 = std::max(max_phase0, record.addr);
    }
    Addr min_phase1 = UINT64_MAX;
    for (uint64_t i = 0; i < 1000; ++i) {
        source.next(record);
        min_phase1 = std::min(min_phase1, record.addr);
    }
    EXPECT_GT(min_phase1, max_phase0);
}

TEST(PhasedCacheWorkloadTest, SinglePhaseProfilesUnchanged)
{
    // Profiles without a phase schedule behave exactly as before.
    const trace::AppProfile &li = trace::findApp("li");
    EXPECT_TRUE(li.cache.phases.empty());
    trace::SyntheticTraceSource source(li.cache, li.seed, 1000);
    trace::TraceRecord record;
    uint64_t count = 0;
    while (source.next(record))
        ++count;
    EXPECT_EQ(count, 1000u);
    EXPECT_EQ(source.currentPhase(), 0u);
}

TEST(IntervalAdaptiveCacheTest, AccountsWorkAndStaysInRange)
{
    AdaptiveCacheModel model;
    CacheIntervalParams params;
    IntervalAdaptiveCache controller(model, params);
    trace::AppProfile demo = trace::phasedCacheDemo();
    CacheIntervalResult result = controller.run(demo, 100000, 2);
    EXPECT_EQ(result.refs, 100000u);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_EQ(result.boundary_trace.size(),
              100000u / params.interval_refs);
    for (int boundary : result.boundary_trace) {
        EXPECT_GE(boundary, 1);
        EXPECT_LE(boundary, 8);
    }
}

TEST(IntervalAdaptiveCacheTest, StableWorkloadStaysNearOptimum)
{
    AdaptiveCacheModel model;
    CacheIntervalParams params;
    IntervalAdaptiveCache controller(model, params);
    // li is phase-stable with an 8KB optimum: starting there, the
    // controller must not wander far.
    CacheIntervalResult result =
        controller.run(trace::findApp("li"), 200000, 1);
    int at_home = 0;
    for (int boundary : result.boundary_trace)
        at_home += boundary <= 2 ? 1 : 0;
    EXPECT_GT(at_home,
              static_cast<int>(result.boundary_trace.size() * 3 / 4));
    EXPECT_LE(result.committed_moves, 3);
}

TEST(PhasePredictiveCacheTest, RunsAndAccounts)
{
    AdaptiveCacheModel model;
    PhasePredictorParams params;
    PhasePredictiveCache predictor(model, params);
    trace::AppProfile demo = trace::phasedCacheDemo();
    CacheIntervalResult result = predictor.run(demo, 150000, 2);
    EXPECT_EQ(result.refs, 150000u);
    EXPECT_GT(result.tpi(), 0.0);
}

TEST(CacheIntervalTailTest, ControllersCreditTheFinalPartialInterval)
{
    // 100500 references are 100 full intervals of 1000 and a 500
    // reference tail, which is simulated and credited at the boundary
    // the run ends on, as the oracle and the IQ controller do.
    AdaptiveCacheModel model;
    trace::AppProfile demo = trace::phasedCacheDemo();
    IntervalAdaptiveCache adaptive(model, CacheIntervalParams{});
    PhasePredictiveCache predictive(model, PhasePredictorParams{});
    auto check = [](const CacheIntervalResult &even,
                    const CacheIntervalResult &tailed) {
        EXPECT_EQ(even.refs, 100000u);
        EXPECT_EQ(tailed.refs, 100500u);
        ASSERT_EQ(even.boundary_trace.size(), 100u);
        ASSERT_EQ(tailed.boundary_trace.size(), 101u);
        EXPECT_TRUE(std::equal(even.boundary_trace.begin(),
                               even.boundary_trace.end(),
                               tailed.boundary_trace.begin()));
        EXPECT_GT(tailed.instructions, even.instructions);
        EXPECT_GT(tailed.total_time_ns, even.total_time_ns);
    };
    check(adaptive.run(demo, 100000, 2), adaptive.run(demo, 100500, 2));
    check(predictive.run(demo, 100000, 2),
          predictive.run(demo, 100500, 2));
    EXPECT_EQ(runCacheIntervalOracle(model, demo, 100500,
                                     {1, 2, 3, 4, 5, 6, 7, 8}, 1000, true)
                  .boundary_trace.size(),
              101u);
}

TEST(CacheIntervalOracleTest, OracleBeatsEveryFixedBoundary)
{
    AdaptiveCacheModel model;
    trace::AppProfile demo = trace::phasedCacheDemo();
    uint64_t refs = 900000; // one full A-B-A cycle plus change
    CacheIntervalResult oracle = runCacheIntervalOracle(
        model, demo, refs, {1, 2, 3, 4, 5, 6, 7, 8}, 1000, false);
    for (int k = 1; k <= 8; ++k) {
        double fixed = model.evaluate(demo, k, refs).tpi_ns;
        EXPECT_LE(oracle.tpi(), fixed + 1e-9) << k;
    }
    EXPECT_GT(oracle.reconfigurations, 0);
}

TEST(CacheIntervalDeathTest, RejectsBadParameters)
{
    AdaptiveCacheModel model;
    CacheIntervalParams params;
    IntervalAdaptiveCache controller(model, params);
    EXPECT_DEATH(controller.run(trace::findApp("li"), 10000, 0),
                 "initial boundary");
    EXPECT_DEATH(controller.run(trace::findApp("li"), 10000, 9, 8),
                 "initial boundary");
}

} // namespace
} // namespace cap::core
