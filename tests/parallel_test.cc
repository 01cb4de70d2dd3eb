/**
 * @file
 * Tests of the parallel execution engine: the thread pool itself,
 * and the differential guarantee that a study fanned across N
 * workers is bit-identical to the serial run.
 */

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/interval_controller.h"
#include "core/machine.h"
#include "trace/workloads.h"
#include "util/parallel.h"

namespace cap {
namespace {

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ClampsToOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2, /*queue_capacity=*/4);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                ++count;
            });
        }
        // No wait(): shutdown itself must finish the backlog.
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, WaitPropagatesTaskExceptionAndPoolSurvives)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error is consumed; the pool keeps working.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, BoundedQueueStillCompletesUnderBackpressure)
{
    ThreadPool pool(2, /*queue_capacity=*/2);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

// ---------------------------------------------------------------------
// parallelFor
// ---------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<int> visits(10000, 0);
    parallelFor(pool, visits.size(), [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i)
        ASSERT_EQ(visits[i], 1) << "index " << i;
}

TEST(ParallelForTest, SingleJobRunsInlineInOrder)
{
    std::vector<size_t> order;
    std::thread::id caller = std::this_thread::get_id();
    parallelFor(1, 16, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, ZeroCountIsANoOp)
{
    ThreadPool pool(2);
    parallelFor(pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, PropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 1000,
                             [](size_t i) {
                                 if (i == 17)
                                     throw std::runtime_error("cell 17");
                             }),
                 std::runtime_error);
}

TEST(ParallelForTest, TransientPoolOverloadCovers)
{
    std::vector<int> visits(257, 0);
    parallelFor(3, visits.size(), [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i)
        ASSERT_EQ(visits[i], 1);
}

TEST(DefaultJobsTest, AtLeastOneWorker)
{
    EXPECT_GE(defaultJobs(), 1);
}

// ---------------------------------------------------------------------
// Differential: parallel studies must be bit-identical to serial.
// ---------------------------------------------------------------------

TEST(ParallelStudyTest, CacheStudyBitIdenticalAcrossJobs)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("stereo"),
                                           trace::findApp("gcc")};
    core::CacheStudy serial = core::runCacheStudy(model, apps, 30000, 8, 1);
    core::CacheStudy parallel =
        core::runCacheStudy(model, apps, 30000, 8, 4);

    auto serial_tpi = serial.tpiMatrix();
    auto parallel_tpi = parallel.tpiMatrix();
    ASSERT_EQ(serial_tpi.size(), parallel_tpi.size());
    for (size_t a = 0; a < serial_tpi.size(); ++a) {
        ASSERT_EQ(serial_tpi[a].size(), parallel_tpi[a].size());
        for (size_t c = 0; c < serial_tpi[a].size(); ++c)
            EXPECT_EQ(serial_tpi[a][c], parallel_tpi[a][c])
                << "cell (" << a << ", " << c << ")";
    }
    EXPECT_EQ(serial.tpiMissMatrix(), parallel.tpiMissMatrix());
    EXPECT_EQ(serial.selection.best_conventional,
              parallel.selection.best_conventional);
    EXPECT_EQ(serial.selection.per_app_best,
              parallel.selection.per_app_best);
    EXPECT_EQ(serial.telemetry.jobs, 1);
    EXPECT_EQ(parallel.telemetry.jobs, 4);
}

TEST(ParallelStudyTest, IqStudyBitIdenticalAcrossJobs)
{
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("appcg"),
                                           trace::findApp("li")};
    core::IqStudy serial = core::runIqStudy(model, apps, 30000, 1);
    core::IqStudy parallel = core::runIqStudy(model, apps, 30000, 4);
    EXPECT_EQ(serial.tpiMatrix(), parallel.tpiMatrix());
    EXPECT_EQ(serial.selection.per_app_best,
              parallel.selection.per_app_best);
    for (size_t a = 0; a < serial.perf.size(); ++a) {
        for (size_t c = 0; c < serial.perf[a].size(); ++c) {
            EXPECT_EQ(serial.perf[a][c].cycles, parallel.perf[a][c].cycles);
            EXPECT_EQ(serial.perf[a][c].instructions,
                      parallel.perf[a][c].instructions);
        }
    }
}

TEST(ParallelStudyTest, IntervalOracleBitIdenticalAcrossJobs)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("vortex");
    std::vector<int> candidates = core::AdaptiveIqModel::studySizes();
    core::IntervalRunResult serial = core::runIntervalOracle(
        model, app, 60000, candidates, core::kIntervalInstructions, true,
        core::kClockSwitchPenaltyCycles, 1);
    core::IntervalRunResult parallel = core::runIntervalOracle(
        model, app, 60000, candidates, core::kIntervalInstructions, true,
        core::kClockSwitchPenaltyCycles, 4);
    EXPECT_EQ(serial.total_time_ns, parallel.total_time_ns);
    EXPECT_EQ(serial.instructions, parallel.instructions);
    EXPECT_EQ(serial.reconfigurations, parallel.reconfigurations);
    EXPECT_EQ(serial.config_trace, parallel.config_trace);
}

TEST(ParallelStudyTest, OnePassTelemetryHasOneCellPerApp)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("stereo")};
    core::CacheStudy study = core::runCacheStudy(model, apps, 20000, 8, 2);
    ASSERT_EQ(study.telemetry.cells.size(), apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        const core::CellTelemetry &cell = study.telemetry.cells[a];
        EXPECT_EQ(cell.app, apps[a].name);
        EXPECT_EQ(cell.config, "onepass x8");
        EXPECT_GE(cell.sim_seconds, 0.0);
    }
    EXPECT_EQ(study.telemetry.jobs, 2);
    EXPECT_GE(study.telemetry.wall_seconds, 0.0);
    EXPECT_GE(study.telemetry.cellsPerSecond(), 0.0);
    EXPECT_EQ(study.telemetry.reconfigurations, 0u);
}

TEST(ParallelStudyTest, TelemetryJsonIsWellFormed)
{
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li")};
    core::IqStudy study = core::runIqStudy(model, apps, 20000, 2);
    std::ostringstream os;
    study.telemetry.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"per_cell\": ["), std::string::npos);
    EXPECT_NE(json.find("\"app\": \"li\""), std::string::npos);
    EXPECT_NE(json.find("\"config\": \"onepass x8\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.size() - 2], '}');
}

} // namespace
} // namespace cap
