/**
 * @file
 * Tests of the observability layer: the counter registry (including
 * its parallel merge discipline), the decision-trace event stream and
 * its two sink formats, the JSONL reader, and the CLI round trip
 * through `--trace` / `analyze-trace` / `--metrics-json`.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/experiment.h"
#include "core/interval_controller.h"
#include "core/machine.h"
#include "core/telemetry.h"
#include "obs/decision_trace.h"
#include "obs/hooks.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/span_profiler.h"
#include "obs/trace_reader.h"
#include "trace/workloads.h"
#include "util/parallel.h"

namespace cap {
namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// CounterRegistry
// ---------------------------------------------------------------------

TEST(ObsRegistryTest, FindOrCreateAndLookup)
{
    obs::CounterRegistry registry;
    registry.counter("core.cycles").add(5);
    registry.counter("core.cycles").add(7);
    registry.gauge("iq.ewma").set(1.5);
    obs::FixedHistogram &hist =
        registry.histogram("core.occupancy", 0.0, 10.0, 5);
    hist.add(1.0);
    hist.add(9.5);
    hist.add(-3.0);  // clamped into the low bin
    hist.add(42.0);  // clamped into the high bin

    EXPECT_EQ(registry.counterValue("core.cycles"), 12u);
    EXPECT_DOUBLE_EQ(registry.gaugeValue("iq.ewma"), 1.5);
    EXPECT_EQ(registry.counterValue("never.registered"), 0u);
    EXPECT_EQ(registry.findHistogram("never.registered"), nullptr);

    const obs::FixedHistogram *found =
        registry.findHistogram("core.occupancy");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->totalCount(), 4u);
    EXPECT_EQ(found->binValue(0), 2u);
    EXPECT_EQ(found->binValue(4), 2u);
    EXPECT_EQ(registry.counterCount(), 1u);
    EXPECT_EQ(registry.gaugeCount(), 1u);
    EXPECT_EQ(registry.histogramCount(), 1u);
}

TEST(ObsRegistryTest, MergeSumsCountersAndBins)
{
    obs::CounterRegistry a;
    obs::CounterRegistry b;
    a.counter("n").add(3);
    b.counter("n").add(4);
    b.counter("only_b").add(1);
    a.gauge("g").set(1.0);
    b.gauge("g").set(2.0);
    a.histogram("h", 0.0, 4.0, 4).add(0.5);
    b.histogram("h", 0.0, 4.0, 4).add(0.5);
    b.histogram("h", 0.0, 4.0, 4).add(3.5);

    a.merge(b);
    EXPECT_EQ(a.counterValue("n"), 7u);
    EXPECT_EQ(a.counterValue("only_b"), 1u);
    EXPECT_DOUBLE_EQ(a.gaugeValue("g"), 2.0);  // last writer wins
    const obs::FixedHistogram *h = a.findHistogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->totalCount(), 3u);
    EXPECT_EQ(h->binValue(0), 2u);
    EXPECT_EQ(h->binValue(3), 1u);
}

TEST(ObsRegistryTest, RenderJsonFieldsIsDeterministicNameOrder)
{
    obs::CounterRegistry registry;
    registry.counter("z.last").add(1);
    registry.counter("a.first").add(2);
    registry.gauge("m.mid").set(0.5);
    registry.histogram("h.one", 0.0, 1.0, 2).add(0.25);

    std::ostringstream os;
    registry.renderJsonFields(os, 0);
    std::string json = os.str();
    EXPECT_LT(json.find("a.first"), json.find("z.last"));
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Parallel merge discipline (runs under TSan in CI)
// ---------------------------------------------------------------------

TEST(ObsParallelTest, PerCellRegistriesMergeDeterministically)
{
    constexpr size_t kCells = 64;
    for (int jobs : {1, 4}) {
        std::vector<obs::CounterRegistry> cells(kCells);
        parallelFor(jobs, kCells, [&](size_t i) {
            cells[i].counter("cell.events").add(i + 1);
            cells[i].histogram("cell.values", 0.0, 64.0, 8)
                .add(static_cast<double>(i));
        });
        obs::CounterRegistry merged;
        for (const obs::CounterRegistry &cell : cells)
            merged.merge(cell);
        // sum 1..64
        EXPECT_EQ(merged.counterValue("cell.events"), 64u * 65u / 2u);
        const obs::FixedHistogram *h = merged.findHistogram("cell.values");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->totalCount(), kCells);
        for (size_t bin = 0; bin < h->binCount(); ++bin)
            EXPECT_EQ(h->binValue(bin), 8u);
    }
}

TEST(ObsParallelTest, StudyTraceIsIdenticalForEveryJobCount)
{
    std::vector<trace::AppProfile> apps = {trace::workloadSuite()[0],
                                           trace::workloadSuite()[1]};
    core::AdaptiveIqModel model;

    auto traced = [&](int jobs) {
        obs::DecisionTrace trace;
        obs::CounterRegistry registry;
        obs::Hooks hooks{&trace, &registry};
        core::IqStudy study =
            core::runIqStudy(model, apps, 6000, jobs, hooks);
        std::ostringstream jsonl;
        trace.writeJsonl(jsonl);
        std::ostringstream metrics;
        registry.renderJsonFields(metrics, 0);
        return std::make_pair(jsonl.str(), metrics.str());
    };

    auto serial = traced(1);
    auto parallel = traced(4);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
}

// ---------------------------------------------------------------------
// DecisionTrace accounting
// ---------------------------------------------------------------------

TEST(ObsTraceTest, IntervalControllerRecordCountAndRetiredSum)
{
    // Not a multiple of the interval length: the final partial
    // interval must still produce a record and credit its retires.
    constexpr uint64_t kInstrs = 10 * core::kIntervalInstructions + 777;
    const trace::AppProfile &app = trace::workloadSuite()[0];
    core::AdaptiveIqModel model;
    core::IntervalAdaptiveIq controller(model, {});

    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    obs::Hooks hooks{&trace, &registry};
    core::IntervalRunResult result =
        controller.run(app, kInstrs, 32, hooks);

    EXPECT_EQ(trace.countKind(obs::EventKind::Interval),
              result.config_trace.size());
    EXPECT_EQ(trace.intervalRetiredTotal(), result.instructions);
    EXPECT_EQ(registry.counterValue("interval.reconfigurations"),
              static_cast<uint64_t>(result.reconfigurations));
    EXPECT_EQ(registry.counterValue("interval.committed_moves"),
              static_cast<uint64_t>(result.committed_moves));
    // One Reconfig record per physical reconfiguration.
    EXPECT_EQ(trace.countKind(obs::EventKind::Reconfig),
              static_cast<size_t>(result.reconfigurations));
    // The core's own metrics came along.
    EXPECT_GT(registry.counterValue("core.cycles"), 0u);
}

TEST(ObsTraceTest, InstrumentationDoesNotPerturbTheRun)
{
    constexpr uint64_t kInstrs = 8 * core::kIntervalInstructions + 123;
    const trace::AppProfile &app = trace::workloadSuite()[2];
    core::AdaptiveIqModel model;
    core::IntervalAdaptiveIq controller(model, {});

    core::IntervalRunResult plain = controller.run(app, kInstrs, 32);

    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    obs::Hooks hooks{&trace, &registry};
    core::IntervalRunResult observed =
        controller.run(app, kInstrs, 32, hooks);

    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_EQ(plain.total_time_ns, observed.total_time_ns);
    EXPECT_EQ(plain.reconfigurations, observed.reconfigurations);
    EXPECT_EQ(plain.committed_moves, observed.committed_moves);
    EXPECT_EQ(plain.config_trace, observed.config_trace);
}

TEST(ObsTraceTest, EvaluateObservedMatchesEvaluate)
{
    const trace::AppProfile &app = trace::workloadSuite()[3];
    core::AdaptiveIqModel model;
    core::IqPerf plain = model.evaluate(app, 48, 25000);

    obs::DecisionTrace trace;
    core::IqPerf observed = model.evaluateObserved(
        app, 48, 25000, core::kIntervalInstructions, &trace, nullptr);
    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_EQ(plain.cycles, observed.cycles);
    EXPECT_DOUBLE_EQ(plain.ipc, observed.ipc);
    EXPECT_DOUBLE_EQ(plain.tpi_ns, observed.tpi_ns);
    EXPECT_EQ(trace.intervalRetiredTotal(), observed.instructions);
    // ceil(25000 / 2000) = 13 interval records.
    EXPECT_EQ(trace.countKind(obs::EventKind::Interval), 13u);
}

TEST(ObsTraceTest, OracleEmitsWinnerIntervalsAndSwitches)
{
    const trace::AppProfile &app = trace::workloadSuite()[0];
    core::AdaptiveIqModel model;
    std::vector<int> candidates = {16, 64};
    constexpr uint64_t kInstrs = 11000;

    obs::DecisionTrace trace;
    obs::Hooks hooks{&trace, nullptr};
    core::IntervalRunResult result = core::runIntervalOracle(
        model, app, kInstrs, candidates, core::kIntervalInstructions,
        true, core::kClockSwitchPenaltyCycles, 2, hooks);

    EXPECT_EQ(trace.countKind(obs::EventKind::Interval),
              result.config_trace.size());
    EXPECT_EQ(trace.intervalRetiredTotal(), result.instructions);
    EXPECT_EQ(trace.countKind(obs::EventKind::Reconfig),
              static_cast<size_t>(result.reconfigurations));
}

// ---------------------------------------------------------------------
// Sinks and the JSONL reader
// ---------------------------------------------------------------------

TEST(ObsSinkTest, JsonlRoundTripPreservesEveryEvent)
{
    const trace::AppProfile &app = trace::workloadSuite()[1];
    core::AdaptiveIqModel model;
    core::IntervalAdaptiveIq controller(model, {});
    obs::DecisionTrace trace;
    obs::Hooks hooks{&trace, nullptr};
    controller.run(app, 30000, 32, hooks);
    ASSERT_GT(trace.size(), 0u);

    std::stringstream jsonl;
    trace.writeJsonl(jsonl);
    obs::DecisionTrace loaded;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(jsonl, loaded, error)) << error;
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.intervalRetiredTotal(), trace.intervalRetiredTotal());
    for (size_t i = 0; i < trace.size(); ++i) {
        const obs::TraceEvent &a = trace.events()[i];
        const obs::TraceEvent &b = loaded.events()[i];
        EXPECT_EQ(a.kind, b.kind) << "event " << i;
        EXPECT_EQ(a.lane, b.lane);
        EXPECT_EQ(a.app, b.app);
        EXPECT_EQ(a.config, b.config);
        EXPECT_EQ(a.interval, b.interval);
        EXPECT_EQ(a.retired, b.retired);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.decision, b.decision);
        EXPECT_EQ(a.candidate, b.candidate);
        EXPECT_EQ(a.chosen, b.chosen);
        EXPECT_EQ(a.confidence, b.confidence);
        EXPECT_EQ(a.from_config, b.from_config);
        EXPECT_EQ(a.to_config, b.to_config);
        EXPECT_EQ(a.drain_cycles, b.drain_cycles);
        EXPECT_NEAR(a.start_ns, b.start_ns, 1e-6);
        EXPECT_NEAR(a.duration_ns, b.duration_ns, 1e-6);
        EXPECT_NEAR(a.ipc, b.ipc, 1e-9);
        EXPECT_NEAR(a.tpi_ns, b.tpi_ns, 1e-9);
        EXPECT_NEAR(a.ewma_tpi_ns, b.ewma_tpi_ns, 1e-6);
    }
}

TEST(ObsSinkTest, ReaderRejectsGarbage)
{
    obs::DecisionTrace loaded;
    std::string error;
    std::istringstream not_json("this is not json\n");
    EXPECT_FALSE(obs::readTraceJsonl(not_json, loaded, error));
    EXPECT_FALSE(error.empty());

    std::istringstream bad_type("{\"type\": \"martian\"}\n");
    error.clear();
    EXPECT_FALSE(obs::readTraceJsonl(bad_type, loaded, error));
    EXPECT_FALSE(error.empty());
}

TEST(ObsSinkTest, ChromeTraceHasRequiredStructure)
{
    const trace::AppProfile &app = trace::workloadSuite()[0];
    core::AdaptiveIqModel model;
    core::IntervalAdaptiveIq controller(model, {});
    obs::DecisionTrace trace;
    obs::Hooks hooks{&trace, nullptr};
    controller.run(app, 30000, 32, hooks);

    std::ostringstream os;
    trace.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u)
        << "must open the enclosing trace object";
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos)
        << "metadata (thread_name) events";
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos)
        << "complete (duration) events for intervals";
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // Balanced braces / brackets (cheap structural sanity).
    int braces = 0;
    int brackets = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        char ch = json[i];
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        if (ch == '"')
            in_string = true;
        else if (ch == '{')
            ++braces;
        else if (ch == '}')
            --braces;
        else if (ch == '[')
            ++brackets;
        else if (ch == ']')
            --brackets;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// ---------------------------------------------------------------------
// RunTelemetry emission (escaping, div-by-zero, worker breakdown)
// ---------------------------------------------------------------------

TEST(ObsTelemetryTest, JsonEscapesStringsAndGuardsZeroWall)
{
    core::RunTelemetry telemetry;
    telemetry.jobs = 1;
    telemetry.wall_seconds = 0.0;  // cells_per_second must emit 0.0
    telemetry.cells.push_back(
        {"evil\"app\\name", "cfg\nwith\tcontrol", 0.0, 0});

    std::ostringstream os;
    telemetry.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"cells_per_second\": 0.000000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("evil\\\"app\\\\name"), std::string::npos) << json;
    EXPECT_NE(json.find("cfg\\nwith\\tcontrol"), std::string::npos) << json;
}

TEST(ObsTelemetryTest, WorkerBreakdownAndImbalance)
{
    core::RunTelemetry telemetry;
    telemetry.jobs = 2;
    telemetry.wall_seconds = 2.0;
    telemetry.cells.push_back({"a", "c0", 3.0, 0});
    telemetry.cells.push_back({"a", "c1", 1.0, 1});
    telemetry.cells.push_back({"b", "c0", 2.0, 0});

    std::vector<core::WorkerLoad> loads = telemetry.workerLoads();
    ASSERT_EQ(loads.size(), 2u);
    EXPECT_EQ(loads[0].cells, 2u);
    EXPECT_DOUBLE_EQ(loads[0].sim_seconds, 5.0);
    EXPECT_EQ(loads[1].cells, 1u);
    EXPECT_DOUBLE_EQ(loads[1].sim_seconds, 1.0);
    // busiest 5.0 over mean 3.0
    EXPECT_NEAR(telemetry.workerImbalance(), 5.0 / 3.0, 1e-12);

    std::ostringstream os;
    telemetry.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"workers\": ["), std::string::npos) << json;
    EXPECT_NE(json.find("\"worker_imbalance\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"worker\": 1"), std::string::npos) << json;
}

TEST(ObsTelemetryTest, FoldPopulatesRegistry)
{
    core::RunTelemetry telemetry;
    telemetry.jobs = 3;
    telemetry.wall_seconds = 2.0;
    telemetry.reconfigurations = 9;
    telemetry.cells.assign(6, {"a", "c", 1.0, 0});

    obs::CounterRegistry registry;
    telemetry.fold(registry);
    EXPECT_EQ(registry.counterValue("telemetry.jobs"), 3u);
    EXPECT_EQ(registry.counterValue("telemetry.cells"), 6u);
    EXPECT_EQ(registry.counterValue("telemetry.reconfigurations"), 9u);
    EXPECT_DOUBLE_EQ(registry.gaugeValue("telemetry.cells_per_second"),
                     3.0);
}

// ---------------------------------------------------------------------
// CLI round trip: --trace / --metrics-json / analyze-trace
// ---------------------------------------------------------------------

TEST(ObsCliTest, IqSweepTraceRoundTripThroughAnalyzeTrace)
{
    std::string jsonl = tempPath("obs_cli_trace.jsonl");
    std::string chrome = jsonl + ".chrome.json";
    std::string metrics = tempPath("obs_cli_metrics.json");

    std::ostringstream out;
    std::ostringstream err;
    int rc = cli::runCommand({"iq-sweep", "li", "--instrs", "9000",
                              "--trace", jsonl, "--metrics-json", metrics},
                             out, err);
    ASSERT_EQ(rc, 0) << err.str();

    // The JSONL loads back, and its interval records account for every
    // retired instruction of the run: 8 configs x 9000 instructions.
    std::ifstream file(jsonl);
    ASSERT_TRUE(file.is_open());
    obs::DecisionTrace loaded;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(file, loaded, error)) << error;
    uint64_t configs =
        static_cast<uint64_t>(core::AdaptiveIqModel::studySizes().size());
    EXPECT_EQ(loaded.intervalRetiredTotal(), configs * 9000u);

    // The Chrome companion exists and opens the trace object.
    std::ifstream chrome_file(chrome);
    ASSERT_TRUE(chrome_file.is_open());
    std::string head;
    std::getline(chrome_file, head);
    EXPECT_EQ(head.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(head.find("\"traceEvents\": ["), std::string::npos);

    // The metrics document carries registry + telemetry fields.
    std::ifstream metrics_file(metrics);
    ASSERT_TRUE(metrics_file.is_open());
    std::stringstream metrics_text;
    metrics_text << metrics_file.rdbuf();
    EXPECT_NE(metrics_text.str().find("\"counters\""), std::string::npos);
    EXPECT_NE(metrics_text.str().find("core.cycles"), std::string::npos);
    EXPECT_NE(metrics_text.str().find("\"workers\""), std::string::npos);

    // analyze-trace renders the per-interval tables from the file.
    std::ostringstream analysis;
    rc = cli::runCommand({"analyze-trace", jsonl, "--app", "li"},
                         analysis, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(analysis.str().find("Per-interval series"),
              std::string::npos);
    EXPECT_NE(analysis.str().find("Per-lane rollup"), std::string::npos);
    EXPECT_NE(analysis.str().find("interval retired total"),
              std::string::npos);

    std::remove(jsonl.c_str());
    std::remove(chrome.c_str());
    std::remove(metrics.c_str());
}

TEST(ObsCliTest, IntervalRunCommandTracesDecisions)
{
    std::string jsonl = tempPath("obs_cli_interval.jsonl");
    std::ostringstream out;
    std::ostringstream err;
    int rc = cli::runCommand({"interval-run", "li", "--instrs", "50000",
                              "--entries", "32", "--trace", jsonl},
                             out, err);
    ASSERT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("interval controller"), std::string::npos);

    std::ifstream file(jsonl);
    ASSERT_TRUE(file.is_open());
    obs::DecisionTrace loaded;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(file, loaded, error)) << error;
    EXPECT_GT(loaded.countKind(obs::EventKind::Interval), 0u);
    EXPECT_GT(loaded.countKind(obs::EventKind::Decision), 0u);

    std::ostringstream analysis;
    rc = cli::runCommand({"analyze-trace", jsonl}, analysis, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(analysis.str().find("Controller decisions"),
              std::string::npos);
    std::remove(jsonl.c_str());
}

TEST(ObsCliTest, AnalyzeTraceRejectsMissingAndMalformedFiles)
{
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::runCommand({"analyze-trace"}, out, err), 2);
    EXPECT_EQ(
        cli::runCommand({"analyze-trace", tempPath("obs_no_such.jsonl")},
                        out, err),
        2);

    std::string bad = tempPath("obs_bad.jsonl");
    std::ofstream(bad) << "{\"type\": \"interval\", \"retired\": }\n";
    EXPECT_EQ(cli::runCommand({"analyze-trace", bad}, out, err), 2);
    std::remove(bad.c_str());
}

TEST(ObsCliTest, SweepWithoutObsFlagsWritesNothing)
{
    // Inert hooks: the sweep still works and no obs files appear.
    std::ostringstream out;
    std::ostringstream err;
    int rc =
        cli::runCommand({"iq-sweep", "li", "--instrs", "6000"}, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("avg TPI"), std::string::npos);
}

// ---------------------------------------------------------------------
// FixedHistogram percentiles
// ---------------------------------------------------------------------

TEST(ObsRegistryTest, PercentileInterpolatesAcrossUniformBuckets)
{
    obs::FixedHistogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        hist.add(i + 0.5); // one sample per unit-wide bucket
    EXPECT_DOUBLE_EQ(hist.percentile(0), 0.0);
    EXPECT_NEAR(hist.percentile(50), 50.0, 1.0);
    EXPECT_NEAR(hist.percentile(90), 90.0, 1.0);
    EXPECT_NEAR(hist.percentile(99), 99.0, 1.0);
    EXPECT_DOUBLE_EQ(hist.percentile(100), 100.0);
    // Out-of-range p clamps instead of extrapolating.
    EXPECT_DOUBLE_EQ(hist.percentile(-5), hist.percentile(0));
    EXPECT_DOUBLE_EQ(hist.percentile(400), hist.percentile(100));
}

TEST(ObsRegistryTest, PercentileOfEmptyAndDegenerateHistograms)
{
    obs::FixedHistogram empty(1.0, 2.0, 4);
    EXPECT_DOUBLE_EQ(empty.percentile(50), 1.0);

    // Every sample in one bucket: percentiles stay inside it.
    obs::FixedHistogram point(0.0, 8.0, 8);
    point.add(3.5, 1000);
    for (double p : {1.0, 50.0, 99.0}) {
        EXPECT_GE(point.percentile(p), 3.0);
        EXPECT_LE(point.percentile(p), 4.0);
    }
}

TEST(ObsRegistryTest, HistogramJsonCarriesPercentiles)
{
    obs::CounterRegistry registry;
    obs::FixedHistogram &hist =
        registry.histogram("core.occupancy", 0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        hist.add(i + 0.5);
    std::ostringstream os;
    registry.renderJsonFields(os, 0);
    std::string json = os.str();
    EXPECT_NE(json.find("\"p50\": "), std::string::npos) << json;
    EXPECT_NE(json.find("\"p90\": "), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\": "), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// Host-side span profiler (runs under TSan in CI)
// ---------------------------------------------------------------------

TEST(HostProfileTest, DisarmedSpansRecordNothing)
{
    obs::SpanProfiler profiler; // never armed
    {
        CAPSIM_SPAN("never.recorded");
    }
    EXPECT_EQ(obs::SpanProfiler::active(), nullptr);
    EXPECT_EQ(profiler.spanCount(), 0u);
    EXPECT_EQ(profiler.laneCount(), 0);
}

TEST(HostProfileTest, NestingComputesDepthSelfTimeAndStageTable)
{
    obs::SpanProfiler profiler;
    profiler.arm();
    {
        CAPSIM_SPAN("outer");
        {
            CAPSIM_SPAN("inner");
        }
        {
            CAPSIM_SPAN("inner");
        }
    }
    profiler.disarm();
    EXPECT_EQ(obs::SpanProfiler::active(), nullptr);

    ASSERT_EQ(profiler.spanCount(), 3u);
    const std::vector<obs::SpanRecord> &lane = profiler.lane(0);
    // Completion order: both inner spans close before the outer.
    EXPECT_STREQ(lane[0].name, "inner");
    EXPECT_EQ(lane[0].depth, 1);
    EXPECT_STREQ(lane[1].name, "inner");
    EXPECT_STREQ(lane[2].name, "outer");
    EXPECT_EQ(lane[2].depth, 0);
    // The outer's self time excludes both children exactly.
    uint64_t inner_total = lane[0].dur_ns + lane[1].dur_ns;
    EXPECT_GE(lane[2].dur_ns, inner_total);
    EXPECT_EQ(lane[2].self_ns, lane[2].dur_ns - inner_total);
    EXPECT_GE(lane[2].start_ns + lane[2].dur_ns,
              lane[1].start_ns + lane[1].dur_ns);

    std::vector<obs::StageRow> rows = profiler.stageTable();
    ASSERT_EQ(rows.size(), 2u);
    uint64_t calls = 0;
    double share = 0.0;
    for (const obs::StageRow &row : rows) {
        calls += row.calls;
        share += row.share_pct;
        EXPECT_GE(row.total_s, row.self_s);
    }
    EXPECT_EQ(calls, 3u);
    EXPECT_NEAR(share, 100.0, 1e-6);
}

TEST(HostProfileTest, DisarmMidSpanStaysBalanced)
{
    obs::SpanProfiler profiler;
    profiler.arm();
    {
        CAPSIM_SPAN("outlives.the.arm");
        profiler.disarm();
        // The scoped span cached the profiler at construction; its
        // close must still land there instead of being dropped.
    }
    EXPECT_EQ(profiler.spanCount(), 1u);
    EXPECT_STREQ(profiler.lane(0)[0].name, "outlives.the.arm");
}

TEST(HostProfileTest, WorkerLanesRecordIndependentlyUnderParallelFor)
{
    obs::SpanProfiler profiler;
    profiler.arm();
    constexpr size_t kCells = 48;
    std::atomic<uint64_t> sum{0};
    {
        CAPSIM_SPAN("test.fanout");
        parallelFor(4, kCells, [&](size_t i) {
            CAPSIM_SPAN("test.cell");
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    profiler.disarm();
    EXPECT_EQ(sum.load(), kCells * (kCells + 1) / 2);

    EXPECT_EQ(profiler.spanCount(), kCells + 1);
    size_t cell_records = 0;
    for (int l = 0; l < profiler.laneCount(); ++l) {
        for (const obs::SpanRecord &r : profiler.lane(l)) {
            if (std::string(r.name) == "test.cell")
                ++cell_records;
        }
    }
    EXPECT_EQ(cell_records, kCells);

    std::vector<obs::StageRow> rows = profiler.stageTable();
    ASSERT_EQ(rows.size(), 2u);
    for (const obs::StageRow &row : rows) {
        if (row.name == "test.cell")
            EXPECT_EQ(row.calls, kCells);
        else
            EXPECT_EQ(row.name, "test.fanout");
    }
}

TEST(HostProfileTest, FreshWorkerLanesRecordConcurrentlyWithoutReservation)
{
    // Every worker opens its first span on a lane no one has touched,
    // all at once, with nothing reserved from this thread: a lane must
    // never move while another worker records into its own (TSan
    // checks the race in CI).
    obs::SpanProfiler profiler;
    profiler.arm();
    constexpr int kWorkers = 8;
    constexpr size_t kSpansPerWorker = 200;
    std::atomic<int> arrived{0};
    ThreadPool pool(kWorkers);
    parallelFor(pool, kWorkers, [&](size_t) {
        arrived.fetch_add(1);
        while (arrived.load() < kWorkers)
            std::this_thread::yield();
        for (size_t i = 0; i < kSpansPerWorker; ++i) {
            CAPSIM_SPAN("test.burst");
        }
    });
    profiler.disarm();

    EXPECT_EQ(profiler.spanCount(), kWorkers * kSpansPerWorker);
    EXPECT_EQ(profiler.laneCount(), kWorkers);
    for (int l = 0; l < kWorkers; ++l)
        EXPECT_EQ(profiler.lane(l).size(), kSpansPerWorker) << "lane " << l;
}

TEST(HostProfileTest, ChromeTraceHasWorkerLanesAndNestedSpans)
{
    obs::SpanProfiler profiler;
    profiler.arm();
    {
        CAPSIM_SPAN("chrome.outer");
        CAPSIM_SPAN("chrome.inner");
    }
    profiler.disarm();

    std::ostringstream os;
    profiler.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"process_name\""), std::string::npos) << json;
    EXPECT_NE(json.find("worker 0"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
    EXPECT_NE(json.find("chrome.outer"), std::string::npos) << json;
    EXPECT_NE(json.find("\"depth\":1"), std::string::npos)
        << "the inner span is nested one level down: " << json;

    std::ostringstream table;
    profiler.writeStageTable(table);
    EXPECT_NE(table.str().find("stage attribution"), std::string::npos);
    EXPECT_NE(table.str().find("chrome.inner"), std::string::npos);
}

TEST(HostProfileTest, StageTableMergeIsDeterministicAcrossJobCounts)
{
    // Same work on 1 and 4 workers: wall-clock timings differ, but the
    // aggregated structure (names, order domain, call counts) must not.
    auto runOnce = [](int jobs) {
        obs::SpanProfiler profiler;
        profiler.arm();
        {
            CAPSIM_SPAN("det.fanout");
            parallelFor(jobs, 32, [&](size_t) {
                CAPSIM_SPAN("det.cell");
            });
        }
        profiler.disarm();
        std::vector<std::pair<std::string, uint64_t>> shape;
        for (const obs::StageRow &row : profiler.stageTable())
            shape.emplace_back(row.name, row.calls);
        std::sort(shape.begin(), shape.end());
        return shape;
    };
    EXPECT_EQ(runOnce(1), runOnce(4));
}

// ---------------------------------------------------------------------
// Progress meter (runs under TSan in CI)
// ---------------------------------------------------------------------

TEST(ProgressTest, FinalJsonlReportAccountsEveryCell)
{
    std::ostringstream os;
    {
        // Period far beyond the test: only endRun's final report fires.
        obs::ProgressMeter meter(os, /*jsonl=*/true, /*period_s=*/3600.0);
        meter.beginRun("unit-test", 3, 2);
        meter.noteCellDone(0, 1000000);
        meter.noteCellDone(1, 2000000);
        meter.noteCellDone(0, 500000);
        meter.endRun();
        EXPECT_GE(meter.reportCount(), 1u);
    }
    std::string text = os.str();
    EXPECT_NE(text.find("\"event\":\"progress_final\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"label\":\"unit-test\""), std::string::npos);
    EXPECT_NE(text.find("\"done\":3"), std::string::npos) << text;
    EXPECT_NE(text.find("\"total\":3"), std::string::npos);
    EXPECT_NE(text.find("\"worker\":1"), std::string::npos)
        << "per-worker utilization breakdown";
}

TEST(ProgressTest, TextHeartbeatNamesTheRun)
{
    std::ostringstream os;
    {
        obs::ProgressMeter meter(os, false, 3600.0);
        meter.beginRun("text-run", 2, 1);
        meter.noteCellDone(0, 1000);
        meter.noteCellDone(0, 1000);
        meter.endRun();
    }
    EXPECT_NE(os.str().find("text-run: 2/2 cells"), std::string::npos)
        << os.str();
}

TEST(ProgressTest, MeterIsReusableAcrossConsecutiveRuns)
{
    std::ostringstream os;
    obs::ProgressMeter meter(os, true, 3600.0);
    meter.beginRun("first", 1, 1);
    meter.noteCellDone(0, 10);
    meter.endRun();
    meter.beginRun("second", 2, 1);
    meter.noteCellDone(0, 10);
    meter.noteCellDone(0, 10);
    meter.endRun();
    std::string text = os.str();
    EXPECT_NE(text.find("\"label\":\"first\""), std::string::npos);
    EXPECT_NE(text.find("\"label\":\"second\""), std::string::npos);
    // The second run's counters started fresh.
    EXPECT_NE(text.find("\"done\":2,\"total\":2"), std::string::npos)
        << text;
}

TEST(ProgressTest, OutOfRangeWorkerIndicesAreClampedNotLost)
{
    std::ostringstream os;
    {
        obs::ProgressMeter meter(os, true, 3600.0);
        meter.beginRun("clamped", 2, 1);
        meter.noteCellDone(-3, 10);
        meter.noteCellDone(obs::ProgressMeter::kMaxWorkers + 7, 10);
        meter.endRun();
    }
    EXPECT_NE(os.str().find("\"done\":2"), std::string::npos) << os.str();
}

TEST(ProgressTest, ObservingWorkersDoesNotPerturbTheRun)
{
    // The differential the docs promise: a watched parallel fan-out
    // produces bit-identical results to an unwatched one.
    auto runOnce = [](obs::ProgressMeter *meter) {
        std::vector<uint64_t> out(64);
        parallelFor(4, out.size(), [&](size_t i) {
            out[i] = i * 2654435761u;
            if (meter)
                meter->noteCellDone(currentWorkerId(), 100);
        });
        return out;
    };
    std::ostringstream os;
    obs::ProgressMeter meter(os, true, 3600.0);
    meter.beginRun("diff", 64, 4);
    std::vector<uint64_t> watched = runOnce(&meter);
    meter.endRun();
    std::vector<uint64_t> plain = runOnce(nullptr);
    EXPECT_EQ(watched, plain);
}

// ---------------------------------------------------------------------
// RunTelemetry edge cases and pool instrumentation
// ---------------------------------------------------------------------

TEST(ObsTelemetryTest, WorkerLoadsWithIdleWorkers)
{
    core::RunTelemetry telemetry;
    telemetry.jobs = 4;
    telemetry.wall_seconds = 1.0;
    telemetry.cells.push_back({"a", "c0", 1.0, 0}); // workers 1-3 idle

    std::vector<core::WorkerLoad> loads = telemetry.workerLoads();
    ASSERT_EQ(loads.size(), 4u);
    EXPECT_EQ(loads[0].cells, 1u);
    for (size_t w = 1; w < 4; ++w) {
        EXPECT_EQ(loads[w].cells, 0u);
        EXPECT_DOUBLE_EQ(loads[w].sim_seconds, 0.0);
    }
    // busiest 1.0 over mean 0.25
    EXPECT_NEAR(telemetry.workerImbalance(), 4.0, 1e-12);
}

TEST(ObsTelemetryTest, ZeroCellRunIsWellDefined)
{
    core::RunTelemetry telemetry;
    telemetry.jobs = 2;
    telemetry.wall_seconds = 0.5;

    EXPECT_EQ(telemetry.workerLoads().size(), 2u);
    EXPECT_DOUBLE_EQ(telemetry.workerImbalance(), 0.0);
    EXPECT_DOUBLE_EQ(telemetry.cellsPerSecond(), 0.0);

    std::ostringstream os;
    telemetry.writeJson(os);
    EXPECT_NE(os.str().find("\"cells\": 0"), std::string::npos)
        << os.str();
}

TEST(ObsTelemetryTest, CellOnAWorkerBeyondJobsGrowsTheBreakdown)
{
    // A cell attributed past the declared job count (e.g. a recorded
    // trace merged from elsewhere) must widen the table, not crash.
    core::RunTelemetry telemetry;
    telemetry.jobs = 1;
    telemetry.cells.push_back({"a", "c0", 1.0, 5});
    std::vector<core::WorkerLoad> loads = telemetry.workerLoads();
    ASSERT_EQ(loads.size(), 6u);
    EXPECT_EQ(loads[5].cells, 1u);
}

TEST(ObsTelemetryTest, RecordedPoolStatsAppearInJsonAndFold)
{
    ThreadPool pool(3);
    parallelFor(pool, 8, [](size_t) {});
    core::RunTelemetry telemetry;
    telemetry.jobs = 3;
    telemetry.wall_seconds = 1.0;
    telemetry.recordPool(pool);

    ASSERT_TRUE(telemetry.pool_recorded);
    ASSERT_EQ(telemetry.pool.workers.size(), 3u);
    uint64_t tasks = 0;
    uint64_t indices = 0;
    for (const ThreadPool::Stats::Worker &w : telemetry.pool.workers) {
        tasks += w.tasks;
        indices += w.indices;
    }
    EXPECT_EQ(indices, 8u) << "every parallelFor index claimed once";
    EXPECT_EQ(tasks, telemetry.pool.submitted)
        << "every submitted task ran";
    EXPECT_GE(telemetry.pool.max_queue_depth, 1u);

    std::ostringstream os;
    telemetry.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"pool\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"pool_workers\": ["), std::string::npos);
    EXPECT_NE(json.find("\"max_queue_depth\""), std::string::npos);

    obs::CounterRegistry registry;
    telemetry.fold(registry);
    EXPECT_EQ(registry.counterValue("telemetry.pool_submitted"),
              telemetry.pool.submitted);
}

TEST(ObsTelemetryTest, UnrecordedPoolStaysOutOfTheJson)
{
    core::RunTelemetry telemetry;
    telemetry.jobs = 1;
    std::ostringstream os;
    telemetry.writeJson(os);
    EXPECT_EQ(os.str().find("\"pool\""), std::string::npos);
}

// ---------------------------------------------------------------------
// CLI differentials: --host-profile / --progress must not perturb
// results (the run-health flags only observe host time)
// ---------------------------------------------------------------------

TEST(HostProfileTest, CliStudyIsBitIdenticalWithProfilingOnAndOff)
{
    for (int jobs : {1, 4}) {
        std::string chrome = tempPath("hp_diff_chrome.json");
        std::string progress = tempPath("hp_diff_progress.jsonl");

        // One run per instrumentation state; stdout (the study tables)
        // and the decision trace must match byte for byte.
        auto runStudy = [&](bool instrumented) {
            std::string jsonl = tempPath("hp_diff_trace.jsonl");
            std::vector<std::string> args = {
                "iq-sweep",  "li",
                "--instrs",  "9000",
                "--jobs",    std::to_string(jobs),
                "--trace",   jsonl};
            if (instrumented) {
                args.push_back("--host-profile=" + chrome);
                args.push_back("--progress=" + progress);
            }
            std::ostringstream out;
            std::ostringstream err;
            EXPECT_EQ(cli::runCommand(args, out, err), 0) << err.str();
            std::stringstream trace_text;
            trace_text << std::ifstream(jsonl).rdbuf();
            std::remove(jsonl.c_str());
            std::remove((jsonl + ".chrome.json").c_str());
            return out.str() + "\n--trace--\n" + trace_text.str();
        };

        std::string plain = runStudy(false);
        std::string profiled = runStudy(true);
        EXPECT_EQ(plain, profiled) << "jobs=" << jobs;

        // The instrumented run left its artifacts behind.
        std::stringstream chrome_text;
        chrome_text << std::ifstream(chrome).rdbuf();
        EXPECT_NE(chrome_text.str().find("study.cell"),
                  std::string::npos);
        EXPECT_NE(chrome_text.str().find("worker 0"), std::string::npos);
        std::stringstream progress_text;
        progress_text << std::ifstream(progress).rdbuf();
        EXPECT_NE(progress_text.str().find("\"event\":\"progress_final\""),
                  std::string::npos);
        EXPECT_NE(progress_text.str().find("\"label\":\"iq-sweep\""),
                  std::string::npos);
        std::remove(chrome.c_str());
        std::remove(progress.c_str());
    }
}

TEST(HostProfileTest, SampledStudyIsIdenticalWithProfilingOn)
{
    auto runStudy = [&](bool instrumented) {
        std::vector<std::string> args = {
            "sample-run", "li", "--study", "iq", "--instrs", "30000",
            "--jobs", "3"};
        if (instrumented) {
            args.push_back("--host-profile");
            args.push_back("--progress");
        }
        std::ostringstream out;
        std::ostringstream err;
        EXPECT_EQ(cli::runCommand(args, out, err), 0) << err.str();
        if (instrumented) {
            EXPECT_NE(err.str().find("stage attribution"),
                      std::string::npos)
                << err.str();
            EXPECT_NE(err.str().find("sample.replay"), std::string::npos)
                << err.str();
        }
        return out.str();
    };
    EXPECT_EQ(runStudy(false), runStudy(true));
}

TEST(HostProfileTest, SampleProfileEmitsStageTable)
{
    std::ostringstream out;
    std::ostringstream err;
    int rc = cli::runCommand({"sample-profile", "li", "--study", "iq",
                              "--instrs", "30000", "--host-profile"},
                             out, err);
    ASSERT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("sampling plan"), std::string::npos);
    EXPECT_NE(err.str().find("stage attribution"), std::string::npos)
        << err.str();
    EXPECT_NE(err.str().find("sample.cluster"), std::string::npos)
        << err.str();
}

TEST(HostProfileTest, TelemetryJsonOnIntervalRunAndSampleRun)
{
    // Satellite of the run-health work: --telemetry-json is accepted
    // by interval-run and sample-run and lands the standard document.
    std::string path = tempPath("hp_interval_telemetry.json");
    std::ostringstream out;
    std::ostringstream err;
    int rc = cli::runCommand({"interval-run", "li", "--instrs", "30000",
                              "--telemetry-json", path},
                             out, err);
    ASSERT_EQ(rc, 0) << err.str();
    std::stringstream doc;
    doc << std::ifstream(path).rdbuf();
    EXPECT_NE(doc.str().find("\"wall_seconds\""), std::string::npos);
    std::remove(path.c_str());

    std::string sample_path = tempPath("hp_sample_telemetry.json");
    rc = cli::runCommand({"sample-run", "li", "--study", "iq",
                          "--instrs", "30000", "--jobs", "2",
                          "--telemetry-json", sample_path},
                         out, err);
    ASSERT_EQ(rc, 0) << err.str();
    std::stringstream sample_doc;
    sample_doc << std::ifstream(sample_path).rdbuf();
    EXPECT_NE(sample_doc.str().find("\"wall_seconds\""),
              std::string::npos);
    EXPECT_NE(sample_doc.str().find("\"pool\""), std::string::npos)
        << "sampled runs record thread-pool health";
    std::remove(sample_path.c_str());
}

} // namespace
} // namespace cap
