/**
 * @file
 * Error-path coverage: user-error (fatal) and invariant-violation
 * (panic) handling across the public API.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/concert.h"
#include "core/config_manager.h"
#include "core/interval_controller.h"
#include "core/multiprogram.h"
#include "ooo/stream.h"
#include "ooo/uop_file.h"
#include "sample/online_phase.h"
#include "sample/signature.h"
#include "trace/file_trace.h"
#include "trace/patterns.h"
#include "trace/stream.h"
#include "trace/workloads.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cap {
namespace {

TEST(ErrorPathsTest, CacheModelBoundsChecked)
{
    core::AdaptiveCacheModel model;
    EXPECT_DEATH(model.boundaryTiming(0), "out of range");
    EXPECT_DEATH(model.boundaryTiming(16), "out of range");
    EXPECT_DEATH(model.busDelayNs(0), "out of range");
    EXPECT_DEATH(model.busDelayNs(17), "out of range");
    EXPECT_DEATH(model.evaluate(trace::findApp("li"), 2, 0),
                 "needs references");
    EXPECT_DEATH(model.sweep(trace::findApp("li"), 16, 100),
                 "out of range");
}

TEST(ErrorPathsTest, IqModelBoundsChecked)
{
    core::AdaptiveIqModel model;
    EXPECT_DEATH(model.evaluate(trace::findApp("li"), 64, 0),
                 "needs instructions");
    EXPECT_DEATH(model.cycleNs(20), "multiple");
    EXPECT_DEATH(
        model.intervalSeries(trace::findApp("li"), 64, 1000, 0),
        "positive");
}

TEST(ErrorPathsTest, IntervalPolicyValidated)
{
    core::AdaptiveIqModel model;
    core::IntervalPolicyParams bad_margin;
    bad_margin.switch_margin = -0.01;
    EXPECT_DEATH(core::IntervalAdaptiveIq(model, bad_margin),
                 "switch margin");
    core::IntervalPolicyParams empty_interval;
    empty_interval.interval_instrs = 0;
    EXPECT_DEATH(core::IntervalAdaptiveIq(model, empty_interval),
                 "empty interval");
    core::IntervalPolicyParams bad_ceiling;
    bad_ceiling.trigger = core::IntervalTrigger::Hybrid;
    bad_ceiling.probe_period_max = bad_ceiling.probe_period - 1;
    EXPECT_DEATH(core::IntervalAdaptiveIq(model, bad_ceiling),
                 "probe backoff ceiling");
    core::IntervalPolicyParams bad_threshold;
    bad_threshold.trigger = core::IntervalTrigger::PhaseChange;
    bad_threshold.phase_distance_threshold = 0.0;
    EXPECT_DEATH(core::IntervalAdaptiveIq(model, bad_threshold),
                 "phase distance threshold");
}

TEST(ErrorPathsTest, PhaseDetectorValidated)
{
    const trace::AppProfile &app = trace::findApp("li");
    sample::OnlinePhaseDetector detector(app.ilp, app.seed);
    EXPECT_DEATH(detector.observe(0), "empty interval");
    sample::OnlinePhaseParams bad;
    bad.max_phases = 0;
    EXPECT_DEATH(sample::OnlinePhaseDetector(app.ilp, app.seed, bad),
                 "capacity");
}

TEST(ErrorPathsTest, PatternConstructionValidated)
{
    trace::Region tiny{0, 8};
    EXPECT_DEATH(trace::ZipfResident(tiny, 32, 1.0, 1),
                 "smaller than one block");
    trace::Region region{0, 4096};
    EXPECT_DEATH(trace::CyclicSweep(region, 0), "stride");
    EXPECT_DEATH(trace::Stream(region, 32, 0), "touch");
}

TEST(ErrorPathsTest, IlpPhaseLatencyValidated)
{
    // Latencies must lie in [1, kMaxLatency], the reader's bound.
    trace::IlpBehavior behavior = trace::findApp("li").ilp;
    behavior.phases[0].long_lat_cycles =
        static_cast<int>(ooo::kMaxLatency) + 1;
    EXPECT_DEATH(ooo::InstructionStream(behavior, 1), "phase latency");
    behavior.phases[0].long_lat_cycles = static_cast<int>(ooo::kMaxLatency);
    behavior.phases[0].short_lat_cycles = 0;
    EXPECT_DEATH(ooo::InstructionStream(behavior, 1), "phase latency");
}

TEST(ErrorPathsTest, EmptyMixRejected)
{
    trace::CacheBehavior empty;
    EXPECT_DEATH(trace::SyntheticTraceSource(empty, 1, 100),
                 "empty reference mix");
}

TEST(ErrorPathsTest, MultiprogramBoundaryVectorValidated)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("gcc")};
    core::MultiprogramParams params;
    params.boundaries = {1, 2, 3}; // three entries for two apps
    EXPECT_DEATH(runMultiprogram(model, apps, 1000, params),
                 "one per app");
    core::MultiprogramParams empty_apps;
    EXPECT_DEATH(
        runMultiprogram(model, {}, 1000, empty_apps),
        "needs applications");
}

TEST(ErrorPathsTest, ConcertRequiresWork)
{
    EXPECT_DEATH(core::runConcertStudy({}, 1000), "needs applications");
    EXPECT_DEATH(core::runConcertStudy({trace::findApp("li")}, 0),
                 "needs references");
}

TEST(ErrorPathsTest, TraceWriterValidatesLimit)
{
    const trace::AppProfile &app = trace::findApp("li");
    trace::SyntheticTraceSource source(app.cache, app.seed, 10);
    EXPECT_DEATH(trace::writeTraceFile("/tmp/x.din", source, 0),
                 "empty trace");
}

TEST(ErrorPathsTest, TraceFileProfilingValidated)
{
    // Missing files die cleanly on both study sides.
    EXPECT_DEATH(trace::FileTraceSource("/nonexistent/capsim.din"),
                 "cannot open trace file");
    EXPECT_DEATH(ooo::UopFileSource("/nonexistent/capsim.uop"),
                 "cannot open uop trace file");

    // A file with no usable records cannot seed a sampling plan.
    std::string empty_din = testing::TempDir() + "/capsim_empty.din";
    std::ofstream(empty_din).close();
    EXPECT_DEATH(sample::profileCacheIntervalsFromFile(empty_din, 1000),
                 "has no records");
    std::string corrupt_uop = testing::TempDir() + "/capsim_corrupt.uop";
    {
        std::ofstream out(corrupt_uop);
        out << "# comments only\nnot a record\n3 1\n";
    }
    EXPECT_DEATH(sample::profileIlpIntervalsFromFile(corrupt_uop, 1000),
                 "has no records");
    EXPECT_DEATH(sample::profileIlpIntervalsFromFile(corrupt_uop, 0),
                 "positive");
}

TEST(ErrorPathsTest, UopWriterValidatesLimit)
{
    const trace::AppProfile &app = trace::findApp("li");
    ooo::InstructionStream stream(app.ilp, app.seed);
    EXPECT_DEATH(ooo::writeUopTraceFile("/tmp/capsim_x.uop", stream, 0),
                 "empty uop trace");
}

TEST(ErrorPathsTest, UopReaderSkipsCorruptRecords)
{
    // Truncated or corrupt lines are skipped with a warning; the
    // valid records around them still flow.
    std::string path = testing::TempDir() + "/capsim_mixed.uop";
    {
        std::ofstream out(path);
        out << "# header\n"
               "1 0 2\n"     // valid (distance clamps to stream start)
               "bogus line\n" // corrupt
               "3 1\n"        // truncated record
               "0 0 0\n"      // zero latency
               "999 0 1\n"    // distance beyond kMaxDepDistance
               "0 0 4000000000\n" // latency beyond kMaxLatency
               "4294967297 0 1\n" // distance 2^32 + 1 (must not wrap)
               "0 0 4294967299\n" // latency 2^32 + 3 (must not wrap)
               "2 1 3\n"      // valid
               "1 0 65536\n"; // latency exactly kMaxLatency: kept
    }
    ooo::UopFileSource source(path);
    ooo::MicroOp op;
    ASSERT_TRUE(source.next(op));
    EXPECT_EQ(op.src1_dist, 0u); // clamped: no prior instruction
    EXPECT_EQ(op.latency, 2u);
    ASSERT_TRUE(source.next(op));
    EXPECT_EQ(op.src1_dist, 1u);
    EXPECT_EQ(op.latency, 3u);
    ASSERT_TRUE(source.next(op));
    EXPECT_EQ(op.latency, ooo::kMaxLatency);
    EXPECT_FALSE(source.next(op));
    EXPECT_EQ(source.produced(), 3u);
    EXPECT_EQ(source.skipped(), 7u);
}

TEST(ErrorPathsTest, SelectionNeedsInput)
{
    EXPECT_DEATH(core::selectConfigurations({}), "at least one");
    std::vector<std::vector<double>> no_configs = {{}};
    EXPECT_DEATH(core::selectConfigurations(no_configs),
                 "at least one configuration");
}

TEST(ErrorPathsTest, RngGuards)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "positive bound");
    EXPECT_DEATH(rng.range(3, 2), "lo <= hi");
    EXPECT_DEATH(rng.zipf(0, 1.0), "empty range");
    EXPECT_DEATH(rng.weighted({}), "empty weights");
    EXPECT_DEATH(rng.weighted({0.0, 0.0}), "positive total");
    EXPECT_DEATH(rng.weighted({-1.0, 2.0}), "negative weight");
}

TEST(ErrorPathsTest, SingleConfigurationSelectionWorks)
{
    // Degenerate but legal: one configuration, one app.
    std::vector<std::vector<double>> tpi = {{0.5}};
    core::SelectionResult sel = core::selectConfigurations(tpi);
    EXPECT_EQ(sel.best_conventional, 0u);
    EXPECT_EQ(sel.per_app_best[0], 0u);
    EXPECT_DOUBLE_EQ(sel.meanReduction(), 0.0);
}

TEST(ErrorPathsTest, UnknownCliCommandListsKnownCommands)
{
    // An unrecognized command word is not a usage error of a known
    // command (exit 2): it gets its own exit code and the full
    // command list so typos are self-diagnosing.
    std::ostringstream out, err;
    int code = cli::runCommand({"cache-swep"}, out, err);
    EXPECT_EQ(code, cli::kUnknownCommandExit);
    EXPECT_NE(code, 2);
    EXPECT_NE(err.str().find("unknown command 'cache-swep'"),
              std::string::npos);
    EXPECT_NE(err.str().find("known commands:"), std::string::npos);
    for (const char *name :
         {"apps", "timing", "cache-sweep", "iq-sweep", "interval-run",
          "serve", "client", "help"})
        EXPECT_NE(err.str().find(name), std::string::npos) << name;
}

TEST(ErrorPathsTest, MalformedJobsIsAUsageError)
{
    // Each value would otherwise reach the worker pool as a negative
    // or wrapped count, or silently run serial.  serve is given no
    // transport, so a missed check still ends in a usage error, but
    // one that does not name --jobs.
    const std::vector<std::vector<std::string>> commands = {
        {"cache-sweep", "li", "--refs", "2000"},
        {"cache-sweep", "li", "--refs", "2000", "--sample"},
        {"iq-sweep", "li", "--instrs", "2000"},
        {"sample-run", "li", "--study", "iq", "--instrs", "2000"},
        {"serve"}};
    for (const char *jobs :
         {"-1", "-0", "+2", "abc", "", "1.5", "4x", "2147483648",
          "18446744073709551615", "99999999999999999999"}) {
        for (std::vector<std::string> args : commands) {
            args.insert(args.end(), {"--jobs", jobs});
            std::ostringstream out, err;
            EXPECT_EQ(cli::runCommand(args, out, err), 2)
                << args[0] << " --jobs '" << jobs << "'";
            EXPECT_NE(err.str().find("--jobs"), std::string::npos)
                << args[0] << " --jobs '" << jobs << "': " << err.str();
            EXPECT_EQ(out.str(), "") << args[0];
        }
    }
}

TEST(ErrorPathsTest, MalformedNumericFlagsAreUsageErrors)
{
    // Every numeric flag of every verb, given a value that is empty,
    // signed, fractional where an integer is expected, followed by
    // junk, or out of range for the field it fills: a usage error that
    // names the flag, before any output.  Each would otherwise fall
    // back to the flag's default, wrap a negative count, or (a zero
    // run length, interval, cluster count or block) abort on an
    // assertion.
    const std::string trace_path =
        testing::TempDir() + "/capsim_numeric_flags.jsonl";
    struct Case
    {
        std::vector<std::string> command;
        std::string flag;
        /** 0 is out of range: the field counts something there
         *  must be at least one of. */
        bool positive = false;
        /** The field is an int: 2^31 is out of range. */
        bool int_field = false;
    };
    const std::vector<Case> integer_cases = {
        {{"cache-sweep", "li"}, "refs", true},
        {{"iq-sweep", "li"}, "instrs", true},
        {{"interval-run", "li"}, "instrs", true},
        {{"interval-run", "li"}, "entries", false, true},
        {{"interval-run", "li"}, "interval"},
        {{"interval-run", "li"}, "probe-period", false, true},
        {{"interval-run", "li"}, "confidence", false, true},
        {{"interval-run", "li"}, "probe-max", false, true},
        {{"sample-profile", "li"}, "refs", true},
        {{"sample-profile", "li", "--study", "iq"}, "instrs", true},
        {{"sample-profile", "li"}, "interval", true},
        {{"sample-profile", "li"}, "clusters", true},
        {{"sample-profile", "li"}, "warmup"},
        {{"sample-profile", "li"}, "cold-prefix"},
        {{"sample-run", "li"}, "refs", true},
        {{"sample-run", "li", "--study", "iq"}, "instrs", true},
        {{"sample-run", "li"}, "interval", true},
        {{"sample-run", "li"}, "clusters", true},
        {{"sample-run", "li"}, "warmup"},
        {{"sample-run", "li"}, "cold-prefix"},
        {{"analyze-trace", trace_path}, "first"},
        {{"analyze-trace", trace_path}, "last"},
        {{"analyze-trace", trace_path}, "stride", true},
        {{"gen-trace", "li", trace_path}, "refs", true},
        {{"gen-trace", "li", trace_path, "--study", "iq"}, "instrs", true},
        {{"analyze", trace_path}, "limit"},
        {{"analyze", trace_path}, "block", true},
        {{"serve"}, "queue"},
        {{"serve"}, "cache"},
    };
    const std::vector<Case> number_cases = {
        {{"interval-run", "li"}, "phase-threshold"},
        {{"sample-run", "li", "--validate", "--check"}, "mae-max"},
        {{"serve"}, "heartbeat-period"},
    };
    auto expectUsageError = [&](const Case &c, const std::string &value) {
        std::vector<std::string> args = c.command;
        args.insert(args.end(), {"--" + c.flag, value});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCommand(args, out, err), 2)
            << args[0] << " --" << c.flag << " '" << value << "'";
        EXPECT_NE(err.str().find("--" + c.flag), std::string::npos)
            << args[0] << " --" << c.flag << " '" << value
            << "': " << err.str();
        EXPECT_EQ(out.str(), "") << args[0] << " --" << c.flag;
    };
    for (const Case &c : integer_cases) {
        for (const char *value :
             {"", "-5", "-0", "+2", "1.5", "1e4", "4x", " 7", "abc",
              "18446744073709551616", "99999999999999999999"})
            expectUsageError(c, value);
        if (c.positive)
            expectUsageError(c, "0");
        if (c.int_field)
            expectUsageError(c, "2147483648");
    }
    for (const Case &c : number_cases) {
        for (const char *value : {"", "-1", "-0.5", "+1", "abc", "0.5x",
                                  " 1", "nan", "inf", "1e999"})
            expectUsageError(c, value);
    }
    // --sample's k,interval,warmup are counts too.
    for (const char *spec : {"-5", "4,-1", "4,1e3", "+4"}) {
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCommand({"cache-sweep", "li",
                                   std::string("--sample=") + spec},
                                  out, err),
                  2)
            << spec;
        EXPECT_NE(err.str().find("--sample"), std::string::npos) << spec;
    }
    std::remove(trace_path.c_str());
}

TEST(ErrorPathsTest, UnknownFlagsAreUsageErrors)
{
    // A flag the verb does not read is a usage error naming it, before
    // any output: "--ref 1000" would otherwise run the 150000-reference
    // default, and a misspelt --jobs a serial sweep.
    const std::string path = testing::TempDir() + "/capsim_unknown_flag";
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"cache-sweep", "li", "--ref", "1000"}, "--ref"},
            {{"cache-sweep", "li", "--refs", "1000", "--jbos", "4"},
             "--jbos"},
            {{"cache-sweep", "li", "--trigger", "hybrid"}, "--trigger"},
            {{"iq-sweep", "li", "--refs", "1000"}, "--refs"},
            {{"interval-run", "li", "--sample"}, "--sample"},
            {{"interval-run", "li", "--jobs", "2"}, "--jobs"},
            // Each side of a sample verb reads its own run length.
            {{"sample-profile", "li", "--instrs", "1000"}, "--instrs"},
            {{"sample-run", "li", "--study", "iq", "--refs", "1000"},
             "--refs"},
            {{"sample-run", "li", "--sample"}, "--sample"},
            {{"gen-trace", "li", path, "--instrs", "10"}, "--instrs"},
            {{"analyze", path, "--refs", "10"}, "--refs"},
            {{"analyze-trace", path, "--instrs", "1"}, "--instrs"},
            {{"serve", "--spil", path}, "--spil"},
            {{"client", path, "--socket", path, "--event", path},
             "--event"},
            {{"apps", "--all"}, "--all"},
            {{"timing", "--json"}, "--json"},
        };
    for (const auto &[args, flag] : cases) {
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCommand(args, out, err), 2) << args[0] << flag;
        EXPECT_NE(err.str().find("unknown flag " + flag), std::string::npos)
            << args[0] << ": " << err.str();
        EXPECT_EQ(out.str(), "") << args[0] << flag;
    }
}

TEST(ErrorPathsTest, SingleApplicationVerbsRejectASecond)
{
    const std::string path = testing::TempDir() + "/capsim_second_app";
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"interval-run", "li", "gcc", "--instrs", "2000"},
             {"interval-run", "all", "--instrs", "2000"},
             {"sample-profile", "li", "gcc", "--refs", "20000"},
             {"gen-trace", "all", path}}) {
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCommand(args, out, err), 2) << args[1];
        EXPECT_NE(err.str().find("single application"), std::string::npos)
            << args[0] << ": " << err.str();
        EXPECT_EQ(out.str(), "") << args[0];
    }
}

TEST(ErrorPathsTest, MaeMaxTakesAFraction)
{
    // This run's MAE is 0.52%: --mae-max 0.5 must fail the check and
    // 0.6 pass it (an integer-only read turned 0.5 into the default 2).
    auto check = [](const char *mae_max) {
        std::ostringstream out, err;
        int code = cli::runCommand(
            {"sample-run", "li", "--study", "iq", "--instrs", "100000",
             "--interval", "2000", "--warmup", "2000", "--validate",
             "--check", "--mae-max", mae_max},
            out, err);
        EXPECT_NE(out.str().find("| 0.52 "), std::string::npos)
            << out.str();
        return code;
    };
    EXPECT_EQ(check("0.5"), 1);
    EXPECT_EQ(check("0.6"), 0);
}

TEST(ErrorPathsTest, OutOfRangeJobsEnvIsIgnored)
{
    // CAPSIM_JOBS outside [1, 2^31) is ignored like a malformed one:
    // --jobs 0 then means every hardware thread, not a wrapped count.
    const char *saved = std::getenv("CAPSIM_JOBS");
    std::string saved_value = saved ? saved : "";
    unsetenv("CAPSIM_JOBS");
    const int hardware = defaultJobs();
    std::ostringstream serial;
    std::ostringstream ignored;
    ASSERT_EQ(cli::runCommand({"cache-sweep", "li", "--refs", "2000",
                               "--jobs", "1"},
                              serial, ignored),
              0);
    for (const char *env :
         {"2147483648", "99999999999999999999", "-3", "0"}) {
        setenv("CAPSIM_JOBS", env, 1);
        EXPECT_EQ(defaultJobs(), hardware) << env;
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCommand({"cache-sweep", "li", "--refs", "2000",
                                   "--jobs", "0"},
                                  out, err),
                  0)
            << env;
        EXPECT_EQ(out.str(), serial.str()) << env;
    }
    if (saved)
        setenv("CAPSIM_JOBS", saved_value.c_str(), 1);
    else
        unsetenv("CAPSIM_JOBS");
}

} // namespace
} // namespace cap
