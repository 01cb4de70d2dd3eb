/**
 * @file
 * Tests for trace characterization (stack distances) and the CLI
 * driver.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/tlb.h"
#include "cli/cli.h"
#include "trace/analysis.h"
#include "trace/file_trace.h"
#include "trace/stream.h"
#include "trace/workloads.h"
#include "util/rng.h"

namespace cap {
namespace {

using trace::TraceAnalyzer;
using trace::TraceCharacter;
using trace::TraceRecord;

constexpr uint64_t kBlock = trace::kBlockBytes;

// ---------------------------------------------------------------------
// TraceAnalyzer
// ---------------------------------------------------------------------

TEST(TraceAnalyzerTest, CountsAndFootprint)
{
    TraceAnalyzer analyzer;
    analyzer.add({0, false});
    analyzer.add({8, true});      // same block
    analyzer.add({kBlock, false}); // second block
    TraceCharacter c = analyzer.character();
    EXPECT_EQ(c.refs, 3u);
    EXPECT_EQ(c.writes, 1u);
    EXPECT_EQ(c.footprint_blocks, 2u);
    EXPECT_EQ(c.cold_refs, 2u);
    EXPECT_NEAR(c.writeFraction(), 1.0 / 3.0, 1e-12);
}

TEST(TraceAnalyzerTest, ImmediateReuseHasDistanceOne)
{
    TraceAnalyzer analyzer;
    analyzer.add({0, false});
    analyzer.add({0, false});
    TraceCharacter c = analyzer.character();
    EXPECT_EQ(c.exact_counts[1], 1u);
    // A one-block cache hits it.
    EXPECT_NEAR(c.missRatioAtBlocks(1), 0.5, 1e-12);
}

TEST(TraceAnalyzerTest, CyclicSweepDistancesEqualRegionSize)
{
    // Sweeping N blocks cyclically: every re-reference has stack
    // distance exactly N.
    const uint64_t n = 64;
    TraceAnalyzer analyzer;
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t b = 0; b < n; ++b)
            analyzer.add({b * kBlock, false});
    }
    TraceCharacter c = analyzer.character();
    // All non-cold references have distance exactly 64.
    EXPECT_EQ(c.exact_counts[64], 2 * n);
    // A 63-block cache misses everything; a 64-block cache holds it.
    EXPECT_NEAR(c.missRatioAtBlocks(63), 1.0, 1e-12);
    EXPECT_NEAR(c.missRatioAtBlocks(64),
                static_cast<double>(n) / (3 * n), 1e-12);
}

TEST(TraceAnalyzerTest, MissRatioCurveMonotone)
{
    const trace::AppProfile &app = trace::findApp("gcc");
    trace::SyntheticTraceSource source(app.cache, app.seed, 40000);
    TraceCharacter c = trace::analyzeTrace(source, 0);
    EXPECT_EQ(c.refs, 40000u);
    double prev = 1.0;
    for (uint64_t kb = 1; kb <= 512; kb *= 2) {
        double miss = c.missRatioAtBytes(kib(kb));
        EXPECT_LE(miss, prev + 1e-12);
        EXPECT_GE(miss, 0.0);
        prev = miss;
    }
    // At huge capacity only cold misses remain.
    EXPECT_NEAR(c.missRatioAtBytes(mib(64)),
                static_cast<double>(c.cold_refs) /
                    static_cast<double>(c.refs),
                1e-9);
}

TEST(TraceAnalyzerTest, GrowthRebuildPreservesCorrectness)
{
    // Push past several Fenwick doublings (initial size 1024) with a
    // two-block ping-pong whose distances are always 2.
    TraceAnalyzer analyzer;
    for (int i = 0; i < 5000; ++i) {
        analyzer.add({0, false});
        analyzer.add({kBlock, false});
    }
    TraceCharacter c = analyzer.character();
    EXPECT_EQ(c.refs, 10000u);
    // All non-cold distances are 2.
    EXPECT_EQ(c.exact_counts[2], 10000u - 2u);
    EXPECT_EQ(c.exact_counts[1], 0u);
}

TEST(TraceAnalyzerTest, MatchesSimulatedFullyAssociativeCache)
{
    // Differential check: stack-distance miss ratio at capacity C must
    // match a simulated fully-associative LRU cache of C blocks, when
    // C is a bin boundary.
    Rng rng(77);
    std::vector<TraceRecord> records;
    for (int i = 0; i < 20000; ++i)
        records.push_back({rng.zipf(512, 0.9) * kBlock, false});

    TraceAnalyzer analyzer;
    for (const TraceRecord &r : records)
        analyzer.add(r);
    double predicted = analyzer.character().missRatioAtBlocks(128);

    // Simulate via a TLB (it is exactly a fully-associative LRU array
    // over "pages"; use block-sized pages).
    cache::Tlb lru(128, kBlock);
    for (const TraceRecord &r : records)
        lru.access(r.addr);
    double simulated = lru.stats().missRatio();
    EXPECT_NEAR(predicted, simulated, 1e-12);
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

int
run(const std::vector<std::string> &args, std::string *out_text = nullptr)
{
    std::ostringstream out, err;
    int code = cli::runCommand(args, out, err);
    if (out_text)
        *out_text = out.str() + err.str();
    return code;
}

TEST(CliTest, ParseArgs)
{
    cli::Options options = cli::parseArgs(
        {"li", "out.din", "--refs", "5000", "--block=64", "--verbose"});
    ASSERT_EQ(options.positional.size(), 2u);
    EXPECT_EQ(options.positional[0], "li");
    EXPECT_EQ(options.positional[1], "out.din");
    EXPECT_EQ(options.getU64("refs", 0), 5000u);
    EXPECT_EQ(options.getU64("block", 0), 64u);
    // A trailing flag with no value parses as an empty string.
    EXPECT_EQ(options.get("verbose", "unset"), "");
    EXPECT_EQ(options.get("missing", "dflt"), "dflt");
    EXPECT_EQ(options.getU64("missing", 7), 7u);
}

TEST(CliTest, HelpAndUnknownCommand)
{
    std::string text;
    EXPECT_EQ(run({"help"}, &text), 0);
    EXPECT_NE(text.find("cache-sweep"), std::string::npos);
    EXPECT_EQ(run({}, &text), 0);
    // Unknown commands get a distinct exit code and the command list.
    EXPECT_EQ(run({"frobnicate"}, &text), cli::kUnknownCommandExit);
    EXPECT_NE(text.find("unknown command"), std::string::npos);
    EXPECT_NE(text.find("known commands:"), std::string::npos);
    EXPECT_NE(text.find("cache-sweep"), std::string::npos);
}

TEST(CliTest, AppsListsSuite)
{
    std::string text;
    EXPECT_EQ(run({"apps"}, &text), 0);
    EXPECT_NE(text.find("stereo"), std::string::npos);
    EXPECT_NE(text.find("appcg"), std::string::npos);
    EXPECT_NE(text.find("SPECfp95"), std::string::npos);
}

TEST(CliTest, TimingPrintsBothTables)
{
    std::string text;
    EXPECT_EQ(run({"timing"}, &text), 0);
    EXPECT_NE(text.find("16KB/4way"), std::string::npos);
    EXPECT_NE(text.find("instruction-queue"), std::string::npos);
}

TEST(CliTest, CacheSweepSingleApp)
{
    std::string text;
    EXPECT_EQ(run({"cache-sweep", "li", "--refs", "20000"}, &text), 0);
    EXPECT_NE(text.find("li"), std::string::npos);
    EXPECT_NE(text.find("64KB"), std::string::npos);
}

TEST(CliTest, IqSweepSingleApp)
{
    std::string text;
    EXPECT_EQ(run({"iq-sweep", "appcg", "--instrs", "20000"}, &text), 0);
    EXPECT_NE(text.find("appcg"), std::string::npos);
    // appcg favours the 16-entry queue.
    EXPECT_NE(text.find("| 16"), std::string::npos);
}

TEST(CliTest, SweepRejectsUnknownApp)
{
    std::string text;
    EXPECT_EQ(run({"cache-sweep", "doom"}, &text), 2);
    EXPECT_NE(text.find("unknown application"), std::string::npos);
    EXPECT_EQ(run({"cache-sweep"}, &text), 2);
}

/** The cells of @p table's row for @p app, without their padding;
 *  empty when the table has no such row. */
std::vector<std::string>
rowCells(const std::string &table, const std::string &app)
{
    std::istringstream lines(table);
    std::string line;
    while (std::getline(lines, line)) {
        std::vector<std::string> cells;
        std::istringstream fields(line);
        std::string cell;
        while (std::getline(fields, cell, '|')) {
            cell.erase(0, cell.find_first_not_of(' '));
            cell.erase(cell.find_last_not_of(' ') + 1);
            cells.push_back(cell);
        }
        if (cells.size() > 1 && cells[1] == app)
            return cells;
    }
    return {};
}

TEST(CliTest, SweepsTakeTheJobApplicationGrammar)
{
    // "all" or one or more names, as a served job's "apps" takes them:
    // each row is that application's row of the larger sweep.
    const std::vector<std::pair<std::vector<std::string>,
                                std::vector<std::string>>>
        sweeps = {
            {{"iq-sweep", "li", "gcc", "--instrs", "20000"},
             {"iq-sweep", "all", "--instrs", "20000"}},
            {{"cache-sweep", "gcc", "li", "--refs", "20000"},
             {"cache-sweep", "all", "--refs", "20000"}},
            {{"sample-run", "li", "gcc", "--study", "iq", "--instrs",
              "30000"},
             {"sample-run", "li", "--study", "iq", "--instrs", "30000"}},
        };
    for (const auto &[pair, larger] : sweeps) {
        std::string pair_text, larger_text;
        ASSERT_EQ(run(pair, &pair_text), 0) << pair_text;
        ASSERT_EQ(run(larger, &larger_text), 0) << larger_text;
        EXPECT_FALSE(rowCells(pair_text, "li").empty()) << pair[0];
        EXPECT_FALSE(rowCells(pair_text, "gcc").empty()) << pair[0];
        EXPECT_TRUE(rowCells(pair_text, "go").empty()) << pair[0];
        EXPECT_EQ(rowCells(pair_text, "li"), rowCells(larger_text, "li"))
            << pair[0];
        if (larger[1] == "all") {
            EXPECT_EQ(rowCells(pair_text, "gcc"),
                      rowCells(larger_text, "gcc"))
                << pair[0];
        }
    }
}

TEST(CliTest, GenTraceAndAnalyzeRoundTrip)
{
    std::string path = testing::TempDir() + "/capsim_cli_trace.din";
    std::string text;
    EXPECT_EQ(run({"gen-trace", "li", path, "--refs", "3000"}, &text), 0);
    EXPECT_NE(text.find("wrote 3000"), std::string::npos);
    EXPECT_EQ(run({"analyze", path, "--limit", "3000"}, &text), 0);
    EXPECT_NE(text.find("footprint"), std::string::npos);
    EXPECT_NE(text.find("miss_ratio"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliTest, GenTraceRequiresArguments)
{
    std::string text;
    EXPECT_EQ(run({"gen-trace", "li"}, &text), 2);
    EXPECT_EQ(run({"analyze"}, &text), 2);
}

} // namespace
} // namespace cap
