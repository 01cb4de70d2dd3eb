/**
 * @file
 * Unit tests for the util substrate: statistics, RNG, tables, status.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ooo/uop.h"
#include "trace/record.h"
#include "trace/workloads.h"
#include "util/inverse_table.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/units.h"

namespace cap {
namespace {

// ---------------------------------------------------------------------
// RunningStat
// ---------------------------------------------------------------------

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.min(), 0.0);
    EXPECT_DOUBLE_EQ(stat.max(), 0.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, BasicMoments)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_NEAR(stat.variance(), 4.0, 1e-12);
    EXPECT_NEAR(stat.stddev(), 2.0, 1e-12);
}

TEST(RunningStatTest, MergeMatchesCombinedStream)
{
    RunningStat a, b, combined;
    for (int i = 0; i < 100; ++i) {
        double x = std::sin(i * 0.37) * 10.0;
        (i < 40 ? a : b).add(x);
        combined.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStatTest, MergeIntoEmptyAndFromEmpty)
{
    RunningStat a, b;
    b.add(3.0);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
}

TEST(RunningStatTest, ResetClears)
{
    RunningStat stat;
    stat.add(1.0);
    stat.reset();
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.sum(), 0.0);
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(HistogramTest, BinsAndCenters)
{
    Histogram hist(0.0, 10.0, 10);
    EXPECT_EQ(hist.binCount(), 10u);
    EXPECT_DOUBLE_EQ(hist.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(hist.binCenter(9), 9.5);
}

TEST(HistogramTest, ClampsOutOfRange)
{
    Histogram hist(0.0, 10.0, 10);
    hist.add(-5.0);
    hist.add(100.0);
    EXPECT_EQ(hist.binValue(0), 1u);
    EXPECT_EQ(hist.binValue(9), 1u);
    EXPECT_EQ(hist.totalCount(), 2u);
}

TEST(HistogramTest, CdfMonotone)
{
    Histogram hist(0.0, 100.0, 20);
    for (int i = 0; i < 100; ++i)
        hist.add(static_cast<double>(i));
    double prev = 0.0;
    for (double x = 0.0; x <= 100.0; x += 10.0) {
        double cdf = hist.cdfAt(x);
        EXPECT_GE(cdf, prev);
        prev = cdf;
    }
    EXPECT_DOUBLE_EQ(hist.cdfAt(1000.0), 1.0);
}

// ---------------------------------------------------------------------
// IntervalSeries
// ---------------------------------------------------------------------

TEST(IntervalSeriesTest, MeanOverWindows)
{
    IntervalSeries series;
    for (int i = 1; i <= 10; ++i)
        series.add(static_cast<double>(i));
    EXPECT_EQ(series.size(), 10u);
    EXPECT_DOUBLE_EQ(series.mean(), 5.5);
    EXPECT_DOUBLE_EQ(series.meanOver(0, 5), 3.0);
    EXPECT_DOUBLE_EQ(series.meanOver(5, 10), 8.0);
    // Clamped and empty windows.
    EXPECT_DOUBLE_EQ(series.meanOver(8, 100), 9.5);
    EXPECT_DOUBLE_EQ(series.meanOver(7, 7), 0.0);
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng rng(9);
    for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t x = rng.range(-3, 3);
        ASSERT_GE(x, -3);
        ASSERT_LE(x, 3);
        saw_lo |= x == -3;
        saw_hi |= x == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, GeometricMeanAndCap)
{
    Rng rng(17);
    double sum = 0.0;
    const double p = 0.25;
    for (int i = 0; i < 20000; ++i) {
        uint64_t k = rng.geometric(p, 1000);
        ASSERT_LE(k, 1000u);
        sum += static_cast<double>(k);
    }
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / 20000.0, 3.0, 0.15);
    for (int i = 0; i < 100; ++i)
        ASSERT_LE(rng.geometric(0.001, 5), 5u);
}

TEST(RngTest, HoistedGeometricMatchesGeometric)
{
    // InverseTable::geometric(p, cap) is geometric(p, cap) with its
    // inverse CDF tabulated once: the same value and the same generator
    // state afterwards for every p < 1.  p == 1 builds no table;
    // geometric() then draws 0 and consumes no random number.
    std::vector<double> grid = {1e-9, 1e-3, 0.01, 1.0 / 3.0, 0.5, 0.75,
                                0.999, 1.0 - 0x1p-52};
    for (double mean = 1.5; mean <= 64.0; mean += 0.5)
        grid.push_back(1.0 / mean); // the generators' 1/mean distances
    for (double p : grid) {
        for (uint64_t cap : {uint64_t{0}, uint64_t{7}, uint64_t{255}}) {
            const InverseTable table = InverseTable::geometric(p, cap);
            Rng plain(41);
            Rng tabled(41);
            for (int i = 0; i < 500; ++i) {
                ASSERT_EQ(plain.geometric(p, cap), table.draw(tabled))
                    << "p=" << p << " cap=" << cap << " draw " << i;
            }
            ASSERT_EQ(plain.saveState(), tabled.saveState())
                << "p=" << p << " cap=" << cap;
        }
    }
    Rng rng(43);
    const Rng::State before = rng.saveState();
    EXPECT_EQ(rng.geometric(1.0, 9), 0u);
    EXPECT_EQ(rng.saveState(), before);
}

TEST(RngTest, WeightedFollowsWeights)
{
    Rng rng(19);
    std::vector<double> weights{1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.weighted(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, ZipfBoundsAndSkew)
{
    Rng rng(23);
    uint64_t n = 64;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 20000; ++i) {
        uint64_t k = rng.zipf(n, 1.2);
        ASSERT_LT(k, n);
        ++counts[k];
    }
    // Rank 0 must be far more popular than rank n-1.
    EXPECT_GT(counts[0], counts[n - 1] * 5);
}

TEST(RngTest, ZipfZeroExponentIsUniformish)
{
    Rng rng(29);
    uint64_t n = 8;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 16000; ++i)
        ++counts[rng.zipf(n, 0.0)];
    for (uint64_t k = 0; k < n; ++k)
        EXPECT_NEAR(counts[k], 2000, 300);
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng child = a.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == child.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------------
// InverseTable: every tabulated draw is its expression
// ---------------------------------------------------------------------

/** A table and the expression it must reproduce, the plain draw's
 *  value at u = m * 2^-53. */
struct TabledDraw
{
    std::string what;
    InverseTable table;
    std::function<uint64_t(double)> expr;
};

TabledDraw
geometricDraw(double p, uint64_t cap)
{
    const double log_q = Rng::geometricLog(p);
    return {"geometric p=" + std::to_string(p) +
                " cap=" + std::to_string(cap),
            InverseTable::geometric(p, cap),
            [log_q, cap](double u) {
                return Rng::geometricAt(u, log_q, cap);
            }};
}

TabledDraw
zipfDraw(uint64_t n, double s)
{
    const double norm = Rng::zipfNorm(n, s);
    return {"zipf n=" + std::to_string(n) + " s=" + std::to_string(s),
            InverseTable::zipf(n, s),
            [n, s, norm](double u) { return Rng::zipfAt(u, n, s, norm); }};
}

/**
 * Check @p draws' tables against their expressions: at and around both
 * band edges of each threshold (of 256 evenly spaced ones when a table
 * has more), at every grid point within +-4096 of those thresholds,
 * and at @p random_points random grid points spread over the tables.
 * Stops at a table's first mismatch.
 */
void
expectTablesAreExpressions(const std::vector<TabledDraw> &draws,
                           uint64_t random_points)
{
    constexpr uint64_t kGrid = uint64_t{1} << 53;
    constexpr uint64_t kBand = InverseTable::kBand;
    constexpr uint64_t kWindow = 4096;
    Rng rng(47);
    for (const TabledDraw &draw : draws) {
        auto same = [&](uint64_t m) {
            if (m >= kGrid)
                return true;
            const uint64_t want =
                draw.expr(static_cast<double>(m) * 0x1p-53);
            const uint64_t got = draw.table.at(m);
            if (got != want)
                ADD_FAILURE() << draw.what << " at grid point " << m
                              << ": table " << got << ", expression "
                              << want;
            return got == want;
        };
        const std::vector<uint64_t> &cuts = draw.table.cuts();
        const size_t count = cuts.size() - 1;
        std::vector<uint64_t> sample;
        for (size_t i = 1; i < count; i += std::max<size_t>(1, count / 256))
            sample.push_back(cuts[i]);
        sample.push_back(cuts[count]);
        uint64_t unchecked = 0; // windows of close cuts overlap
        for (uint64_t cut : sample) {
            for (uint64_t edge : {cut - std::min(cut, kBand), cut + kBand})
                for (uint64_t m = edge - std::min<uint64_t>(edge, 2);
                     m <= edge + 2; ++m)
                    if (!same(m))
                        return;
            const uint64_t end = std::min(kGrid, cut + kWindow + 1);
            for (uint64_t m = std::max(unchecked,
                                       cut - std::min(cut, kWindow));
                 m < end; ++m)
                if (!same(m))
                    return;
            unchecked = std::max(unchecked, end);
        }
        for (uint64_t i = 0; i < random_points / draws.size(); ++i)
            if (!same(rng.next() >> 11))
                return;
    }
}

TEST(InverseTableTest, OffSuiteTablesAreTheirExpressions)
{
    std::vector<TabledDraw> draws;
    // p near 1, and a p so small that its draw passes the threshold
    // bound long before the cap.
    draws.push_back(geometricDraw(0.999, 255));
    draws.push_back(geometricDraw(1.0 - 0x1p-52, 255));
    draws.push_back(geometricDraw(1e-4, UINT64_MAX));
    // Below, at and above s = 1 (the exp branch); one block; more
    // blocks than the bound tabulates; an s so close to 1 that pow's
    // argument is too coarse for the band, so nothing is tabulated.
    draws.push_back(zipfDraw(1000, 0.5));
    draws.push_back(zipfDraw(1000, 1.0));
    draws.push_back(zipfDraw(1000, 2.5));
    draws.push_back(zipfDraw(1, 1.2));
    draws.push_back(zipfDraw(10000, 1.2));
    draws.push_back(zipfDraw(4, 1.001));

    EXPECT_EQ(draws[2].table.cuts().size(),
              InverseTable::kMaxThresholds + 1);
    EXPECT_EQ(draws[7].table.cuts().size(),
              InverseTable::kMaxThresholds + 1);
    EXPECT_EQ(draws[6].table.cuts(),
              (std::vector<uint64_t>{0, uint64_t{1} << 53}));
    EXPECT_EQ(draws[8].table.cuts(), std::vector<uint64_t>{0});
    expectTablesAreExpressions(draws, 1000000);
}

TEST(InverseTableTest, SuiteDependencyDistanceTablesAreTheirExpressions)
{
    // Both distances of every phase of every profile, with the cap
    // InstructionStream gives them; each distinct (p, cap) once.
    std::set<std::pair<double, uint64_t>> seen;
    std::vector<TabledDraw> draws;
    for (const trace::AppProfile &app : trace::workloadSuite()) {
        for (const trace::IlpPhase &phase : app.ilp.phases) {
            const uint64_t floor =
                std::max<uint32_t>(1, phase.min_dep_distance);
            for (double mean :
                 {phase.mean_dep_distance, phase.mean_dep_distance2}) {
                const double p = 1.0 / std::max(1.0, mean);
                const uint64_t cap = ooo::kMaxDepDistance - floor;
                if (p < 1.0 && seen.insert({p, cap}).second)
                    draws.push_back(geometricDraw(p, cap));
            }
        }
    }
    ASSERT_FALSE(draws.empty());
    expectTablesAreExpressions(draws, 1000000);
}

TEST(InverseTableTest, SuiteZipfTablesAreTheirExpressions)
{
    // Every ZipfResident with s > 0 of every profile and of the phased
    // demo, over its region's blocks; each distinct (n, s) once.
    std::vector<trace::AppProfile> apps = trace::workloadSuite();
    apps.push_back(trace::phasedCacheDemo());
    std::set<std::pair<uint64_t, double>> seen;
    std::vector<TabledDraw> draws;
    for (const trace::AppProfile &app : apps) {
        std::vector<trace::PatternSpec> specs = app.cache.mix;
        for (const trace::CachePhase &phase : app.cache.phases)
            specs.insert(specs.end(), phase.mix.begin(), phase.mix.end());
        for (const trace::PatternSpec &spec : specs) {
            const uint64_t n = spec.region_bytes / trace::kBlockBytes;
            if (spec.kind == trace::PatternKind::ZipfResident &&
                spec.zipf_s > 0.0 && seen.insert({n, spec.zipf_s}).second)
                draws.push_back(zipfDraw(n, spec.zipf_s));
        }
    }
    ASSERT_FALSE(draws.empty());
    expectTablesAreExpressions(draws, 1000000);
}


// ---------------------------------------------------------------------
// TableWriter / Cell
// ---------------------------------------------------------------------

TEST(TableTest, CellRendering)
{
    EXPECT_EQ(Cell("abc").str(), "abc");
    EXPECT_EQ(Cell(42).str(), "42");
    EXPECT_EQ(Cell(uint64_t{7}).str(), "7");
    EXPECT_EQ(Cell(3.14159, 2).str(), "3.14");
}

TEST(TableTest, AsciiRenderContainsData)
{
    TableWriter table("demo");
    table.setHeader({"app", "tpi"});
    table.addRow({Cell("gcc"), Cell(0.5, 3)});
    std::ostringstream os;
    table.renderAscii(os);
    std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("gcc"), std::string::npos);
    EXPECT_NE(out.find("0.500"), std::string::npos);
    EXPECT_NE(out.find("app"), std::string::npos);
}

TEST(TableTest, CsvEscaping)
{
    TableWriter table("csv");
    table.setHeader({"name", "note"});
    table.addRow({Cell("a,b"), Cell("say \"hi\"")});
    std::ostringstream os;
    table.renderCsv(os);
    EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, RowCount)
{
    TableWriter table("rows");
    table.setHeader({"x"});
    EXPECT_EQ(table.rowCount(), 0u);
    table.addRow({Cell(1)});
    table.addRow({Cell(2)});
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TableDeathTest, MismatchedRowWidthPanics)
{
    TableWriter table("bad");
    table.setHeader({"a", "b"});
    EXPECT_DEATH(table.addRow({Cell(1)}), "row width");
}

// ---------------------------------------------------------------------
// Status / assertions
// ---------------------------------------------------------------------

std::vector<std::pair<StatusLevel, std::string>> captured;

void
captureSink(StatusLevel level, const std::string &message)
{
    captured.emplace_back(level, message);
}

TEST(StatusTest, SinkCapturesWarnAndInform)
{
    captured.clear();
    StatusSink prev = setStatusSink(captureSink);
    inform("hello %d", 7);
    warn("watch out");
    setStatusSink(prev);
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, StatusLevel::Inform);
    EXPECT_EQ(captured[0].second, "hello 7");
    EXPECT_EQ(captured[1].first, StatusLevel::Warn);
}

TEST(StatusDeathTest, CapAssertWithMessage)
{
    EXPECT_DEATH(capAssert(1 == 2, "context %d", 5), "context 5");
}

TEST(StatusDeathTest, CapAssertPlain)
{
    EXPECT_DEATH(capAssert(false), "assertion 'false' failed");
}

TEST(StatusDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom %s", "now"), "boom now");
}

TEST(StatusDeathTest, FatalExits)
{
    EXPECT_EXIT(fatal("bad config"), testing::ExitedWithCode(1),
                "bad config");
}

// ---------------------------------------------------------------------
// units.h helpers
// ---------------------------------------------------------------------

TEST(UnitsTest, SizeHelpers)
{
    EXPECT_EQ(kib(8), 8192u);
    EXPECT_EQ(mib(2), 2097152u);
}

TEST(UnitsTest, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(UnitsTest, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(UnitsTest, DivCeil)
{
    EXPECT_EQ(divCeil(10, 5), 2u);
    EXPECT_EQ(divCeil(11, 5), 3u);
    EXPECT_EQ(divCeil(1, 100), 1u);
}

// ---------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------

TEST(JsonTest, EscapeCoversControlCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json::escape("line\nbreak\ttab"),
              "line\\nbreak\\ttab");
    EXPECT_EQ(json::escape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(json::quote("x"), "\"x\"");
}

TEST(JsonTest, WriterProducesCompactJson)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .key("s").value("a\"b")
        .key("n").value(uint64_t{42})
        .key("neg").value(int64_t{-3})
        .key("b").value(true)
        .key("d").value(1.5, 3)
        .key("arr").beginArray().value(1).value(2).endArray()
        .key("raw").rawValue("{\"x\":1}")
        .endObject();
    EXPECT_EQ(os.str(),
              "{\"s\":\"a\\\"b\",\"n\":42,\"neg\":-3,\"b\":true,"
              "\"d\":1.500,\"arr\":[1,2],\"raw\":{\"x\":1}}");
}

TEST(JsonTest, ParseRoundTripsWriterOutput)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .key("label").value("serve:\ncache")
        .key("count").value(uint64_t{18446744073709551615ull} /* 2^64-1 */)
        .key("flag").value(false)
        .key("nested").beginObject().key("k").value("v").endObject()
        .endObject();

    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), parsed, error)) << error;
    ASSERT_TRUE(parsed.isObject());
    EXPECT_EQ(parsed.stringOr("label"), "serve:\ncache");
    EXPECT_EQ(parsed.boolOr("flag", true), false);
    const json::Value *nested = parsed.find("nested");
    ASSERT_NE(nested, nullptr);
    EXPECT_EQ(nested->stringOr("k"), "v");
}

TEST(JsonTest, ParseRejectsGarbage)
{
    json::Value out;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\":", out, error));
    EXPECT_FALSE(json::parse("{} trailing", out, error));
    EXPECT_FALSE(json::parse("", out, error));
    EXPECT_FALSE(json::parse("{\"a\" 1}", out, error));
    // Depth guard: 100 nested arrays exceed the 64-level limit.
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_FALSE(json::parse(deep, out, error));
}

TEST(JsonTest, U64AndDoubleBitsRoundTripExactly)
{
    uint64_t big = 0xFFFFFFFFFFFFFFFFull;
    uint64_t out = 0;
    ASSERT_TRUE(json::parseU64(std::to_string(big), out));
    EXPECT_EQ(out, big);
    EXPECT_FALSE(json::parseU64("18446744073709551616", out)); // 2^64
    EXPECT_FALSE(json::parseU64("12x", out));
    EXPECT_FALSE(json::parseU64("", out));

    for (double x : {0.1, 1.0 / 3.0, 1e-300, -2.5, 0.0,
                     6755399441055744.0}) {
        double back = 0.0;
        ASSERT_TRUE(json::doubleFromBits(json::doubleBits(x), back));
        EXPECT_EQ(std::memcmp(&x, &back, sizeof x), 0);
    }

    // u64Or accepts both JSON numbers and decimal strings.
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(
        "{\"a\":7,\"b\":\"18446744073709551615\"}", parsed, error));
    EXPECT_EQ(parsed.u64Or("a", 0), 7u);
    EXPECT_EQ(parsed.u64Or("b", 0), 18446744073709551615ull);
}

TEST(JsonTest, U64ReadsOnlyIntegersInRange)
{
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse("{\"max\":18446744073709549568,"
                            "\"big\":1e30,\"two64\":18446744073709551616,"
                            "\"frac\":2.5,\"neg\":-1,\"word\":true}",
                            parsed, error));
    // The largest double below 2^64 converts exactly.
    EXPECT_EQ(parsed.u64Or("max", 0), 18446744073709549568ull);
    // Everything else falls back instead of truncating or casting out
    // of range.
    for (const char *key : {"big", "two64", "frac", "neg", "word"})
        EXPECT_EQ(parsed.u64Or(key, 9), 9u) << key;

    uint64_t out = 3;
    EXPECT_TRUE(parsed.readU64("absent", out, error));
    EXPECT_EQ(out, 3u);
    EXPECT_TRUE(parsed.readU64("max", out, error));
    EXPECT_EQ(out, 18446744073709549568ull);
    for (const char *key : {"big", "two64", "frac", "neg", "word"}) {
        error.clear();
        EXPECT_FALSE(parsed.readU64(key, out, error)) << key;
        EXPECT_EQ(error, std::string("\"") + key +
                             "\" must be an integer in [0, 2^64)");
    }
}

TEST(JsonTest, StringEscapeRoundTripThroughParser)
{
    std::string nasty = "quote\" slash\\ nl\n tab\t ctl\x02 unicode";
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(json::quote(nasty), parsed, error)) << error;
    ASSERT_TRUE(parsed.isString());
    EXPECT_EQ(parsed.string, nasty);
}

} // namespace
} // namespace cap
