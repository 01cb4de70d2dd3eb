/**
 * @file
 * Study-server tests: cache-key stability, LRU/spill behaviour,
 * row-codec bit-exactness, differential byte-identity of served
 * results against the offline verbs, protocol semantics
 * (backpressure, cancellation, deadlines, stats), and concurrent
 * clients (the Serve* suites run under TSan in CI).
 */

#include <cerrno>
#include <climits>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "serve/job.h"
#include "serve/render.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "trace/workloads.h"
#include "util/json.h"

namespace cap {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

std::string
tempPath(const std::string &stem)
{
    return testing::TempDir() + "/capsim_serve_" + stem + "_" +
           std::to_string(::getpid());
}

/** Run an offline CLI verb and return its stdout bytes. */
std::string
offline(const std::vector<std::string> &args)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand(args, out, err), 0) << err.str();
    return out.str();
}

serve::JobSpec
specFromJson(const std::string &text)
{
    json::Value parsed;
    std::string error;
    EXPECT_TRUE(json::parse(text, parsed, error)) << error;
    serve::JobSpec spec;
    EXPECT_TRUE(serve::jobFromJson(parsed, spec, error)) << error;
    return spec;
}

json::Value
parsed(const std::string &line)
{
    json::Value event;
    std::string error;
    EXPECT_TRUE(json::parse(line, event, error)) << line;
    return event;
}

/** In-process protocol client: collects emitted lines, supports
 *  predicate waits.  Events arrive from the connection thread, the
 *  executor, pool workers, and the heartbeat reporter. */
struct TestClient
{
    explicit TestClient(serve::StudyServer &server) : server_(server)
    {
        conn_ = server.connect([this](const std::string &line) {
            std::lock_guard<std::mutex> lock(mutex_);
            lines_.push_back(line);
            cv_.notify_all();
        });
    }

    ~TestClient() { conn_->close(); }

    bool
    request(const std::string &line)
    {
        return server_.handleLine(conn_, line);
    }

    /** Wait until a line satisfying @p pred arrives; returns it. */
    std::string
    waitFor(const std::function<bool(const json::Value &)> &pred,
            std::chrono::seconds timeout = 60s)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        size_t scanned = 0;
        std::string found;
        bool ok = cv_.wait_for(lock, timeout, [&] {
            for (; scanned < lines_.size(); ++scanned) {
                json::Value event;
                std::string error;
                if (json::parse(lines_[scanned], event, error) &&
                    pred(event)) {
                    found = lines_[scanned];
                    return true;
                }
            }
            return false;
        });
        EXPECT_TRUE(ok) << "timed out waiting for event";
        return found;
    }

    std::string
    waitForEvent(const std::string &type, uint64_t id = 0)
    {
        return waitFor([&](const json::Value &event) {
            if (event.stringOr("event") != type)
                return false;
            return id == 0 || event.u64Or("id", 0) == id;
        });
    }

    std::vector<std::string>
    linesSnapshot()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return lines_;
    }

    serve::StudyServer &server_;
    std::shared_ptr<serve::Connection> conn_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::string> lines_;
};

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

TEST(ServeKeyTest, FieldOrderInvariantAndValueSensitive)
{
    serve::KeyBuilder a;
    a.add("x", uint64_t{1}).add("y", std::string("v")).addBits("z", 0.5);
    serve::KeyBuilder b;
    b.addBits("z", 0.5).add("y", std::string("v")).add("x", uint64_t{1});
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.canonical(), b.canonical());

    serve::KeyBuilder c;
    c.add("x", uint64_t{2}).add("y", std::string("v")).addBits("z", 0.5);
    EXPECT_NE(a.hash(), c.hash());

    // A value that embeds the field separator cannot impersonate two
    // separate fields.
    serve::KeyBuilder d, e;
    d.add("y", std::string("v;x=1"));
    e.add("x", uint64_t{1}).add("y", std::string("v"));
    EXPECT_NE(d.canonical(), e.canonical());
}

TEST(ServeKeyTest, ProfileHashSeparatesApps)
{
    uint64_t li = serve::hashAppProfile(trace::findApp("li"));
    EXPECT_EQ(li, serve::hashAppProfile(trace::findApp("li")));
    EXPECT_NE(li, serve::hashAppProfile(trace::findApp("gcc")));

    // Every generator parameter is load-bearing: a different seed or
    // a perturbed mix parameter is a different workload.
    trace::AppProfile mutated = trace::findApp("li");
    mutated.seed += 1;
    EXPECT_NE(li, serve::hashAppProfile(mutated));
    mutated = trace::findApp("li");
    mutated.cache.write_fraction += 0.001;
    EXPECT_NE(li, serve::hashAppProfile(mutated));
}

TEST(ServeKeyTest, CellKeySensitivities)
{
    const trace::AppProfile &app = trace::findApp("li");
    serve::JobSpec spec =
        specFromJson("{\"kind\":\"cache-sweep\",\"apps\":\"li\"}");
    uint64_t base = serve::cellKey(spec, app);

    serve::JobSpec other = spec;
    other.refs = spec.refs + 1;
    EXPECT_NE(base, serve::cellKey(other, app));

    other = spec;
    other.sampled = true;
    EXPECT_NE(base, serve::cellKey(other, app));

    serve::JobSpec iq =
        specFromJson("{\"kind\":\"iq-sweep\",\"apps\":\"li\"}");
    EXPECT_NE(base, serve::cellKey(iq, app));

    // Sampling knobs are part of a sampled cell's identity.
    serve::JobSpec s1 = spec, s2 = spec;
    s1.sampled = s2.sampled = true;
    s2.sample.clusters += 1;
    EXPECT_NE(serve::cellKey(s1, app), serve::cellKey(s2, app));

    // Different apps never share a cell.
    EXPECT_NE(base, serve::cellKey(spec, trace::findApp("gcc")));
}

TEST(ServeKeyTest, CellKeysArePinned)
{
    // A spill written by an earlier build must keep hitting, so these
    // keys change only with a deliberate re-key of every cell.
    const std::pair<const char *, uint64_t> pinned[] = {
        {"{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"refs\":40000}",
         8428106343516725861ull},
        {"{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"refs\":40000,"
         "\"mem\":\"dram:banks=2,mshr=2,policy=closed\"}",
         9720009215378747069ull},
        {"{\"kind\":\"iq-sweep\",\"apps\":\"gcc\",\"instrs\":30000}",
         9074537465805744186ull},
        {"{\"kind\":\"cache-sweep\",\"apps\":\"vortex\",\"refs\":40000,"
         "\"sampled\":true,\"sample\":{\"clusters\":4,\"interval\":500,"
         "\"warmup\":1000}}",
         2064107442880329576ull},
        {"{\"kind\":\"interval-run\",\"apps\":\"li\",\"instrs\":200000,"
         "\"trigger\":\"hybrid\"}",
         12668109712543622561ull},
    };
    for (const auto &[job, key] : pinned) {
        serve::JobSpec spec = specFromJson(job);
        const trace::AppProfile &app = trace::findApp(spec.apps[0]);
        EXPECT_EQ(serve::cellKey(spec, app), key) << job;
        // A copy lives at another address, so its profile is hashed on
        // the spot rather than read from the suite's table: same key.
        // A mutated copy is another workload.
        trace::AppProfile copy = app;
        EXPECT_EQ(serve::cellKey(spec, copy), key) << job;
        copy.seed += 1;
        EXPECT_NE(serve::cellKey(spec, copy), key) << job;
    }

    // The table agrees with the on-the-spot hash for every suite entry.
    serve::JobSpec spec = specFromJson(pinned[2].first);
    for (const trace::AppProfile &app : trace::workloadSuite()) {
        trace::AppProfile copy = app;
        EXPECT_EQ(serve::cellKey(spec, copy), serve::cellKey(spec, app))
            << app.name;
    }
}

// ---------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------

TEST(ServeCacheTest, LruEvictsLeastRecentlyUsed)
{
    serve::ResultCache cache(2);
    cache.put(1, "one");
    cache.put(2, "two");
    std::string value;
    ASSERT_TRUE(cache.get(1, value)); // touch 1: 2 becomes LRU
    cache.put(3, "three");            // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.get(2, value));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().insertions, 3u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ServeCacheTest, SpillKeepsEvictedEntriesReachable)
{
    std::string path = tempPath("spill_reach");
    std::remove(path.c_str());
    {
        serve::ResultCache cache(1, path);
        cache.put(10, "alpha");
        cache.put(20, "beta"); // evicts 10 from memory
        std::string value;
        ASSERT_TRUE(cache.get(10, value)); // served from the spill index
        EXPECT_EQ(value, "alpha");
        EXPECT_GE(cache.stats().spill_hits, 1u);
        EXPECT_EQ(cache.stats().spilled, 2u);
    }
    // A restarted cache re-indexes the spill file.
    {
        serve::ResultCache cache(4, path);
        EXPECT_EQ(cache.stats().spill_loaded, 2u);
        std::string value;
        ASSERT_TRUE(cache.get(20, value));
        EXPECT_EQ(value, "beta");
        ASSERT_TRUE(cache.get(10, value));
        EXPECT_EQ(value, "alpha");
    }
    std::remove(path.c_str());
}

TEST(ServeCacheTest, SpillLineRoundTripsHostileValues)
{
    std::string value = "line\nbreak \"quoted\" back\\slash \x01 end";
    std::string line = serve::ResultCache::formatSpillLine(77, value);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    uint64_t key = 0;
    std::string back;
    ASSERT_TRUE(serve::ResultCache::parseSpillLine(line, key, back));
    EXPECT_EQ(key, 77u);
    EXPECT_EQ(back, value);
}

TEST(ServeCacheTest, PoisonedSpillLinesRejected)
{
    std::string path = tempPath("spill_poison");
    std::remove(path.c_str());
    {
        std::ofstream file(path);
        file << serve::ResultCache::formatSpillLine(1, "good") << "\n";
        // Truncated line (crash mid-append).
        std::string cut = serve::ResultCache::formatSpillLine(2, "lost");
        file << cut.substr(0, cut.size() / 2) << "\n";
        // Checksum mismatch (bit rot in the value).
        std::string rot = serve::ResultCache::formatSpillLine(3, "rotten");
        rot[rot.find("rotten")] = 'R';
        file << rot << "\n";
        // Not JSON at all.
        file << "not json\n";
    }
    serve::ResultCache cache(4, path);
    EXPECT_EQ(cache.stats().spill_loaded, 1u);
    EXPECT_EQ(cache.stats().poisoned, 3u);
    std::string value;
    EXPECT_TRUE(cache.get(1, value));
    EXPECT_EQ(value, "good");
    EXPECT_FALSE(cache.get(2, value));
    EXPECT_FALSE(cache.get(3, value));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Row codecs
// ---------------------------------------------------------------------

TEST(ServeCodecTest, CacheRowRoundTripsBitExactly)
{
    std::vector<core::CachePerf> row(2);
    row[0].l1_increments = 3;
    row[0].refs = 0xFFFFFFFFFFFFFFFFull;
    row[0].instructions = 12345;
    row[0].l1_miss_ratio = 0.1; // not exactly representable
    row[0].global_miss_ratio = 1.0 / 3.0;
    row[0].tpi_ns = 1e-300;
    row[0].tpi_miss_ns = -0.0;
    row[1].l1_increments = 8;
    row[1].tpi_ns = 2.75;

    std::vector<core::CachePerf> back;
    ASSERT_TRUE(serve::decodeCacheRow(serve::encodeCacheRow(row), back));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].refs, row[0].refs);
    EXPECT_EQ(std::memcmp(&back[0].tpi_ns, &row[0].tpi_ns, 8), 0);
    EXPECT_EQ(std::memcmp(&back[0].tpi_miss_ns, &row[0].tpi_miss_ns, 8),
              0);
    EXPECT_EQ(
        std::memcmp(&back[0].l1_miss_ratio, &row[0].l1_miss_ratio, 8), 0);
    EXPECT_EQ(back[1].l1_increments, 8);

    // Garbage and wrong-kind payloads are decode failures (the
    // executor treats them as cache misses), never partial rows.
    EXPECT_FALSE(serve::decodeCacheRow("not json", back));
    EXPECT_FALSE(
        serve::decodeCacheRow(serve::encodeIqRow({core::IqPerf{}}), back));
}

TEST(ServeCodecTest, SampledRowsCarryIntervalsAndCounts)
{
    std::vector<sample::SampledCachePerf> row(1);
    row[0].perf.l1_increments = 2;
    row[0].perf.tpi_ns = 0.123456789123456789;
    row[0].tpi_lo_ns = 0.1;
    row[0].tpi_hi_ns = 0.2;
    row[0].simulated_refs = 987654321;
    std::vector<sample::SampledCachePerf> back;
    ASSERT_TRUE(serve::decodeSampledCacheRow(
        serve::encodeSampledCacheRow(row), back));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].simulated_refs, 987654321u);
    EXPECT_EQ(std::memcmp(&back[0].tpi_lo_ns, &row[0].tpi_lo_ns, 8), 0);

    std::vector<sample::SampledIqPerf> iq(1);
    iq[0].perf.entries = 48;
    iq[0].perf.cycles = 12345678;
    iq[0].perf.ipc = 1.75;
    iq[0].simulated_instrs = 555;
    std::vector<sample::SampledIqPerf> iq_back;
    ASSERT_TRUE(
        serve::decodeSampledIqRow(serve::encodeSampledIqRow(iq), iq_back));
    ASSERT_EQ(iq_back.size(), 1u);
    EXPECT_EQ(iq_back[0].perf.entries, 48);
    EXPECT_EQ(static_cast<uint64_t>(iq_back[0].perf.cycles), 12345678u);
    EXPECT_EQ(iq_back[0].simulated_instrs, 555u);
}

TEST(ServeCodecTest, IntervalSummaryRoundTrips)
{
    serve::IntervalSummary summary;
    summary.instructions = 120000;
    summary.intervals = 24;
    summary.total_time_ns = 98765.4321;
    summary.reconfigurations = 7;
    summary.committed_moves = 3;
    summary.phase_transitions = 2;
    summary.phase_snaps = 1;
    summary.final_config = 48;
    serve::IntervalSummary back;
    ASSERT_TRUE(serve::decodeIntervalSummary(
        serve::encodeIntervalSummary(summary), back));
    EXPECT_EQ(back.instructions, summary.instructions);
    EXPECT_EQ(back.intervals, summary.intervals);
    EXPECT_EQ(std::memcmp(&back.total_time_ns, &summary.total_time_ns, 8),
              0);
    EXPECT_EQ(back.final_config, 48);
    EXPECT_EQ(back.phase_snaps, 1);
}

double
fromBits(uint64_t bits)
{
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

/** A value of each kind whose every field is an edge: UINT64_MAX
 *  counts, a NaN with a payload, -0.0, a denormal, a negative int. */
struct EdgeValues
{
    static constexpr uint64_t kMax = UINT64_MAX;
    const double nan = fromBits(0x7ff80000deadbeefull);
    const double denormal = fromBits(1);

    std::vector<core::CachePerf>
    cache() const
    {
        std::vector<core::CachePerf> row(2);
        row[0] = {-3, kMax, kMax, nan, -0.0, denormal, -1e308};
        row[1] = {INT_MIN, 0, 1, -0.0, nan, 0.0, denormal};
        return row;
    }

    std::vector<core::IqPerf>
    iq() const
    {
        std::vector<core::IqPerf> row(2);
        row[0] = {-16, kMax, kMax, nan, -0.0};
        row[1] = {INT_MAX, 0, 7, denormal, nan};
        return row;
    }

    std::vector<sample::SampledCachePerf>
    sampledCache() const
    {
        std::vector<sample::SampledCachePerf> row;
        for (const core::CachePerf &perf : cache())
            row.push_back({perf, nan, denormal, kMax});
        return row;
    }

    std::vector<sample::SampledIqPerf>
    sampledIq() const
    {
        std::vector<sample::SampledIqPerf> row;
        for (const core::IqPerf &perf : iq())
            row.push_back({perf, -0.0, nan, kMax});
        return row;
    }

    /** One double per summary, so one summary for each edge double. */
    std::vector<serve::IntervalSummary>
    summaries() const
    {
        return {{kMax, kMax, nan, -1, INT_MIN, INT_MAX, -5, -48},
                {0, kMax, -0.0, 0, 0, 0, 0, 16},
                {kMax, 0, denormal, INT_MAX, -1, -1, INT_MIN, 128}};
    }
};

TEST(ServeCodecTest, EveryKindRoundTripsEdgeValuesBitForBit)
{
    // Every field is written as its exact bits (a decimal count, a
    // double's bit pattern, a bare int), so re-encoding the decoded
    // value reproduces the text only when every field came back bit
    // for bit.
    const EdgeValues edge;
    const std::string cache = serve::encodeCacheRow(edge.cache());
    std::vector<core::CachePerf> cache_back;
    ASSERT_TRUE(serve::decodeCacheRow(cache, cache_back));
    EXPECT_EQ(serve::encodeCacheRow(cache_back), cache);
    EXPECT_EQ(cache_back[0].refs, UINT64_MAX);
    EXPECT_EQ(cache_back[1].l1_increments, INT_MIN);
    EXPECT_EQ(std::memcmp(&cache_back[0].l1_miss_ratio, &edge.nan, 8), 0);

    const std::string sampled_cache =
        serve::encodeSampledCacheRow(edge.sampledCache());
    std::vector<sample::SampledCachePerf> sampled_cache_back;
    ASSERT_TRUE(
        serve::decodeSampledCacheRow(sampled_cache, sampled_cache_back));
    EXPECT_EQ(serve::encodeSampledCacheRow(sampled_cache_back),
              sampled_cache);

    const std::string iq = serve::encodeIqRow(edge.iq());
    std::vector<core::IqPerf> iq_back;
    ASSERT_TRUE(serve::decodeIqRow(iq, iq_back));
    EXPECT_EQ(serve::encodeIqRow(iq_back), iq);
    EXPECT_EQ(iq_back[0].entries, -16);
    EXPECT_EQ(iq_back[0].cycles, UINT64_MAX);

    const std::string sampled_iq =
        serve::encodeSampledIqRow(edge.sampledIq());
    std::vector<sample::SampledIqPerf> sampled_iq_back;
    ASSERT_TRUE(serve::decodeSampledIqRow(sampled_iq, sampled_iq_back));
    EXPECT_EQ(serve::encodeSampledIqRow(sampled_iq_back), sampled_iq);

    for (const serve::IntervalSummary &summary : edge.summaries()) {
        const std::string text = serve::encodeIntervalSummary(summary);
        serve::IntervalSummary back;
        ASSERT_TRUE(serve::decodeIntervalSummary(text, back));
        EXPECT_EQ(serve::encodeIntervalSummary(back), text);
        EXPECT_EQ(back.final_config, summary.final_config);
    }
}

/** @p text with the value of its first @p key member replaced. */
std::string
withValue(std::string text, const std::string &key,
          const std::string &value)
{
    const std::string member = "\"" + key + "\":";
    const size_t start = text.find(member);
    EXPECT_NE(start, std::string::npos) << key;
    const size_t from = start + member.size();
    const size_t to = text.find_first_of(",}", from);
    return text.replace(from, to - from, value);
}

TEST(ServeCodecTest, DecodersAcceptOnlyTheEncodersText)
{
    // A stored value that is not its encoder's exact text decodes
    // false -- a miss that re-simulates -- never a row served with a
    // truncated, defaulted or misread field.
    struct Kind
    {
        std::string text;
        std::function<bool(const std::string &)> decodes;
        std::string int_key; ///< a member written as a bare int
        std::string u64_key; ///< a member written as a quoted count
        std::string empty;   ///< the row with no columns ("" if none)
    };
    auto decoder = [](auto decode, auto value) {
        return [decode, value](const std::string &text) mutable {
            return decode(text, value);
        };
    };
    const EdgeValues edge;
    const std::vector<Kind> kinds = {
        {serve::encodeCacheRow(edge.cache()),
         decoder(serve::decodeCacheRow, std::vector<core::CachePerf>{}),
         "l1", "refs", "{\"kind\":\"cache-row\",\"cols\":[]}"},
        {serve::encodeSampledCacheRow(edge.sampledCache()),
         decoder(serve::decodeSampledCacheRow,
                 std::vector<sample::SampledCachePerf>{}),
         "l1", "simulated", "{\"kind\":\"sampled-cache-row\",\"cols\":[]}"},
        {serve::encodeIqRow(edge.iq()),
         decoder(serve::decodeIqRow, std::vector<core::IqPerf>{}),
         "entries", "cycles", "{\"kind\":\"iq-row\",\"cols\":[]}"},
        {serve::encodeSampledIqRow(edge.sampledIq()),
         decoder(serve::decodeSampledIqRow,
                 std::vector<sample::SampledIqPerf>{}),
         "entries", "simulated", "{\"kind\":\"sampled-iq-row\",\"cols\":[]}"},
        {serve::encodeIntervalSummary(edge.summaries()[0]),
         decoder(serve::decodeIntervalSummary, serve::IntervalSummary{}),
         "reconfigs", "intervals", ""},
    };
    for (const Kind &kind : kinds) {
        const std::string &text = kind.text;
        SCOPED_TRACE(text);
        ASSERT_TRUE(kind.decodes(text));

        // Members reordered: "kind" moved from first to last.
        const size_t kind_end = text.find(',');
        std::string reordered = "{";
        reordered.append(text, kind_end + 1, text.size() - kind_end - 2);
        reordered += ',';
        reordered.append(text, 1, kind_end - 1);
        reordered += '}';
        EXPECT_FALSE(kind.decodes(reordered)) << reordered;

        // Whitespace, after a colon or a comma or at the end.
        for (char after : {':', ','}) {
            const size_t at = text.find(after) + 1;
            std::string spaced = text.substr(0, at);
            spaced += ' ';
            spaced.append(text, at);
            EXPECT_FALSE(kind.decodes(spaced)) << spaced;
        }
        EXPECT_FALSE(kind.decodes(text + " "));
        EXPECT_FALSE(kind.decodes(text + "\n"));
        // Trailing bytes.
        EXPECT_FALSE(kind.decodes(text + "}"));
        EXPECT_FALSE(kind.decodes(text + text));

        // A count of 21 digits (in range, with leading zeros), one past
        // UINT64_MAX, signed, empty, fractional or unquoted.
        for (const char *count :
             {"\"000000000000000000001\"", "\"18446744073709551616\"",
              "\"-1\"", "\"+1\"", "\"\"", "\"1.0\"", "1"})
            EXPECT_FALSE(kind.decodes(withValue(text, kind.u64_key, count)))
                << count;
        EXPECT_TRUE(kind.decodes(withValue(text, kind.u64_key, "\"7\"")));

        // An int field must be an int: no fraction, exponent, overflow,
        // quotes or plus sign.
        for (const char *number :
             {"2.5", "1e30", "2e0", "2147483648", "-2147483649", "\"2\"",
              "+2", "-", ""})
            EXPECT_FALSE(kind.decodes(withValue(text, kind.int_key, number)))
                << number;
        EXPECT_TRUE(kind.decodes(withValue(text, kind.int_key, "-2")));

        // Truncated anywhere.
        for (size_t cut = 0; cut < text.size(); ++cut)
            EXPECT_FALSE(kind.decodes(text.substr(0, cut))) << cut;

        if (!kind.empty.empty()) {
            EXPECT_FALSE(kind.decodes(kind.empty));
        }

        // Another kind's value.
        for (const Kind &other : kinds) {
            if (&other != &kind) {
                EXPECT_FALSE(kind.decodes(other.text)) << other.text;
            }
        }
    }

    // Reordered members inside a column.
    std::vector<core::CachePerf> row;
    EXPECT_FALSE(serve::decodeCacheRow(
        "{\"kind\":\"cache-row\",\"cols\":[{\"refs\":\"1\",\"l1\":2,"
        "\"instrs\":\"1\",\"l1_miss\":\"0\",\"global_miss\":\"0\","
        "\"tpi_ns\":\"0\",\"tpi_miss_ns\":\"0\"}]}",
        row));
    EXPECT_TRUE(serve::decodeCacheRow(
        "{\"kind\":\"cache-row\",\"cols\":[{\"l1\":2,\"refs\":\"1\","
        "\"instrs\":\"1\",\"l1_miss\":\"0\",\"global_miss\":\"0\","
        "\"tpi_ns\":\"0\",\"tpi_miss_ns\":\"0\"}]}",
        row));
    EXPECT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0].l1_increments, 2);
}

// ---------------------------------------------------------------------
// Job parsing
// ---------------------------------------------------------------------

TEST(ServeJobTest, DefaultsMirrorOfflineVerbs)
{
    serve::JobSpec spec =
        specFromJson("{\"kind\":\"cache-sweep\",\"apps\":\"all\"}");
    EXPECT_EQ(spec.kind, serve::JobKind::CacheSweep);
    EXPECT_EQ(spec.refs, 150000u);
    EXPECT_FALSE(spec.sampled);
    EXPECT_EQ(spec.apps.size(), trace::cacheStudyApps().size());

    serve::JobSpec iq = specFromJson(
        "{\"kind\":\"iq-sweep\",\"apps\":[\"li\",\"gcc\"],"
        "\"instrs\":5000,\"sampled\":true,"
        "\"sample\":{\"clusters\":4,\"interval\":500}}");
    EXPECT_EQ(iq.apps, (std::vector<std::string>{"li", "gcc"}));
    EXPECT_EQ(iq.instrs, 5000u);
    EXPECT_TRUE(iq.sampled);
    EXPECT_EQ(iq.sample.clusters, 4u);
    EXPECT_EQ(iq.sample.interval_len, 500u);
}

TEST(ServeJobTest, ValidationErrors)
{
    auto fails = [](const std::string &text, const std::string &expect) {
        json::Value v;
        std::string error;
        ASSERT_TRUE(json::parse(text, v, error)) << error;
        serve::JobSpec spec;
        EXPECT_FALSE(serve::jobFromJson(v, spec, error)) << text;
        EXPECT_NE(error.find(expect), std::string::npos)
            << text << " -> " << error;
    };
    fails("{}", "kind");
    fails("{\"kind\":\"bogus\",\"apps\":\"li\"}", "unknown job kind");
    fails("{\"kind\":\"cache-sweep\"}", "apps");
    fails("{\"kind\":\"cache-sweep\",\"apps\":\"nope\"}",
          "unknown application");
    fails("{\"kind\":\"cache-sweep\",\"apps\":[]}", "at least one");
    fails("{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"refs\":0}",
          "positive");
    // Counts must be integers in [0, 2^64): a cast of 1e30 would be
    // undefined behaviour and 2.5 would truncate silently.
    fails("{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"refs\":1e30}",
          "\"refs\" must be an integer in [0, 2^64)");
    fails("{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"refs\":2.5}",
          "\"refs\" must be an integer in [0, 2^64)");
    fails("{\"kind\":\"interval-run\",\"apps\":\"li\","
          "\"entries\":1e10}",
          "\"entries\" is out of range");
    fails("{\"kind\":\"interval-run\",\"apps\":[\"li\",\"gcc\"]}",
          "single application");
    fails("{\"kind\":\"interval-run\",\"apps\":\"li\",\"entries\":33}",
          "not a study configuration");
    fails("{\"kind\":\"interval-run\",\"apps\":\"li\","
          "\"trigger\":\"sometimes\"}",
          "trigger");
    fails("{\"kind\":\"interval-run\",\"apps\":\"li\","
          "\"probe_period\":1}",
          "invalid interval-controller");
    fails("{\"kind\":\"interval-run\",\"apps\":\"li\",\"sampled\":true}",
          "no sampled mode");

    // A key outside the grammar is an error naming it, never a silent
    // default ("ref" would otherwise run the 150000-reference default).
    fails("{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"ref\":10000}",
          "unknown job key \"ref\"");
    fails("{\"kind\":\"interval-run\",\"apps\":\"li\","
          "\"Trigger\":\"hybrid\"}",
          "unknown job key \"Trigger\"");
    fails("{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"sampled\":true,"
          "\"sample\":{\"clusters\":4,\"intervals\":500}}",
          "unknown sample key \"intervals\"");

    // Every key of the grammar is accepted, and so is the retired
    // "one_pass", which is ignored.
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"interval-run\",\"apps\":\"li\",\"sampled\":false,"
        "\"refs\":1000,\"instrs\":2000,\"deadline_ms\":0,\"mem\":\"flat\","
        "\"sample\":{\"clusters\":4,\"interval\":500,\"warmup\":100,"
        "\"cold_prefix\":0},\"entries\":48,\"interval\":1000,"
        "\"probe_period\":4,\"confidence\":2,\"probe_max\":16,"
        "\"phase_threshold\":0.25,\"trigger\":\"hybrid\","
        "\"one_pass\":true}");
    EXPECT_EQ(spec.entries, 48);
}

// ---------------------------------------------------------------------
// Differential byte-identity: executor vs offline verbs
// ---------------------------------------------------------------------

TEST(ServeDifferentialTest, CacheSweepBytesMatchOfflineColdAndWarm)
{
    std::string expected =
        offline({"cache-sweep", "all", "--refs", "3000"});

    serve::ResultCache cache(64);
    serve::JobExecutor executor(cache, 2);
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"cache-sweep\",\"apps\":\"all\",\"refs\":3000}");

    serve::JobOutcome cold = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.output, expected);
    EXPECT_EQ(cold.cell_hits, 0u);
    EXPECT_EQ(cold.cell_misses, cold.cells);

    serve::JobOutcome warm = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.output, expected);
    EXPECT_EQ(warm.cell_hits, warm.cells);
    EXPECT_EQ(warm.cell_misses, 0u);
}

TEST(ServeDifferentialTest, IqSweepBytesMatchOfflineAndJobsInvariant)
{
    std::string expected =
        offline({"iq-sweep", "all", "--instrs", "2000"});
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"iq-sweep\",\"apps\":\"all\",\"instrs\":2000}");

    serve::ResultCache serial_cache(64);
    serve::JobExecutor serial(serial_cache, 1);
    serve::JobOutcome a = serial.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.output, expected);

    serve::ResultCache parallel_cache(64);
    serve::JobExecutor wide(parallel_cache, 4);
    serve::JobOutcome b = wide.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.output, expected);

    serve::JobOutcome warm = wide.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.output, expected);
    EXPECT_EQ(warm.cell_hits, warm.cells);
    EXPECT_EQ(warm.cell_misses, 0u);
}

TEST(ServeDifferentialTest, SampledCacheSweepBytesMatchOffline)
{
    std::string expected = offline({"cache-sweep", "all", "--refs",
                                    "6000", "--sample=4,500,1000"});
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"cache-sweep\",\"apps\":\"all\",\"refs\":6000,"
        "\"sampled\":true,\"sample\":{\"clusters\":4,\"interval\":500,"
        "\"warmup\":1000}}");

    serve::ResultCache cache(64);
    serve::JobExecutor executor(cache, 3);
    serve::JobOutcome cold = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.output, expected);

    // Warm: every cell -- and the "sampled:" cost trailer, rebuilt
    // from the cached per-cell simulated counts -- byte-identical.
    serve::JobOutcome warm = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.output, expected);
    EXPECT_EQ(warm.cell_hits, warm.cells);
}

TEST(ServeDifferentialTest, SampledIqSweepBytesMatchOffline)
{
    std::string expected = offline(
        {"iq-sweep", "all", "--instrs", "6000", "--sample=3,400,800"});
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"iq-sweep\",\"apps\":\"all\",\"instrs\":6000,"
        "\"sampled\":true,\"sample\":{\"clusters\":3,\"interval\":400,"
        "\"warmup\":800}}");

    serve::ResultCache cache(64);
    serve::JobExecutor executor(cache, 2);
    serve::JobOutcome cold = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.output, expected);
    serve::JobOutcome warm = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.output, expected);
    EXPECT_EQ(warm.cell_hits, warm.cells);
}

TEST(ServeDifferentialTest, IntervalRunBytesMatchOffline)
{
    std::string expected = offline(
        {"interval-run", "li", "--instrs", "20000", "--trigger=hybrid"});
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"interval-run\",\"apps\":\"li\",\"instrs\":20000,"
        "\"trigger\":\"hybrid\"}");

    serve::ResultCache cache(8);
    serve::JobExecutor executor(cache, 1);
    serve::JobOutcome cold = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.output, expected);
    EXPECT_EQ(cold.cell_misses, 1u);
    serve::JobOutcome warm = executor.run(spec, {}, {}, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.output, expected);
    EXPECT_EQ(warm.cell_hits, 1u);
}

TEST(ServeDifferentialTest, SingleAppRowEqualsRowInFullSweep)
{
    // Cell independence end-to-end: rows cached by an "all" sweep
    // serve a single-app job, whose table is the offline single-app
    // verb's exact bytes.
    serve::ResultCache cache(64);
    serve::JobExecutor executor(cache, 2);
    serve::JobSpec all = specFromJson(
        "{\"kind\":\"cache-sweep\",\"apps\":\"all\",\"refs\":3000}");
    ASSERT_TRUE(executor.run(all, {}, {}, nullptr).ok());

    serve::JobSpec one = specFromJson(
        "{\"kind\":\"cache-sweep\",\"apps\":\"li\",\"refs\":3000}");
    serve::JobOutcome outcome = executor.run(one, {}, {}, nullptr);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.cell_hits, 1u);
    EXPECT_EQ(outcome.output,
              offline({"cache-sweep", "li", "--refs", "3000"}));
}

TEST(ServeDifferentialTest, SpillSurvivesRestartByteIdentically)
{
    std::string path = tempPath("spill_restart");
    std::remove(path.c_str());
    std::string expected = offline({"iq-sweep", "li", "--instrs", "2000"});
    serve::JobSpec spec = specFromJson(
        "{\"kind\":\"iq-sweep\",\"apps\":\"li\",\"instrs\":2000}");
    {
        serve::ResultCache cache(8, path);
        serve::JobExecutor executor(cache, 1);
        serve::JobOutcome cold = executor.run(spec, {}, {}, nullptr);
        ASSERT_TRUE(cold.ok());
        EXPECT_EQ(cold.output, expected);
    }
    {
        // Fresh process image: the spill file alone must reproduce
        // the bytes without simulating anything.
        serve::ResultCache cache(8, path);
        serve::JobExecutor executor(cache, 1);
        serve::JobOutcome warm = executor.run(spec, {}, {}, nullptr);
        ASSERT_TRUE(warm.ok());
        EXPECT_EQ(warm.cell_hits, 1u);
        EXPECT_EQ(warm.output, expected);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Server protocol
// ---------------------------------------------------------------------

serve::ServerConfig
smallConfig()
{
    serve::ServerConfig config;
    config.queue_capacity = 2;
    config.cache_capacity = 64;
    config.jobs = 2;
    return config;
}

TEST(ServeServerTest, SubmitStreamsCellsAndResult)
{
    serve::StudyServer server(smallConfig());
    TestClient client(server);
    ASSERT_TRUE(client.request(
        "{\"op\":\"submit\",\"job\":{\"kind\":\"cache-sweep\","
        "\"apps\":[\"li\",\"gcc\"],\"refs\":3000}}"));
    json::Value ack = parsed(client.waitForEvent("ack"));
    uint64_t id = ack.u64Or("id", 0);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(ack.stringOr("kind"), "cache-sweep");

    json::Value result = parsed(client.waitForEvent("result", id));
    EXPECT_EQ(result.stringOr("status"), "ok");
    EXPECT_EQ(result.u64Or("cells", 0), 2u);
    std::string output = result.stringOr("output");
    EXPECT_NE(output.find("li"), std::string::npos);
    EXPECT_NE(output.find("gcc"), std::string::npos);

    // One cell event per application, tagged with the app name, all
    // delivered before the result (they stream as cells resolve).
    int cells = 0;
    bool saw_result = false;
    for (const std::string &line : client.linesSnapshot()) {
        json::Value event = parsed(line);
        if (event.stringOr("event") == "cell") {
            EXPECT_FALSE(saw_result);
            ++cells;
            EXPECT_TRUE(event.stringOr("app") == "li" ||
                        event.stringOr("app") == "gcc");
            EXPECT_EQ(event.u64Or("id", 0), id);
            EXPECT_FALSE(event.boolOr("cached", true));
        } else if (event.stringOr("event") == "result") {
            saw_result = true;
        }
    }
    EXPECT_EQ(cells, 2);
}

TEST(ServeServerTest, BackpressureShedsBeyondQueueBound)
{
    serve::StudyServer server(smallConfig());
    server.pauseExecutor();
    TestClient client(server);
    const std::string submit =
        "{\"op\":\"submit\",\"job\":{\"kind\":\"iq-sweep\","
        "\"apps\":\"li\",\"instrs\":2000}}";
    ASSERT_TRUE(client.request(submit));
    ASSERT_TRUE(client.request(submit));
    // The queue (capacity 2) is full: the K+1-th submit is shed.
    ASSERT_TRUE(client.request(submit));
    json::Value shed = parsed(client.waitForEvent("overloaded"));
    EXPECT_EQ(shed.u64Or("queue_depth", 0), 2u);
    EXPECT_EQ(server.counterValue("serve.shed"), 1u);
    EXPECT_EQ(server.queueDepth(), 2u);

    // Stats reports depth, shed, and admission counters.
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}"));
    json::Value stats = parsed(client.waitForEvent("stats"));
    EXPECT_EQ(stats.u64Or("queue_depth", 99), 2u);
    const json::Value *counters = stats.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64Or("serve.shed", 0), 1u);
    EXPECT_EQ(counters->u64Or("serve.submitted", 0), 2u);

    server.resumeExecutor();
    json::Value r1 = parsed(client.waitForEvent("result", 1));
    EXPECT_EQ(r1.stringOr("status"), "ok");
    json::Value r2 = parsed(client.waitForEvent("result", 2));
    EXPECT_EQ(r2.stringOr("status"), "ok");
    // Identical submissions: the second is served entirely from cache.
    EXPECT_EQ(r2.u64Or("cache_hits", 0), 1u);
}

TEST(ServeServerTest, CancelQueuedJobEmitsCancelledResult)
{
    serve::StudyServer server(smallConfig());
    server.pauseExecutor();
    TestClient client(server);
    const std::string submit =
        "{\"op\":\"submit\",\"job\":{\"kind\":\"iq-sweep\","
        "\"apps\":\"li\",\"instrs\":2000}}";
    ASSERT_TRUE(client.request(submit));
    ASSERT_TRUE(client.request(submit));

    ASSERT_TRUE(client.request("{\"op\":\"cancel\",\"id\":2}"));
    json::Value status = parsed(client.waitForEvent("status"));
    EXPECT_EQ(status.stringOr("state"), "cancelled");
    json::Value result = parsed(client.waitForEvent("result", 2));
    EXPECT_EQ(result.stringOr("status"), "cancelled");
    EXPECT_EQ(server.queueDepth(), 1u);
    EXPECT_EQ(server.counterValue("serve.cancelled"), 1u);

    server.resumeExecutor();
    json::Value first = parsed(client.waitForEvent("result", 1));
    EXPECT_EQ(first.stringOr("status"), "ok");

    // The terminal state stays visible through the status op.
    ASSERT_TRUE(client.request("{\"op\":\"status\",\"id\":2}"));
    json::Value after = parsed(client.waitFor([](const json::Value &e) {
        return e.stringOr("event") == "status" &&
               e.u64Or("id", 0) == 2 &&
               e.stringOr("state") == "cancelled";
    }));
    (void)after;
}

TEST(ServeServerTest, DeadlineExpiresBeforeExecution)
{
    serve::StudyServer server(smallConfig());
    server.pauseExecutor();
    TestClient client(server);
    ASSERT_TRUE(client.request(
        "{\"op\":\"submit\",\"job\":{\"kind\":\"cache-sweep\","
        "\"apps\":\"li\",\"refs\":3000,\"deadline_ms\":1}}"));
    client.waitForEvent("ack");
    std::this_thread::sleep_for(20ms);
    server.resumeExecutor();
    json::Value result = parsed(client.waitForEvent("result", 1));
    EXPECT_EQ(result.stringOr("status"), "deadline");
    EXPECT_EQ(server.counterValue("serve.deadline_expired"), 1u);
}

TEST(ServeServerTest, ProtocolErrorsKeepConnectionOpen)
{
    serve::StudyServer server(smallConfig());
    TestClient client(server);
    EXPECT_TRUE(client.request("this is not json"));
    json::Value e1 = parsed(client.waitForEvent("error"));
    EXPECT_NE(e1.stringOr("error").find("malformed"), std::string::npos);

    EXPECT_TRUE(client.request("{\"op\":\"frobnicate\"}"));
    client.waitFor([](const json::Value &e) {
        return e.stringOr("event") == "error" &&
               e.stringOr("error").find("unknown op") !=
                   std::string::npos;
    });

    EXPECT_TRUE(client.request(
        "{\"op\":\"submit\",\"job\":{\"kind\":\"cache-sweep\","
        "\"apps\":\"nope\"}}"));
    client.waitFor([](const json::Value &e) {
        return e.stringOr("event") == "error" &&
               e.stringOr("error").find("unknown application") !=
                   std::string::npos;
    });

    // A job id outside the u64 range is an error, not job 0.
    EXPECT_TRUE(client.request("{\"op\":\"status\",\"id\":1e30}"));
    client.waitFor([](const json::Value &e) {
        return e.stringOr("event") == "error" &&
               e.stringOr("error").find(
                   "\"id\" must be an integer in [0, 2^64)") !=
                   std::string::npos;
    });

    // Status of a never-submitted id.
    EXPECT_TRUE(client.request("{\"op\":\"status\",\"id\":42}"));
    json::Value status = parsed(client.waitForEvent("status"));
    EXPECT_EQ(status.stringOr("state"), "unknown");
}

TEST(ServeServerTest, HeartbeatsMultiplexOntoConnection)
{
    serve::ServerConfig config = smallConfig();
    config.heartbeats = true;
    config.heartbeat_period_s = 0.002;
    serve::StudyServer server(config);
    TestClient client(server);
    ASSERT_TRUE(client.request(
        "{\"op\":\"submit\",\"job\":{\"kind\":\"cache-sweep\","
        "\"apps\":\"all\",\"refs\":3000}}"));
    client.waitForEvent("result");

    // endRun always emits a final report, so at least one progress
    // event reaches the client even for a fast job; each carries the
    // job id and the structured PR-7 heartbeat report.
    bool saw_progress = false;
    for (const std::string &line : client.linesSnapshot()) {
        json::Value event = parsed(line);
        if (event.stringOr("event") != "progress")
            continue;
        saw_progress = true;
        EXPECT_EQ(event.u64Or("id", 0), 1u);
        const json::Value *report = event.find("report");
        ASSERT_NE(report, nullptr);
        ASSERT_TRUE(report->isObject());
        EXPECT_NE(report->stringOr("event"), "");
        EXPECT_EQ(report->stringOr("label"), "serve:cache-sweep");
        EXPECT_GE(report->u64Or("total", 0), 1u);
    }
    EXPECT_TRUE(saw_progress);
}

TEST(ServeServerTest, ShutdownDrainsQueuedJobsThenSaysBye)
{
    serve::StudyServer server(smallConfig());
    TestClient client(server);
    const std::string submit =
        "{\"op\":\"submit\",\"job\":{\"kind\":\"iq-sweep\","
        "\"apps\":\"li\",\"instrs\":2000}}";
    ASSERT_TRUE(client.request(submit));
    ASSERT_TRUE(client.request(submit));
    // shutdown drains: both results must already be delivered when
    // handleLine returns false with the bye event.
    EXPECT_FALSE(client.request("{\"op\":\"shutdown\"}"));
    client.waitForEvent("bye");
    int results = 0;
    for (const std::string &line : client.linesSnapshot()) {
        if (parsed(line).stringOr("event") == "result")
            ++results;
    }
    EXPECT_EQ(results, 2);

    // Submits after shutdown are refused.
    EXPECT_TRUE(client.request(submit));
    client.waitFor([](const json::Value &e) {
        return e.stringOr("event") == "error" &&
               e.stringOr("error").find("shutting down") !=
                   std::string::npos;
    });
}

TEST(ServeServerTest, ConcurrentClientsShareTheCache)
{
    serve::ServerConfig config = smallConfig();
    config.queue_capacity = 16;
    serve::StudyServer server(config);

    // Two client threads submit a shared study plus a private one;
    // every result must land on the submitting connection (this test
    // runs under TSan in CI).
    auto worker = [&server](const char *own_app) {
        TestClient client(server);
        std::string shared =
            "{\"op\":\"submit\",\"job\":{\"kind\":\"iq-sweep\","
            "\"apps\":\"li\",\"instrs\":2000}}";
        std::string own =
            "{\"op\":\"submit\",\"job\":{\"kind\":\"iq-sweep\","
            "\"apps\":\"" +
            std::string(own_app) + "\",\"instrs\":2000}}";
        ASSERT_TRUE(client.request(shared));
        ASSERT_TRUE(client.request(own));
        json::Value a1 = parsed(client.waitForEvent("ack"));
        uint64_t first = a1.u64Or("id", 0);
        json::Value r1 = parsed(client.waitForEvent("result", first));
        EXPECT_EQ(r1.stringOr("status"), "ok");
        json::Value a2 = parsed(client.waitFor([&](const json::Value &e) {
            return e.stringOr("event") == "ack" &&
                   e.u64Or("id", 0) != first;
        }));
        json::Value r2 =
            parsed(client.waitForEvent("result", a2.u64Or("id", 0)));
        EXPECT_EQ(r2.stringOr("status"), "ok");
    };
    std::thread t1(worker, "gcc");
    std::thread t2(worker, "swim");
    t1.join();
    t2.join();

    // Four single-cell jobs over three distinct cells: at least the
    // second "li" submission was served from cache.
    uint64_t hits = server.counterValue("serve.cache_hits");
    uint64_t misses = server.counterValue("serve.cache_misses");
    EXPECT_EQ(hits + misses, 4u);
    EXPECT_GE(hits, 1u);
    EXPECT_EQ(server.counterValue("serve.completed"), 4u);
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

TEST(ServeTransportTest, StdioServesAndDrains)
{
    serve::StudyServer server(smallConfig());
    std::istringstream in(
        "{\"op\":\"submit\",\"job\":{\"kind\":\"iq-sweep\","
        "\"apps\":\"li\",\"instrs\":2000}}\n"
        "{\"op\":\"stats\"}\n"
        "{\"op\":\"shutdown\"}\n");
    std::ostringstream out;
    EXPECT_EQ(serve::serveStdio(server, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    int acks = 0, results = 0, byes = 0;
    while (std::getline(lines, line)) {
        json::Value event = parsed(line);
        std::string type = event.stringOr("event");
        acks += type == "ack";
        results += type == "result";
        byes += type == "bye";
        if (type == "result") {
            EXPECT_EQ(event.stringOr("status"), "ok");
            EXPECT_EQ(event.stringOr("output"),
                      offline({"iq-sweep", "li", "--instrs", "2000"}));
        }
    }
    EXPECT_EQ(acks, 1);
    EXPECT_EQ(results, 1);
    EXPECT_EQ(byes, 1);
}

TEST(ServeTransportTest, SocketClientReassemblesOfflineBytes)
{
    std::string socket_path =
        "/tmp/capsim_srv_" + std::to_string(::getpid()) + ".sock";
    std::string study_path = tempPath("study");
    std::string events_path = tempPath("events");
    std::remove(socket_path.c_str());
    std::remove(events_path.c_str());
    {
        std::ofstream study(study_path);
        study << "# two-job study\n"
              << "\n"
              << "{\"kind\":\"cache-sweep\",\"apps\":\"li\","
                 "\"refs\":3000}\n"
              << "{\"kind\":\"iq-sweep\",\"apps\":\"li\","
                 "\"instrs\":2000}\n";
    }
    std::string expected =
        offline({"cache-sweep", "li", "--refs", "3000"}) +
        offline({"iq-sweep", "li", "--instrs", "2000"});

    serve::StudyServer server(smallConfig());
    std::ostringstream server_err;
    std::thread daemon(
        [&] { serve::serveSocket(server, socket_path, server_err); });
    for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0;
         ++i)
        std::this_thread::sleep_for(10ms);
    ASSERT_EQ(::access(socket_path.c_str(), F_OK), 0) << server_err.str();
    std::this_thread::sleep_for(50ms); // bind -> listen window

    serve::ClientOptions copts;
    copts.socket_path = socket_path;
    copts.study_path = study_path;
    copts.events_path = events_path;
    std::ostringstream out1, err1;
    EXPECT_EQ(serve::runClient(copts, out1, err1), 0) << err1.str();
    EXPECT_EQ(out1.str(), expected);

    // Second submission of the same study: byte-identical, fully
    // cached, and the daemon shuts down cleanly afterwards.
    copts.request_shutdown = true;
    std::ostringstream out2, err2;
    EXPECT_EQ(serve::runClient(copts, out2, err2), 0) << err2.str();
    EXPECT_EQ(out2.str(), expected);
    daemon.join();

    // The events file recorded the stats stream; the last stats line
    // shows the warm run served entirely from cache.
    std::ifstream events(events_path);
    std::string line, last_stats;
    while (std::getline(events, line)) {
        if (parsed(line).stringOr("event") == "stats")
            last_stats = line;
    }
    ASSERT_FALSE(last_stats.empty());
    json::Value stats = parsed(last_stats);
    const json::Value *counters = stats.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64Or("serve.cache_hits", 0), 2u);
    EXPECT_EQ(counters->u64Or("serve.cache_misses", 99), 2u);

    std::remove(socket_path.c_str());
    std::remove(study_path.c_str());
    std::remove(events_path.c_str());
}


/** Wait (spinning, to react as early as possible) for @p path to
 *  exist; false after about ten seconds. */
bool
waitForSocketFile(const std::string &path)
{
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (::access(path.c_str(), F_OK) != 0) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** Connect to the unix socket at @p path, retrying through the
 *  bind -> listen window up to @p attempts times; -1 on failure. */
int
connectUnix(const std::string &path, int attempts = 1000)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(1ms);
    }
    return -1;
}

/** Everything readable from @p fd until the peer closes it. */
std::string
readToEof(int fd)
{
    std::string data;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return data;
        data.append(chunk, static_cast<size_t>(n));
    }
}

TEST(ServeTransportTest, ImmediateShutdownsAlwaysGetBye)
{
    // A second client connecting while the first one's shutdown drains
    // wakes the accept loop into its own teardown, racing the bye; the
    // requester must get its bye every time.
    for (int round = 0; round < 20; ++round) {
        std::string socket_path = "/tmp/capsim_bye_" +
                                  std::to_string(::getpid()) + "_" +
                                  std::to_string(round) + ".sock";
        std::remove(socket_path.c_str());
        serve::StudyServer server(smallConfig());
        std::ostringstream server_err;
        int served = -1;
        std::thread daemon([&] {
            served = serve::serveSocket(server, socket_path, server_err);
        });
        int fd = waitForSocketFile(socket_path) ? connectUnix(socket_path)
                                                 : -1;
        std::string replies;
        if (fd >= 0) {
            const std::string request = "{\"op\":\"shutdown\"}\n";
            ssize_t sent = ::write(fd, request.data(), request.size());
            EXPECT_EQ(sent, static_cast<ssize_t>(request.size()));
            int bystander = connectUnix(socket_path, 1);
            replies = readToEof(fd);
            ::close(fd);
            if (bystander >= 0)
                ::close(bystander);
        } else {
            server.shutdown(); // let the daemon thread end
        }
        daemon.join();
        ASSERT_GE(fd, 0) << "round " << round << ": " << server_err.str();
        EXPECT_EQ(served, 0) << server_err.str();
        EXPECT_EQ(replies, "{\"event\":\"bye\"}\n") << "round " << round;
        EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
    }
}

TEST(ServeTransportTest, ClientShutdownFailsWithoutBye)
{
    // A stand-in daemon that completes one job and answers stats but
    // closes on shutdown without a bye: the client must report it.
    std::string socket_path =
        "/tmp/capsim_nobye_" + std::to_string(::getpid()) + ".sock";
    std::string study_path = tempPath("nobye_study");
    std::remove(socket_path.c_str());
    {
        std::ofstream study(study_path);
        study << "{\"kind\":\"cache-sweep\",\"apps\":\"li\"}\n";
    }
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listen_fd, 1), 0);
    std::thread fake([listen_fd] {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        auto reply = [fd](const std::string &lines) {
            ssize_t written = ::write(fd, lines.data(), lines.size());
            (void)written;
        };
        std::string buffer;
        char chunk[4096];
        bool open = true;
        while (open) {
            ssize_t n = ::read(fd, chunk, sizeof chunk);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<size_t>(n));
            size_t pos;
            while (open && (pos = buffer.find('\n')) != std::string::npos) {
                std::string op = parsed(buffer.substr(0, pos)).stringOr("op");
                buffer.erase(0, pos + 1);
                if (op == "submit")
                    reply("{\"event\":\"ack\",\"id\":1}\n"
                          "{\"event\":\"result\",\"id\":1,"
                          "\"status\":\"ok\",\"output\":\"row\\n\"}\n");
                else if (op == "stats")
                    reply("{\"event\":\"stats\"}\n");
                else
                    open = false; // shutdown: hang up without a bye
            }
        }
        ::close(fd);
    });

    serve::ClientOptions copts;
    copts.socket_path = socket_path;
    copts.study_path = study_path;
    copts.request_shutdown = true;
    std::ostringstream out, err;
    EXPECT_EQ(serve::runClient(copts, out, err), 1);
    EXPECT_EQ(out.str(), "row\n");
    EXPECT_NE(err.str().find("no bye"), std::string::npos) << err.str();
    fake.join();
    ::close(listen_fd);
    std::remove(socket_path.c_str());
    std::remove(study_path.c_str());
}

TEST(ServeTransportTest, SigtermRightAfterTheSocketAppearsExitsCleanly)
{
    // The daemon process must handle SIGTERM from the moment its socket
    // file exists: drain, unlink the socket and exit 0.
    for (int round = 0; round < 10; ++round) {
        std::string socket_path = "/tmp/capsim_term_" +
                                  std::to_string(::getpid()) + "_" +
                                  std::to_string(round) + ".sock";
        std::remove(socket_path.c_str());
        std::vector<std::string> args = {CAPSIM_BINARY, "serve", "--socket",
                                         socket_path, "--jobs", "1"};
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         "/dev/null", O_WRONLY, 0);
        posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                         "/dev/null", O_WRONLY, 0);
        pid_t pid = 0;
        int spawned = posix_spawn(&pid, CAPSIM_BINARY, &actions, nullptr,
                                  argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ASSERT_EQ(spawned, 0) << std::strerror(spawned);

        bool appeared = waitForSocketFile(socket_path);
        ::kill(pid, SIGTERM);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        bool left_behind = ::access(socket_path.c_str(), F_OK) == 0;
        std::remove(socket_path.c_str());
        ASSERT_TRUE(appeared) << "round " << round;
        ASSERT_TRUE(WIFEXITED(status))
            << "round " << round << ": killed by signal "
            << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
        EXPECT_EQ(WEXITSTATUS(status), 0) << "round " << round;
        EXPECT_FALSE(left_behind)
            << "round " << round << ": socket file left behind";
    }
}

} // namespace
} // namespace cap
