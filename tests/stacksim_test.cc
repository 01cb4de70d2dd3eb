/**
 * @file
 * Differential tests of the one-pass stack-distance engine
 * (src/cache/stack_sim.*) and the batched trace/instruction inner
 * loops: the fast paths must be bit-identical to the per-config
 * reference engines (tests/reference.h) and the per-record paths
 * they replace (docs/PERF.md).
 */

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "cache/exclusive_hierarchy.h"
#include "cache/stack_sim.h"
#include "core/adaptive_cache.h"
#include "core/experiment.h"
#include "obs/decision_trace.h"
#include "obs/registry.h"
#include "ooo/core_model.h"
#include "ooo/stream.h"
#include "reference.h"
#include "sample/sampler.h"
#include "trace/file_trace.h"
#include "trace/patterns.h"
#include "trace/stream.h"
#include "trace/workloads.h"

namespace cap {
namespace {

void
expectStatsEq(const cache::CacheStats &a, const cache::CacheStats &b,
              const std::string &where)
{
    EXPECT_EQ(a.refs, b.refs) << where;
    EXPECT_EQ(a.l1_hits, b.l1_hits) << where;
    EXPECT_EQ(a.l2_hits, b.l2_hits) << where;
    EXPECT_EQ(a.misses, b.misses) << where;
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
    EXPECT_EQ(a.swaps, b.swaps) << where;
}

/** Collect @p refs references of @p app into a vector. */
std::vector<trace::TraceRecord>
appTrace(const std::string &app_name, uint64_t refs)
{
    const trace::AppProfile &app = trace::findApp(app_name);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    std::vector<trace::TraceRecord> records(refs);
    EXPECT_EQ(source.nextBatch(records.data(), refs), refs);
    return records;
}

// ---------------------------------------------------------------------
// StackSimulator vs ExclusiveHierarchy
// ---------------------------------------------------------------------

TEST(StackSimTest, MatchesHierarchyAtEveryBoundary)
{
    cache::HierarchyGeometry geo;
    for (const char *name : {"li", "stereo", "compress", "swim"}) {
        std::vector<trace::TraceRecord> records = appTrace(name, 30000);

        cache::StackSimulator stack(geo);
        stack.accessBatch(records.data(), records.size());
        ASSERT_EQ(stack.refs(), records.size());

        std::vector<cache::CacheStats> all = stack.statsAll();
        ASSERT_EQ(all.size(),
                  static_cast<size_t>(geo.increments - 1));
        for (int k = 1; k < geo.increments; ++k) {
            cache::ExclusiveHierarchy hierarchy(geo, k);
            for (const trace::TraceRecord &record : records)
                hierarchy.access(record);
            std::string where =
                std::string(name) + " k=" + std::to_string(k);
            expectStatsEq(stack.statsFor(k), hierarchy.stats(), where);
            expectStatsEq(all[static_cast<size_t>(k - 1)],
                          hierarchy.stats(), where + " (statsAll)");
        }
    }
}

TEST(StackSimTest, DepthsGiveEveryBoundarysOutcome)
{
    cache::HierarchyGeometry geo;
    for (const char *name : {"li", "stereo", "compress", "swim"}) {
        std::vector<trace::TraceRecord> records = appTrace(name, 30000);

        cache::StackSimulator stack(geo);
        std::vector<cache::StackDepth> depths(records.size());
        stack.accessBatch(records.data(), records.size(), depths.data());

        for (int k = 1; k < geo.increments; ++k) {
            std::string where =
                std::string(name) + " k=" + std::to_string(k);
            cache::ExclusiveHierarchy hierarchy(geo, k);
            for (size_t i = 0; i < records.size(); ++i) {
                cache::AccessOutcome want = hierarchy.access(records[i]);
                if (cache::outcomeAtDepth(depths[i], geo.l1Ways(k)) !=
                    want) {
                    ADD_FAILURE() << where << ": reference " << i
                                  << " at depth " << depths[i];
                    break;
                }
            }
            // Recording depths leaves the reconstruction untouched.
            expectStatsEq(stack.statsFor(k), hierarchy.stats(), where);
        }
    }
}

TEST(StackSimTest, ResetRestoresColdStart)
{
    cache::HierarchyGeometry geo;
    std::vector<trace::TraceRecord> records = appTrace("li", 8000);

    cache::StackSimulator stack(geo);
    stack.accessBatch(records.data(), records.size());
    stack.reset();
    EXPECT_EQ(stack.refs(), 0u);
    stack.accessBatch(records.data(), records.size());

    cache::StackSimulator fresh(geo);
    fresh.accessBatch(records.data(), records.size());
    for (int k = 1; k < geo.increments; ++k)
        expectStatsEq(stack.statsFor(k), fresh.statsFor(k),
                      "k=" + std::to_string(k));
}

// ---------------------------------------------------------------------
// One-pass study vs per-config study
// ---------------------------------------------------------------------

void
expectPerfEq(const core::CachePerf &a, const core::CachePerf &b,
             const std::string &where)
{
    EXPECT_EQ(a.l1_increments, b.l1_increments) << where;
    EXPECT_EQ(a.refs, b.refs) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.l1_miss_ratio, b.l1_miss_ratio) << where;
    EXPECT_EQ(a.global_miss_ratio, b.global_miss_ratio) << where;
    EXPECT_EQ(a.tpi_ns, b.tpi_ns) << where;
    EXPECT_EQ(a.tpi_miss_ns, b.tpi_miss_ns) << where;
}

TEST(StackSimStudyTest, OnePassStudyMatchesPerConfig)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("stereo"),
                                           trace::findApp("swim")};
    const uint64_t refs = 20000;

    obs::DecisionTrace slow_trace;
    obs::Hooks slow_hooks;
    slow_hooks.trace = &slow_trace;
    core::CacheStudy slow =
        reference::runCacheStudy(model, apps, refs, 8, 1, slow_hooks);

    obs::DecisionTrace fast_trace;
    obs::Hooks fast_hooks;
    fast_hooks.trace = &fast_trace;
    core::CacheStudy fast =
        core::runCacheStudy(model, apps, refs, 8, 1, fast_hooks);

    ASSERT_EQ(slow.perf.size(), fast.perf.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        ASSERT_EQ(slow.perf[a].size(), fast.perf[a].size());
        for (size_t c = 0; c < slow.perf[a].size(); ++c)
            expectPerfEq(slow.perf[a][c], fast.perf[a][c],
                         apps[a].name + " c=" + std::to_string(c));
    }
    EXPECT_EQ(slow.selection.per_app_best, fast.selection.per_app_best);

    // Both engines emit one Cell event per (app, boundary) in the same
    // order, so the decision-trace JSONL must match byte for byte.
    std::ostringstream slow_jsonl;
    std::ostringstream fast_jsonl;
    slow_trace.writeJsonl(slow_jsonl);
    fast_trace.writeJsonl(fast_jsonl);
    EXPECT_EQ(slow_jsonl.str(), fast_jsonl.str());
}

TEST(StackSimStudyTest, OnePassStudyIsJobsInvariant)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("compress"),
                                           trace::findApp("appcg")};
    const uint64_t refs = 15000;

    obs::DecisionTrace serial_trace;
    obs::CounterRegistry serial_registry;
    obs::Hooks serial_hooks{&serial_trace, &serial_registry};
    core::CacheStudy serial =
        core::runCacheStudy(model, apps, refs, 8, 1, serial_hooks);

    obs::DecisionTrace parallel_trace;
    obs::CounterRegistry parallel_registry;
    obs::Hooks parallel_hooks{&parallel_trace, &parallel_registry};
    core::CacheStudy parallel =
        core::runCacheStudy(model, apps, refs, 8, 4, parallel_hooks);

    for (size_t a = 0; a < apps.size(); ++a)
        for (size_t c = 0; c < serial.perf[a].size(); ++c)
            expectPerfEq(serial.perf[a][c], parallel.perf[a][c],
                         apps[a].name + " c=" + std::to_string(c));

    std::ostringstream serial_jsonl;
    std::ostringstream parallel_jsonl;
    serial_trace.writeJsonl(serial_jsonl);
    parallel_trace.writeJsonl(parallel_jsonl);
    EXPECT_EQ(serial_jsonl.str(), parallel_jsonl.str());
    EXPECT_EQ(serial_registry.counterValue("cache.refs"),
              parallel_registry.counterValue("cache.refs"));
    EXPECT_EQ(serial_registry.counterValue("stacksim.sweeps"),
              parallel_registry.counterValue("stacksim.sweeps"));
}

TEST(StackSimStudyTest, SweepOnePassMatchesEvaluate)
{
    core::AdaptiveCacheModel model;
    const trace::AppProfile &app = trace::findApp("turb3d");
    const uint64_t refs = 25000;
    std::vector<core::CachePerf> sweep = model.sweep(app, 8, refs);
    ASSERT_EQ(sweep.size(), 8u);
    for (int k = 1; k <= 8; ++k)
        expectPerfEq(sweep[static_cast<size_t>(k - 1)],
                     model.evaluate(app, k, refs),
                     "k=" + std::to_string(k));
}

TEST(StackSimStudyTest, MeasureAllConfigsMatchesMeasureConfig)
{
    core::AdaptiveCacheModel model;
    const trace::AppProfile &app = trace::findApp("li");
    sample::SampleParams params;
    params.interval_len = 2000;
    params.clusters = 5;
    params.warmup_len = 4000;
    sample::CacheSampler sampler(model, app, 60000, params);

    std::vector<std::vector<sample::CacheRepMeasurement>> all =
        sampler.measureAllConfigs(8);
    ASSERT_EQ(all.size(), 8u);
    for (int k = 1; k <= 8; ++k) {
        std::vector<sample::CacheRepMeasurement> one =
            sampler.measureConfig(k);
        const auto &fast = all[static_cast<size_t>(k - 1)];
        ASSERT_EQ(fast.size(), one.size());
        for (size_t r = 0; r < one.size(); ++r) {
            std::string where = "k=" + std::to_string(k) +
                                " rep=" + std::to_string(r);
            expectStatsEq(fast[r].stats, one[r].stats, where);
            EXPECT_EQ(fast[r].warmup_refs, one[r].warmup_refs) << where;
        }
    }
}

// ---------------------------------------------------------------------
// Batched generation vs per-record generation
// ---------------------------------------------------------------------

TEST(BatchedTraceTest, SyntheticBatchMatchesNext)
{
    const trace::AppProfile &app = trace::findApp("turb3d");
    const uint64_t limit = 5000;

    trace::SyntheticTraceSource scalar(app.cache, app.seed, limit);
    std::vector<trace::TraceRecord> expected;
    trace::TraceRecord record;
    while (scalar.next(record))
        expected.push_back(record);
    ASSERT_EQ(expected.size(), limit);

    // Odd chunk sizes exercise mid-phase batch boundaries.
    trace::SyntheticTraceSource batched(app.cache, app.seed, limit);
    std::vector<trace::TraceRecord> got;
    trace::TraceRecord buffer[257];
    for (;;) {
        uint64_t n = batched.nextBatch(buffer, std::size(buffer));
        got.insert(got.end(), buffer, buffer + n);
        if (n < std::size(buffer))
            break;
    }
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[i].addr, expected[i].addr) << i;
        ASSERT_EQ(got[i].is_write, expected[i].is_write) << i;
    }
    EXPECT_FALSE(batched.next(record));
    EXPECT_EQ(batched.produced(), scalar.produced());
}

TEST(BatchedTraceTest, ZipfResidentMatchesPlainZipf)
{
    // ZipfResident draws its rank from an InverseTable when s > 0 and
    // s != 1; a twin of it that draws Rng::zipf(n, s, norm) must see the
    // same addresses and leave its generator in the same state, for
    // every ZipfResident of every profile and of the phased demo (s == 0
    // and s == 1 included, which keep Rng::zipf's own draw).
    std::vector<trace::AppProfile> apps = trace::workloadSuite();
    apps.push_back(trace::phasedCacheDemo());
    for (const trace::AppProfile &app : apps) {
        std::vector<trace::PatternSpec> specs = app.cache.mix;
        for (const trace::CachePhase &phase : app.cache.phases)
            specs.insert(specs.end(), phase.mix.begin(), phase.mix.end());
        for (const trace::PatternSpec &spec : specs) {
            if (spec.kind != trace::PatternKind::ZipfResident)
                continue;
            const trace::Region region{uint64_t{1} << 20, spec.region_bytes};
            const uint64_t n = region.blocks(trace::kBlockBytes);
            trace::ZipfResident pattern(region, trace::kBlockBytes,
                                        spec.zipf_s, app.seed);
            // The pattern's popularity -> block shuffle, rebuilt.
            std::vector<uint64_t> shuffle(n);
            std::iota(shuffle.begin(), shuffle.end(), 0);
            Rng shuffle_rng(app.seed);
            for (uint64_t i = n - 1; i > 0; --i)
                std::swap(shuffle[i], shuffle[shuffle_rng.below(i + 1)]);

            const double norm = Rng::zipfNorm(n, spec.zipf_s);
            Rng tabled(app.seed);
            Rng plain(app.seed);
            for (int i = 0; i < 20000; ++i) {
                const uint64_t rank = plain.zipf(n, spec.zipf_s, norm);
                const Addr want = region.base +
                                  shuffle[rank] * trace::kBlockBytes +
                                  plain.below(trace::kBlockBytes);
                ASSERT_EQ(pattern.next(tabled), want)
                    << app.name << " n=" << n << " s=" << spec.zipf_s
                    << " draw " << i;
            }
            ASSERT_EQ(tabled.saveState(), plain.saveState())
                << app.name << " n=" << n << " s=" << spec.zipf_s;
        }
    }
}

TEST(BatchedTraceTest, FileBatchMatchesNext)
{
    const trace::AppProfile &app = trace::findApp("li");
    std::string path = testing::TempDir() + "/capsim_batch_test.din";
    trace::SyntheticTraceSource writer(app.cache, app.seed, 2000);
    ASSERT_EQ(trace::writeTraceFile(path, writer, 2000), 2000u);

    trace::FileTraceSource scalar(path);
    std::vector<trace::TraceRecord> expected;
    trace::TraceRecord record;
    while (scalar.next(record))
        expected.push_back(record);

    trace::FileTraceSource batched(path);
    std::vector<trace::TraceRecord> got;
    trace::TraceRecord buffer[97];
    for (;;) {
        uint64_t n = batched.nextBatch(buffer, std::size(buffer));
        got.insert(got.end(), buffer, buffer + n);
        if (n < std::size(buffer))
            break;
    }
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[i].addr, expected[i].addr) << i;
        ASSERT_EQ(got[i].is_write, expected[i].is_write) << i;
    }
    EXPECT_EQ(batched.produced(), scalar.produced());
}

TEST(BatchedStreamTest, InstructionBatchMatchesNext)
{
    // nextBatch() draws with each phase's precomputed parameters
    // (its dependency distances from InverseTables); next() recomputes
    // them per op and calls Rng::geometric.  Over one full schedule loop of every IQ-study
    // profile and on into the next loop, in batches that straddle the
    // segment boundaries, both must deliver the same ops and leave the
    // generator in the same state.
    auto same = [](const ooo::MicroOp &a, const ooo::MicroOp &b) {
        return a.src1_dist == b.src1_dist && a.src2_dist == b.src2_dist &&
               a.latency == b.latency;
    };
    for (const trace::AppProfile &app : trace::iqStudyApps()) {
        uint64_t count = 1000;
        for (const trace::PhaseSegment &seg : app.ilp.schedule)
            count += seg.length_instrs;

        ooo::InstructionStream scalar(app.ilp, app.seed);
        ooo::InstructionStream batched(app.ilp, app.seed);
        ooo::MicroOp expected[193];
        ooo::MicroOp got[193];
        for (uint64_t done = 0; done < count;) {
            uint64_t chunk =
                std::min<uint64_t>(count - done, std::size(got));
            for (uint64_t i = 0; i < chunk; ++i)
                expected[i] = scalar.next();
            ASSERT_EQ(batched.nextBatch(got, chunk), chunk);
            const ooo::MicroOp *diff =
                std::mismatch(got, got + chunk, expected, same).first;
            ASSERT_TRUE(diff == got + chunk)
                << app.name << " op " << done + (diff - got);
            done += chunk;
        }
        EXPECT_EQ(batched.position(), scalar.position()) << app.name;
        EXPECT_EQ(batched.saveCursor().rng_state,
                  scalar.saveCursor().rng_state)
            << app.name;

        // The generators must also stay in lockstep after the drains.
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(same(scalar.next(), batched.next())) << app.name;
    }
}

TEST(BatchedStreamTest, CoreModelFetchBufferIsStepInvariant)
{
    // The fetch buffer reads the stream ahead of dispatch; the split
    // of step() calls must not change what the machine computes.
    const trace::AppProfile &app = trace::findApp("vortex");
    ooo::CoreParams params;
    params.queue_entries = 32;

    // step() stops at the first tick reaching its target, so split
    // runs overshoot differently -- but every run follows the same
    // deterministic tick trajectory.  Drive one model in 60 small
    // steps, then run a fresh model to exactly the same issued count:
    // identical trajectories must land on the identical cycle.
    ooo::InstructionStream many_stream(app.ilp, app.seed);
    ooo::CoreModel many(many_stream, params);
    for (int i = 0; i < 60; ++i)
        many.step(100);

    ooo::InstructionStream one_stream(app.ilp, app.seed);
    ooo::CoreModel one(one_stream, params);
    one.step(many.issuedInstructions());

    EXPECT_EQ(one.issuedInstructions(), many.issuedInstructions());
    EXPECT_EQ(one.cycleCount(), many.cycleCount());
}

TEST(BatchedStreamTest, OpTapHandsOnEveryFetchedOpInOrder)
{
    // The interval controller's use: a core reads through the tap,
    // and after each interval the phase detector takes that many ops.
    // Shrinking resizes make the core issue (and fetch) past the
    // detector's position; every op taken must be the stream's next.
    const trace::AppProfile &app = trace::findApp("vortex");
    constexpr uint64_t kInterval = 2000;
    ooo::InstructionStream stream(app.ilp, app.seed);
    ooo::OpTap tap(stream);
    ooo::CoreParams params;
    params.queue_entries = 128;
    ooo::CoreModel core(tap, params);

    ooo::InstructionStream shadow(app.ilp, app.seed);
    std::vector<ooo::MicroOp> want(kInterval);
    auto same = [](const ooo::MicroOp &a, const ooo::MicroOp &b) {
        return a.src1_dist == b.src1_dist && a.src2_dist == b.src2_dist &&
               a.latency == b.latency;
    };
    for (int i = 0; i < 300; ++i) {
        core.step(kInterval);
        if (i % 7 == 3)
            core.resize(i % 2 ? 16 : 64);
        else if (i % 7 == 5)
            core.resize(128);
        shadow.nextBatch(want.data(), kInterval);
        const ooo::MicroOp *got = tap.take(kInterval);
        const ooo::MicroOp *diff =
            std::mismatch(got, got + kInterval, want.data(), same).first;
        ASSERT_TRUE(diff == got + kInterval)
            << "interval " << i << " op " << diff - got;
    }
    // The detector's position trailed the core's issue point.
    EXPECT_GT(core.issuedInstructions(), 300 * kInterval);
}

} // namespace
} // namespace cap
