/**
 * @file
 * Banked DRAM + MSHR backend tests: spec parsing, backend timing
 * semantics, MSHR bookkeeping invariants, the flat-default
 * byte-identity contract of the study verbs, dram-mode study
 * invariants, the serve cell-key sensitivity, and the shared
 * missCycles / clock-switch-penalty regressions (docs/MEMORY.md).
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/adaptive_cache.h"
#include "core/async_cache.h"
#include "core/concert.h"
#include "core/experiment.h"
#include "core/interval_cache.h"
#include "core/latency_adaptive.h"
#include "core/machine.h"
#include "core/multiprogram.h"
#include "core/profile_guided.h"
#include "golden.h"
#include "mem/mem_model.h"
#include "obs/decision_trace.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "obs/trace_reader.h"
#include "reference.h"
#include "serve/job.h"
#include "serve/render.h"
#include "trace/workloads.h"
#include "util/json.h"

namespace cap {
namespace {

mem::MemConfig
parseOrDie(const std::string &spec)
{
    mem::MemConfig config;
    std::string error;
    EXPECT_TRUE(mem::parseMemSpec(spec, config, error)) << error;
    return config;
}

TEST(MemSpec, FlatIsTheDefaultConfig)
{
    mem::MemConfig config;
    EXPECT_FALSE(config.isDram());
    EXPECT_EQ(config.canonical(), "flat");
    EXPECT_FALSE(parseOrDie("flat").isDram());
}

TEST(MemSpec, DramDefaultsScaleFromRowHit)
{
    mem::MemConfig config = parseOrDie("dram");
    EXPECT_TRUE(config.isDram());
    EXPECT_EQ(config.dram.banks, 8u);
    EXPECT_EQ(config.dram.row_bytes, 2048u);
    EXPECT_DOUBLE_EQ(config.dram.row_hit_ns, 15.0);
    // The idle-bank access reproduces the historical flat edge.
    EXPECT_DOUBLE_EQ(config.dram.row_miss_ns,
                     core::CacheMachine::kL2MissNs);
    EXPECT_DOUBLE_EQ(config.dram.row_conflict_ns, 45.0);
    EXPECT_EQ(config.dram.mshr_entries, 8u);
    EXPECT_EQ(config.dram.page_policy, mem::PagePolicy::Open);
}

TEST(MemSpec, ParsesEveryKnob)
{
    mem::MemConfig config = parseOrDie(
        "dram:banks=4,row=1024,hit=10,miss=20,conflict=40,burst=2,"
        "mshr=16,policy=closed");
    EXPECT_EQ(config.dram.banks, 4u);
    EXPECT_EQ(config.dram.row_bytes, 1024u);
    EXPECT_DOUBLE_EQ(config.dram.row_hit_ns, 10.0);
    EXPECT_DOUBLE_EQ(config.dram.row_miss_ns, 20.0);
    EXPECT_DOUBLE_EQ(config.dram.row_conflict_ns, 40.0);
    EXPECT_DOUBLE_EQ(config.dram.burst_ns, 2.0);
    EXPECT_EQ(config.dram.mshr_entries, 16u);
    EXPECT_EQ(config.dram.page_policy, mem::PagePolicy::Closed);
}

TEST(MemSpec, RejectsMalformedSpecsAndLeavesConfigUntouched)
{
    mem::MemConfig config = parseOrDie("dram:banks=2");
    std::string error;
    for (const char *bad :
         {"sdram", "dram:banks", "dram:banks=0", "dram:row=100",
          "dram:mshr=0", "dram:policy=wombat", "dram:wombat=1",
          "dram:hit=20,miss=10", "dram:miss=50,conflict=40"}) {
        EXPECT_FALSE(mem::parseMemSpec(bad, config, error)) << bad;
        EXPECT_FALSE(error.empty());
    }
    // Failures never clobber the previously parsed config.
    EXPECT_TRUE(config.isDram());
    EXPECT_EQ(config.dram.banks, 2u);
}

TEST(MemSpec, CanonicalRoundTrips)
{
    for (const char *spec :
         {"flat", "dram", "dram:banks=2,hit=7.5,policy=closed"}) {
        mem::MemConfig config = parseOrDie(spec);
        mem::MemConfig reparsed = parseOrDie(config.canonical());
        EXPECT_EQ(config.canonical(), reparsed.canonical()) << spec;
    }
}

TEST(MemDram, OpenPolicyRowHitMissConflict)
{
    mem::DramParams params;
    params.banks = 1;
    params.mshr_entries = 1;
    mem::DramBackend backend(params);

    // Idle bank: row miss.  Far-apart arrival times keep each access
    // independent (no queueing, no overlap).
    backend.onMiss(0, 0.0);
    // Same row (block 1 of row 0): row hit.
    backend.onMiss(64, 1000.0);
    // Different row: conflict against the open row.
    backend.onMiss(params.row_bytes, 2000.0);

    const mem::DramStats &stats = backend.dramStats();
    EXPECT_EQ(stats.accesses, 3u);
    EXPECT_EQ(stats.row_misses, 1u);
    EXPECT_EQ(stats.row_hits, 1u);
    EXPECT_EQ(stats.row_conflicts, 1u);
    EXPECT_DOUBLE_EQ(stats.service_ns,
                     params.row_miss_ns + params.row_hit_ns +
                         params.row_conflict_ns);
    EXPECT_DOUBLE_EQ(stats.queue_ns, 0.0);
}

TEST(MemDram, ClosedPolicyNeverHitsOrConflicts)
{
    mem::DramParams params;
    params.banks = 1;
    params.page_policy = mem::PagePolicy::Closed;
    mem::DramBackend backend(params);
    backend.onMiss(0, 0.0);
    backend.onMiss(64, 1000.0);
    backend.onMiss(params.row_bytes, 2000.0);
    EXPECT_EQ(backend.dramStats().row_misses, 3u);
    EXPECT_EQ(backend.dramStats().row_hits, 0u);
    EXPECT_EQ(backend.dramStats().row_conflicts, 0u);
}

TEST(MemDram, ServiceLatencyFloorsAtRowHit)
{
    mem::DramParams params;
    mem::DramBackend backend(params);
    Nanoseconds now = 0.0;
    for (uint64_t i = 0; i < 500; ++i) {
        // A stride that mixes row hits, misses and conflicts.
        backend.onMiss(i * 1337 * 32, now);
        now += 3.0;
    }
    const mem::DramStats &stats = backend.dramStats();
    EXPECT_EQ(stats.accesses, 500u);
    EXPECT_GE(stats.service_ns,
              static_cast<double>(stats.accesses) * params.row_hit_ns);
}

TEST(MemDram, BusyBankQueuesLaterAccess)
{
    mem::DramParams params;
    params.banks = 1;
    mem::DramBackend backend(params);
    // Two back-to-back misses to different rows of the one bank: the
    // second cannot issue until the first completes.
    backend.onMiss(0, 0.0);
    backend.onMiss(params.row_bytes, 0.0);
    EXPECT_GE(backend.dramStats().queue_ns, params.row_miss_ns);
}

TEST(MemDram, ResetForgetsStateAndStats)
{
    mem::DramBackend backend(mem::DramParams{});
    backend.onMiss(0, 0.0);
    backend.onMiss(64, 0.0);
    backend.reset();
    EXPECT_EQ(backend.dramStats().accesses, 0u);
    EXPECT_EQ(backend.mshrStats().allocs, 0u);
    // After reset the first access is a row miss again, not a hit.
    backend.onMiss(64, 0.0);
    EXPECT_EQ(backend.dramStats().row_misses, 1u);
}

TEST(MshrFile, SecondaryMissMergesAndConservationHolds)
{
    mem::DramParams params;
    mem::DramBackend backend(params);
    uint64_t misses = 0;
    Nanoseconds now = 0.0;
    for (uint64_t i = 0; i < 200; ++i) {
        // Every block is touched twice in quick succession: the
        // second reference should merge into the in-flight entry.
        Addr block = (i / 2) * 4096;
        backend.onMiss(block + (i % 2) * 8, now);
        now += 0.5;
        ++misses;
    }
    const mem::MshrStats &stats = backend.mshrStats();
    EXPECT_GT(stats.merges, 0u);
    EXPECT_EQ(stats.allocs + stats.merges, misses);
}

TEST(MshrFile, MergedMissChargesAtMostRemainingWait)
{
    mem::DramParams params;
    params.banks = 1;
    mem::DramBackend backend(params);
    Nanoseconds primary = backend.onMiss(0, 0.0);
    Nanoseconds secondary = backend.onMiss(8, 1.0);
    EXPECT_EQ(backend.mshrStats().merges, 1u);
    // The merged miss waits only for the already-issued access.
    EXPECT_DOUBLE_EQ(secondary, params.row_miss_ns - 1.0);
    EXPECT_GT(primary, 0.0);
}

TEST(MshrFile, FullFileForcesStructuralStall)
{
    mem::DramParams params;
    params.banks = 8;
    params.mshr_entries = 1;
    mem::DramBackend backend(params);
    backend.onMiss(0, 0.0);
    // Distinct block while the single entry is in flight: the
    // pipeline must stall to completion before allocating.
    Nanoseconds stall = backend.onMiss(1 << 20, 0.0);
    EXPECT_EQ(backend.mshrStats().full_stalls, 1u);
    EXPECT_GE(stall, params.row_miss_ns);
}

TEST(MshrFile, StallAccountingMatchesReturnedStalls)
{
    mem::DramBackend backend(mem::DramParams{});
    Nanoseconds total = 0.0;
    Nanoseconds now = 0.0;
    for (uint64_t i = 0; i < 300; ++i) {
        total += backend.onMiss(i * 57 * 32, now);
        now += 2.0;
    }
    EXPECT_DOUBLE_EQ(backend.mshrStats().stall_ns, total);
}

// ---------------------------------------------------------------------
// The shared missCycles helper and clock-switch penalty knobs
// (the "no hard-coded 30" satellites).
// ---------------------------------------------------------------------

TEST(MemPenalty, MissCyclesIsExactAtExactDivision)
{
    // 30 ns at a 1.0 ns clock is exactly 30 cycles -- the epsilon
    // guard keeps ceil() from reading 30.000000000000004 as 31
    // (previously concert.cc lacked the guard).
    EXPECT_EQ(core::missCycles(30.0, 1.0), 30u);
    EXPECT_EQ(core::missCycles(30.0, 1.5), 20u);
    EXPECT_EQ(core::missCycles(core::CacheMachine::kL2MissNs, 0.75),
              40u);
    // Non-exact division still rounds up.
    EXPECT_EQ(core::missCycles(30.0, 0.7), 43u);
    EXPECT_EQ(core::missCycles(31.0, 2.0), 16u);
}

TEST(MemPenalty, MultiprogramSwitchPenaltyIsAParameter)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("compress")};
    core::MultiprogramParams params;
    params.quantum_refs = 5000;
    params.boundaries = {2, 6};

    auto overheadWith = [&](Cycles penalty) {
        core::MultiprogramParams p = params;
        p.clock_switch_penalty_cycles = penalty;
        return core::runMultiprogram(model, apps, 20000, p)
            .switch_overhead_ns;
    };
    double at0 = overheadWith(0);
    double at30 = overheadWith(core::kClockSwitchPenaltyCycles);
    double at60 = overheadWith(2 * core::kClockSwitchPenaltyCycles);
    EXPECT_LT(at0, at30);
    // Linear in the penalty: each switch pays penalty * cycle_ns.
    EXPECT_NEAR(at60 - at30, at30 - at0, 1e-6);
}

TEST(MemPenalty, ProfileGuidedSwitchPenaltyIsAParameter)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("gcc");
    // A hand-authored schedule guarantees reconfigurations happen.
    core::ConfigSchedule schedule = {{0, 64}, {5, 16}, {12, 64}};

    auto timeWith = [&](Cycles penalty) {
        return core::runWithSchedule(model, app, 60000, schedule,
                                     core::kIntervalInstructions,
                                     penalty);
    };
    core::IntervalRunResult at0 = timeWith(0);
    core::IntervalRunResult at30 =
        timeWith(core::kClockSwitchPenaltyCycles);
    core::IntervalRunResult at60 =
        timeWith(2 * core::kClockSwitchPenaltyCycles);
    ASSERT_GT(at30.reconfigurations, 0);
    EXPECT_LT(at0.total_time_ns, at30.total_time_ns);
    EXPECT_NEAR(at60.total_time_ns - at30.total_time_ns,
                at30.total_time_ns - at0.total_time_ns, 1e-6);
}

// ---------------------------------------------------------------------
// The --mem=flat byte-identity contract and dram-mode CLI wiring.
// ---------------------------------------------------------------------

std::string
runCli(const std::vector<std::string> &args, int expect_code = 0)
{
    std::ostringstream out, err;
    int code = cli::runCommand(args, out, err);
    EXPECT_EQ(code, expect_code)
        << "stderr: " << err.str() << "\nargs[0]: " << args[0];
    return out.str();
}

TEST(MemFlatIdentity, CacheSweepBytesMatchWithoutTheFlag)
{
    std::string implicit =
        runCli({"cache-sweep", "li", "--refs", "30000"});
    std::string explicit_flat = runCli(
        {"cache-sweep", "li", "--refs", "30000", "--mem", "flat"});
    EXPECT_EQ(implicit, explicit_flat);
    EXPECT_FALSE(implicit.empty());

    std::string jobs2 = runCli({"cache-sweep", "li", "--refs", "30000",
                                "--mem", "flat", "--jobs", "2"});
    EXPECT_EQ(implicit, jobs2);
}

TEST(MemFlatIdentity, IqSweepBytesMatchWithoutTheFlag)
{
    std::string implicit = runCli({"iq-sweep", "li", "--instrs", "20000"});
    std::string explicit_flat = runCli(
        {"iq-sweep", "li", "--instrs", "20000", "--mem", "flat"});
    EXPECT_EQ(implicit, explicit_flat);
    EXPECT_FALSE(implicit.empty());
}

TEST(MemFlatIdentity, SampleRunAcceptsFlatRejectsDramOnCacheSide)
{
    std::string implicit = runCli({"sample-run", "li", "--study",
                                   "cache", "--refs", "30000"});
    std::string explicit_flat =
        runCli({"sample-run", "li", "--study", "cache", "--refs",
                "30000", "--mem", "flat"});
    EXPECT_EQ(implicit, explicit_flat);

    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand({"sample-run", "li", "--study", "cache",
                               "--refs", "30000", "--mem", "dram"},
                              out, err),
              2);
    EXPECT_NE(err.str().find("--mem=flat"), std::string::npos);
}

TEST(MemFlatIdentity, SampledCacheSweepRejectsDram)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand({"cache-sweep", "li", "--refs", "30000",
                               "--sample", "--mem", "dram"},
                              out, err),
              2);
    EXPECT_NE(err.str().find("--mem=flat"), std::string::npos);
}

TEST(MemFlatIdentity, BadSpecIsAUsageError)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCommand({"cache-sweep", "li", "--mem", "sdram"},
                              out, err),
              2);
    EXPECT_NE(err.str().find("unknown --mem kind"), std::string::npos);
}

TEST(MemFlatIdentity, DramCacheSweepRunsAndDiffersFromFlat)
{
    std::string flat = runCli({"cache-sweep", "li", "--refs", "30000"});
    std::string dram = runCli(
        {"cache-sweep", "li", "--refs", "30000", "--mem", "dram"});
    EXPECT_FALSE(dram.empty());
    EXPECT_NE(flat, dram);
}

// ---------------------------------------------------------------------
// Dram-mode study invariants.
// ---------------------------------------------------------------------

TEST(MemDramStudy, CountersConserveMissesAndFloorTheStall)
{
    core::AdaptiveCacheModel model;
    model.setMemConfig(parseOrDie("dram"));
    const trace::AppProfile &app = trace::findApp("compress");
    obs::CounterRegistry registry;
    core::CachePerf perf =
        model.evaluateObserved(app, 4, 40000, nullptr, &registry);
    EXPECT_GT(perf.tpi_ns, 0.0);

    uint64_t misses = registry.counterValue("cache.misses");
    ASSERT_GT(misses, 0u);
    // Every miss either allocated an MSHR or merged into one.
    EXPECT_EQ(registry.counterValue("mshr.allocs") +
                  registry.counterValue("mshr.merges"),
              misses);
    EXPECT_EQ(registry.counterValue("dram.accesses"),
              registry.counterValue("mshr.allocs"));
    EXPECT_EQ(registry.counterValue("dram.row_hits") +
                  registry.counterValue("dram.row_misses") +
                  registry.counterValue("dram.row_conflicts"),
              registry.counterValue("dram.accesses"));
    // Service time floors at row-hit latency per access.
    const mem::DramParams &d = model.memConfig().dram;
    EXPECT_GE(static_cast<double>(
                  registry.counterValue("dram.service_ns")),
              static_cast<double>(
                  registry.counterValue("dram.accesses")) *
                  d.row_hit_ns -
                  1.0);
}

TEST(MemDramStudy, StudyIsJobAndEngineInvariant)
{
    core::AdaptiveCacheModel model;
    model.setMemConfig(parseOrDie("dram"));
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("gcc")};
    core::CacheStudy serial = core::runCacheStudy(model, apps, 25000, 8, 1);
    core::CacheStudy fanned =
        reference::runCacheStudy(model, apps, 25000, 8, 3);
    ASSERT_EQ(serial.perf.size(), fanned.perf.size());
    for (size_t a = 0; a < serial.perf.size(); ++a) {
        for (size_t c = 0; c < serial.perf[a].size(); ++c) {
            EXPECT_EQ(serial.perf[a][c].tpi_ns,
                      fanned.perf[a][c].tpi_ns);
        }
    }
}

TEST(MemDramStudy, OnePassSweepIsExactUnderDram)
{
    // Every counter a per-boundary dram evaluation records; beside
    // them it keeps only the path-dependent cache.service_way
    // histogram, which one pass does not reconstruct.
    const std::vector<std::string> counters = {
        "cache.refs",         "cache.l1_hits",   "cache.l2_hits",
        "cache.misses",       "cache.writebacks", "cache.swaps",
        "dram.accesses",      "dram.row_hits",   "dram.row_misses",
        "dram.row_conflicts", "dram.service_ns", "dram.queue_ns",
        "mshr.allocs",        "mshr.merges",     "mshr.full_stalls",
        "mshr.stall_ns"};
    constexpr uint64_t kRefs = 20000;
    for (const char *spec : {"dram", "dram:banks=2,mshr=2,policy=closed"}) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(parseOrDie(spec));
        for (const trace::AppProfile &app : trace::cacheStudyApps()) {
            SCOPED_TRACE(std::string(spec) + " " + app.name);
            obs::CounterRegistry swept_registry;
            obs::DecisionTrace swept_trace;
            std::vector<core::CachePerf> swept = model.sweepObserved(
                app, 8, kRefs, &swept_trace, &swept_registry);
            ASSERT_EQ(swept.size(), 8u);

            obs::CounterRegistry registry;
            obs::DecisionTrace trace;
            for (int k = 1; k <= 8; ++k) {
                // evaluateObserved() is evaluate() with observers,
                // which never change the result.
                core::CachePerf want = model.evaluateObserved(
                    app, k, kRefs, &trace, &registry);
                const core::CachePerf &got = swept[k - 1];
                EXPECT_EQ(got.l1_increments, want.l1_increments) << k;
                EXPECT_EQ(got.refs, want.refs) << k;
                EXPECT_EQ(got.instructions, want.instructions) << k;
                EXPECT_EQ(got.l1_miss_ratio, want.l1_miss_ratio) << k;
                EXPECT_EQ(got.global_miss_ratio, want.global_miss_ratio)
                    << k;
                EXPECT_EQ(got.tpi_ns, want.tpi_ns) << k;
                EXPECT_EQ(got.tpi_miss_ns, want.tpi_miss_ns) << k;
            }
            ASSERT_EQ(swept_trace.size(), trace.size());
            for (size_t i = 0; i < trace.size(); ++i)
                EXPECT_EQ(swept_trace.events()[i].duration_ns,
                          trace.events()[i].duration_ns);

            EXPECT_EQ(registry.counterCount(), counters.size());
            EXPECT_GT(registry.counterValue("dram.accesses"), 0u);
            for (const std::string &name : counters)
                EXPECT_EQ(swept_registry.counterValue(name),
                          registry.counterValue(name))
                    << name;
            EXPECT_EQ(swept_registry.counterValue("stacksim.sweeps"), 1u);
        }
    }
}

TEST(MemDramStudy, CacheSweepCliMatchesPerBoundaryReference)
{
    // The offline verb's bytes under each backend equal the rendered
    // rows of one hierarchy per (app, boundary): the one-pass sweep
    // behind the verb reconstructs every boundary exactly.
    const uint64_t refs = 40000;
    std::vector<std::string> names;
    for (const trace::AppProfile &app : trace::cacheStudyApps())
        names.push_back(app.name);
    for (const char *spec :
         {"flat", "dram", "dram:banks=2,mshr=2,policy=closed"}) {
        SCOPED_TRACE(spec);
        core::AdaptiveCacheModel model;
        model.setMemConfig(parseOrDie(spec));
        core::CacheStudy want = reference::runCacheStudy(
            model, trace::cacheStudyApps(), refs, 8, 4);
        std::ostringstream rendered;
        serve::renderCacheSweep(rendered, names, want.perf, refs);
        EXPECT_EQ(runCli({"cache-sweep", "all", "--refs",
                          std::to_string(refs), "--mem", spec}),
                  rendered.str());
    }
}

TEST(MemDramStudy, MissCostBecomesPhaseDependent)
{
    // Under flat every miss costs the same; under dram its cost
    // depends on row locality and overlap, so the interval oracle
    // can prefer a different boundary in some interval.  One
    // application suffices; scan the cache suite for a divergence.
    core::AdaptiveCacheModel flat_model;
    core::AdaptiveCacheModel dram_model;
    dram_model.setMemConfig(
        parseOrDie("dram:banks=2,mshr=2,hit=10,miss=40,conflict=80"));
    std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    bool diverged = false;
    for (const trace::AppProfile &app : trace::cacheStudyApps()) {
        core::CacheIntervalResult flat = core::runCacheIntervalOracle(
            flat_model, app, 40000, boundaries, 4000, true);
        core::CacheIntervalResult dram = core::runCacheIntervalOracle(
            dram_model, app, 40000, boundaries, 4000, true);
        if (flat.boundary_trace != dram.boundary_trace) {
            diverged = true;
            break;
        }
    }
    EXPECT_TRUE(diverged);
}

TEST(MemDramStudy, ConcertHonoursTheBackend)
{
    std::vector<trace::AppProfile> apps = {trace::findApp("li")};
    core::ConcertStudy flat = core::runConcertStudy(apps, 20000);
    core::ConcertStudy dram =
        core::runConcertStudy(apps, 20000, parseOrDie("dram"));
    ASSERT_EQ(flat.perf.size(), dram.perf.size());
    bool any_diff = false;
    for (size_t c = 0; c < flat.perf[0].size(); ++c)
        any_diff |= flat.perf[0][c].tpi_ns != dram.perf[0][c].tpi_ns;
    EXPECT_TRUE(any_diff);
}

TEST(MemDramStudy, IntervalTraceCarriesMemStallAndRoundTrips)
{
    const trace::AppProfile &app = trace::findApp("compress");
    std::vector<int> boundaries = {1, 4, 8};

    core::AdaptiveCacheModel dram_model;
    dram_model.setMemConfig(parseOrDie("dram"));
    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    obs::Hooks hooks{&trace, &registry};
    core::runCacheIntervalOracle(dram_model, app, 40000, boundaries,
                                 4000, true,
                                 core::kClockSwitchPenaltyCycles, 1,
                                 hooks);

    double total_stall = 0.0;
    for (const obs::TraceEvent &e : trace.events())
        if (e.kind == obs::EventKind::Interval)
            total_stall += e.mem_stall_ns;
    EXPECT_GT(total_stall, 0.0);

    std::ostringstream os;
    trace.writeJsonl(os);
    EXPECT_NE(os.str().find("\"mem_stall_ns\""), std::string::npos);
    std::istringstream is(os.str());
    obs::DecisionTrace back;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, back, error)) << error;
    ASSERT_EQ(back.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_DOUBLE_EQ(back.events()[i].mem_stall_ns,
                         trace.events()[i].mem_stall_ns);

    // Flat traces never carry the field (byte-identity with pre-dram
    // output depends on the omission).
    core::AdaptiveCacheModel flat_model;
    obs::DecisionTrace flat_trace;
    obs::CounterRegistry flat_registry;
    obs::Hooks flat_hooks{&flat_trace, &flat_registry};
    core::runCacheIntervalOracle(flat_model, app, 40000, boundaries,
                                 4000, true,
                                 core::kClockSwitchPenaltyCycles, 1,
                                 flat_hooks);
    std::ostringstream flat_os;
    flat_trace.writeJsonl(flat_os);
    EXPECT_EQ(flat_os.str().find("mem_stall_ns"), std::string::npos);
}

// ---------------------------------------------------------------------
// Serve: the memory config is part of the dram cell key.
// ---------------------------------------------------------------------

serve::JobSpec
cacheJob(const std::string &mem_spec)
{
    serve::JobSpec spec;
    spec.kind = serve::JobKind::CacheSweep;
    spec.apps = {"li"};
    if (!mem_spec.empty())
        spec.mem = parseOrDie(mem_spec);
    return spec;
}

TEST(MemServe, DramChangesTheCellKeyFlatDoesNot)
{
    const trace::AppProfile &app = trace::findApp("li");
    uint64_t flat_default = serve::cellKey(cacheJob(""), app);
    uint64_t flat_explicit = serve::cellKey(cacheJob("flat"), app);
    uint64_t dram = serve::cellKey(cacheJob("dram"), app);
    uint64_t dram_tuned =
        serve::cellKey(cacheJob("dram:banks=2"), app);
    // A cached flat row keeps its pre-dram key...
    EXPECT_EQ(flat_default, flat_explicit);
    // ...and can never answer a dram query, nor one dram config
    // another.
    EXPECT_NE(flat_default, dram);
    EXPECT_NE(dram, dram_tuned);
}

TEST(MemServe, JobParsesMemAndRejectsSampledDram)
{
    auto parseJob = [](const std::string &text, serve::JobSpec &spec,
                       std::string &error) {
        json::Value parsed;
        EXPECT_TRUE(json::parse(text, parsed, error)) << error;
        return serve::jobFromJson(parsed, spec, error);
    };

    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                             "mem": "dram:banks=4"})",
                         spec, error))
        << error;
    EXPECT_TRUE(spec.mem.isDram());
    EXPECT_EQ(spec.mem.dram.banks, 4u);

    serve::JobSpec rejected;
    EXPECT_FALSE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                              "sampled": true, "mem": "dram"})",
                          rejected, error));
    EXPECT_NE(error.find("mem=flat"), std::string::npos);

    serve::JobSpec bad_spec;
    EXPECT_FALSE(parseJob(R"({"kind": "cache-sweep", "apps": "li",
                              "mem": "sdram"})",
                          bad_spec, error));
}

// ---------------------------------------------------------------------
// Golden bits: every cache-side model's exact output under the default
// dram backend and under flat, pinned as IEEE bit patterns
// (json::doubleBits, golden.h).  The miss clock and trace walk these
// models share must reproduce them bit for bit.
// ---------------------------------------------------------------------

constexpr uint64_t kGoldenRefs = 20000;

using golden::Golden;
using golden::joinInts;

/** The two backends every golden case runs under. */
const std::vector<std::pair<std::string, mem::MemConfig>> &
goldenBackends()
{
    static const std::vector<std::pair<std::string, mem::MemConfig>>
        backends = {{"flat", mem::MemConfig{}},
                    {"dram", parseOrDie("dram")}};
    return backends;
}

TEST(MemGolden, AdaptiveEvaluate)
{
    const trace::AppProfile &app = trace::findApp("compress");
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        for (int k : {2, 6}) {
            core::CachePerf perf = model.evaluate(app, k, kGoldenRefs);
            std::string tag = name + "." + std::to_string(k);
            golden.add(tag + ".instructions", perf.instructions);
            golden.add(tag + ".l1_miss_ratio", perf.l1_miss_ratio);
            golden.add(tag + ".global_miss_ratio", perf.global_miss_ratio);
            golden.add(tag + ".tpi_ns", perf.tpi_ns);
            golden.add(tag + ".tpi_miss_ns", perf.tpi_miss_ns);
        }
    }
    golden.expect({
        "flat.2.instructions=222222",
        "flat.2.l1_miss_ratio=4588879789914383712",
        "flat.2.global_miss_ratio=4584758095535414234",
        "flat.2.tpi_ns=4600587553012133550",
        "flat.2.tpi_miss_ns=4593471723122640798",
        "flat.6.instructions=222222",
        "flat.6.l1_miss_ratio=4584758095535414234",
        "flat.6.global_miss_ratio=4584758095535414234",
        "flat.6.tpi_ns=4601300961645333154",
        "flat.6.tpi_miss_ns=4590973752218043896",
        "dram.2.instructions=222222",
        "dram.2.l1_miss_ratio=4588879789914383712",
        "dram.2.global_miss_ratio=4584758095535414234",
        "dram.2.tpi_ns=4600137793249586401",
        "dram.2.tpi_miss_ns=4591672684072452201",
        "dram.6.instructions=222222",
        "dram.6.l1_miss_ratio=4584758095535414234",
        "dram.6.global_miss_ratio=4584758095535414234",
        "dram.6.tpi_ns=4600827732345363152",
        "dram.6.tpi_miss_ns=4588993649745792348",
    });
}

TEST(MemGolden, AdaptiveEvaluateObservedFoldsCounters)
{
    const trace::AppProfile &app = trace::findApp("compress");
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        obs::DecisionTrace trace;
        obs::CounterRegistry registry;
        core::CachePerf perf =
            model.evaluateObserved(app, 3, kGoldenRefs, &trace, &registry);
        golden.add(name + ".tpi_ns", perf.tpi_ns);
        golden.add(name + ".tpi_miss_ns", perf.tpi_miss_ns);
        ASSERT_EQ(trace.size(), 1u);
        golden.add(name + ".cell.duration_ns",
                   trace.events()[0].duration_ns);
        for (const char *counter :
             {"cache.refs", "cache.l1_hits", "cache.l2_hits",
              "cache.misses", "cache.writebacks", "cache.swaps",
              "dram.accesses", "dram.row_hits", "dram.row_misses",
              "dram.row_conflicts", "dram.service_ns", "dram.queue_ns",
              "mshr.allocs", "mshr.merges", "mshr.full_stalls",
              "mshr.stall_ns"})
            golden.add(name + "." + counter,
                       registry.counterValue(counter));
    }
    golden.expect({
        "flat.tpi_ns=4600306915188869317",
        "flat.tpi_miss_ns=4591011270470235034",
        "flat.cell.duration_ns=4680361217080600590",
        "flat.cache.refs=20000",
        "flat.cache.l1_hits=19362",
        "flat.cache.l2_hits=0",
        "flat.cache.misses=638",
        "flat.cache.writebacks=0",
        "flat.cache.swaps=0",
        "flat.dram.accesses=0",
        "flat.dram.row_hits=0",
        "flat.dram.row_misses=0",
        "flat.dram.row_conflicts=0",
        "flat.dram.service_ns=0",
        "flat.dram.queue_ns=0",
        "flat.mshr.allocs=0",
        "flat.mshr.merges=0",
        "flat.mshr.full_stalls=0",
        "flat.mshr.stall_ns=0",
        "dram.tpi_ns=4599824306325851530",
        "dram.tpi_miss_ns=4588993649745792348",
        "dram.cell.duration_ns=4679952104887464227",
        "dram.cache.refs=20000",
        "dram.cache.l1_hits=19362",
        "dram.cache.l2_hits=0",
        "dram.cache.misses=638",
        "dram.cache.writebacks=0",
        "dram.cache.swaps=0",
        "dram.dram.accesses=638",
        "dram.dram.row_hits=499",
        "dram.dram.row_misses=8",
        "dram.dram.row_conflicts=131",
        "dram.dram.service_ns=13620",
        "dram.dram.queue_ns=0",
        "dram.mshr.allocs=638",
        "dram.mshr.merges=0",
        "dram.mshr.full_stalls=0",
        "dram.mshr.stall_ns=13620",
    });
}

void
addIntervalResult(Golden &golden, const std::string &tag,
                  const core::CacheIntervalResult &result)
{
    golden.add(tag + ".refs", result.refs);
    golden.add(tag + ".instructions", result.instructions);
    golden.add(tag + ".total_time_ns", result.total_time_ns);
    golden.add(tag + ".reconfigurations",
               static_cast<uint64_t>(result.reconfigurations));
    golden.add(tag + ".committed_moves",
               static_cast<uint64_t>(result.committed_moves));
    golden.add(tag + ".boundaries", joinInts(result.boundary_trace));
}

TEST(MemGolden, IntervalAdaptiveCacheRun)
{
    trace::AppProfile app = trace::phasedCacheDemo();
    core::CacheIntervalParams params;
    params.probe_period = 4;
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        core::IntervalAdaptiveCache controller(model, params);
        addIntervalResult(golden, name,
                          controller.run(app, 3 * kGoldenRefs, 4));
    }
    golden.expect({
        "flat.refs=60000",
        "flat.instructions=150000",
        "flat.total_time_ns=4677034015154109691",
        "flat.reconfigurations=27",
        "flat.committed_moves=3",
        "flat.boundaries=4,4,4,5,4,4,4,3,4,4,4,5,4,4,4,3,4,4,4,5,4,4,4,3,3,3,3,4,3,3,3,2,3,3,3,4,3,3,3,2,2,2,2,3,2,2,2,1,2,2,2,3,2,2,2,1,1,1,1,2",
        "dram.refs=60000",
        "dram.instructions=150000",
        "dram.total_time_ns=4676570385419059430",
        "dram.reconfigurations=27",
        "dram.committed_moves=3",
        "dram.boundaries=4,4,4,5,4,4,4,3,4,4,4,5,4,4,4,3,4,4,4,5,4,4,4,3,3,3,3,4,3,3,3,2,3,3,3,4,3,3,3,2,2,2,2,3,2,2,2,1,2,2,2,3,2,2,2,1,1,1,1,2",
    });
}

TEST(MemGolden, PhasePredictiveCacheRun)
{
    trace::AppProfile app = trace::phasedCacheDemo();
    core::PhasePredictorParams params;
    params.probe_period = 4;
    params.min_stable_intervals = 3;
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        core::PhasePredictiveCache controller(model, params);
        addIntervalResult(golden, name,
                          controller.run(app, 3 * kGoldenRefs, 4));
    }
    golden.expect({
        "flat.refs=60000",
        "flat.instructions=150000",
        "flat.total_time_ns=4676655748918142131",
        "flat.reconfigurations=17",
        "flat.committed_moves=3",
        "flat.boundaries=4,4,4,4,4,4,4,4,5,4,4,4,3,3,3,3,4,3,3,3,2,2,2,2,3,2,2,2,1,1,1,1,2,1,1,1,1,1,1,1,2,1,1,1,1,1,1,1,2,1,1,1,1,1,1,1,2,1,1,1",
        "dram.refs=60000",
        "dram.instructions=150000",
        "dram.total_time_ns=4676192376577448938",
        "dram.reconfigurations=17",
        "dram.committed_moves=3",
        "dram.boundaries=4,4,4,4,4,4,4,4,5,4,4,4,3,3,3,3,4,3,3,3,2,2,2,2,3,2,2,2,1,1,1,1,2,1,1,1,1,1,1,1,2,1,1,1,1,1,1,1,2,1,1,1,1,1,1,1,2,1,1,1",
    });
}

/** runCacheIntervalOracle's golden lines under both backends. */
Golden
cacheIntervalOracleGolden()
{
    const trace::AppProfile &app = trace::findApp("compress");
    std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        // 30000 refs in 4000-ref intervals: seven full intervals and
        // a 2000-ref tail.
        obs::DecisionTrace trace;
        obs::CounterRegistry registry;
        core::CacheIntervalResult result = core::runCacheIntervalOracle(
            model, app, 30000, boundaries, 4000, true,
            core::kClockSwitchPenaltyCycles, 1, {&trace, &registry});
        addIntervalResult(golden, name, result);
        for (const obs::TraceEvent &e : trace.events()) {
            if (e.kind != obs::EventKind::Interval)
                continue;
            std::string tag =
                name + ".interval" + std::to_string(e.interval);
            golden.add(tag + ".duration_ns", e.duration_ns);
            golden.add(tag + ".mem_stall_ns", e.mem_stall_ns);
        }
    }
    return golden;
}

TEST(MemGolden, CacheIntervalOracleLanes)
{
    // The table the per-boundary lanes and the one-pass walk both
    // produced, mem_stall_ns included.
    const std::vector<std::string> want = {
        "flat.refs=30000",
        "flat.instructions=333330",
        "flat.total_time_ns=4682455797021577534",
        "flat.reconfigurations=1",
        "flat.committed_moves=0",
        "flat.boundaries=2,3,3,3,3,3,3,3",
        "flat.interval0.duration_ns=4673039047726170159",
        "flat.interval0.mem_stall_ns=0",
        "flat.interval1.duration_ns=4669860931134657900",
        "flat.interval1.mem_stall_ns=0",
        "flat.interval2.duration_ns=4668579107542967218",
        "flat.interval2.mem_stall_ns=0",
        "flat.interval3.duration_ns=4668309249944716547",
        "flat.interval3.mem_stall_ns=0",
        "flat.interval4.duration_ns=4668123722845919214",
        "flat.interval4.mem_stall_ns=0",
        "flat.interval5.duration_ns=4668089990646137879",
        "flat.interval5.mem_stall_ns=0",
        "flat.interval6.duration_ns=4668073124546247212",
        "flat.interval6.mem_stall_ns=0",
        "flat.interval7.duration_ns=4663603257118658050",
        "flat.interval7.mem_stall_ns=0",
        "dram.refs=30000",
        "dram.instructions=333330",
        "dram.total_time_ns=4682065698465092283",
        "dram.reconfigurations=1",
        "dram.committed_moves=0",
        "dram.boundaries=2,3,3,3,3,3,3,3",
        "dram.interval0.duration_ns=4671973512026736312",
        "dram.interval0.mem_stall_ns=4667105252757995520",
        "dram.interval1.duration_ns=4669211119080995371",
        "dram.interval1.mem_stall_ns=4656770393212715008",
        "dram.interval2.duration_ns=4668353500011330091",
        "dram.interval2.mem_stall_ns=4647679631074263040",
        "dram.interval3.duration_ns=4668238051290413612",
        "dram.interval3.mem_stall_ns=4643985272004935680",
        "dram.interval4.duration_ns=4668097863557872171",
        "dram.interval4.mem_stall_ns=4631530004285489152",
        "dram.interval5.duration_ns=4668081370883455531",
        "dram.interval5.mem_stall_ns=4624633867356078080",
        "dram.interval6.duration_ns=4668073124546247212",
        "dram.interval6.mem_stall_ns=0",
        "dram.interval7.duration_ns=4663586017593293355",
        "dram.interval7.mem_stall_ns=4624633867356078080",
    };
    cacheIntervalOracleGolden().expect(want);
}

TEST(MemGolden, AsyncCacheEvaluate)
{
    const trace::AppProfile &app = trace::findApp("compress");
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        core::AsyncCacheModel async_model(model);
        for (int k : {2, 6}) {
            core::AsyncCachePerf perf =
                async_model.evaluate(app, k, kGoldenRefs);
            std::string tag = name + "." + std::to_string(k);
            golden.add(tag + ".avg_access_ns", perf.avg_access_ns);
            golden.add(tag + ".worst_access_ns", perf.worst_access_ns);
            golden.add(tag + ".tpi_ns", perf.tpi_ns);
        }
    }
    golden.expect({
        "flat.2.avg_access_ns=4611583894117912655",
        "flat.2.worst_access_ns=4611902418913725269",
        "flat.2.tpi_ns=4600262116765166924",
        "flat.6.avg_access_ns=4611682955595693359",
        "flat.6.worst_access_ns=4613241992649773284",
        "flat.6.tpi_ns=4599618084814866722",
        "dram.2.avg_access_ns=4611583894117912655",
        "dram.2.worst_access_ns=4611902418913725269",
        "dram.2.tpi_ns=4599814638658713285",
        "dram.6.avg_access_ns=4611682955595693359",
        "dram.6.worst_access_ns=4613241992649773284",
        "dram.6.tpi_ns=4599170606708413083",
    });
}

TEST(MemGolden, LatencyAdaptiveEvaluate)
{
    const trace::AppProfile &app = trace::findApp("compress");
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        core::LatencyAdaptiveCache latency(model);
        for (int k : {2, 6}) {
            core::CachePerf perf = latency.evaluate(app, k, kGoldenRefs);
            std::string tag = name + "." + std::to_string(k);
            golden.add(tag + ".tpi_ns", perf.tpi_ns);
            golden.add(tag + ".tpi_miss_ns", perf.tpi_miss_ns);
        }
    }
    core::AdaptiveCacheModel model;
    core::LatencyAdaptiveCache latency(model);
    for (int k = 1; k <= 8; ++k) {
        core::LatencyModeTiming t = latency.timing(k);
        std::string tag = "timing." + std::to_string(k);
        golden.add(tag + ".l1_latency_cycles",
                   static_cast<uint64_t>(t.l1_latency_cycles));
        golden.add(tag + ".l2_hit_cycles", t.l2_hit_cycles);
        golden.add(tag + ".miss_cycles", t.miss_cycles);
    }
    golden.expect({
        "flat.2.tpi_ns=4600712312855994809",
        "flat.2.tpi_miss_ns=4593624781208548800",
        "flat.6.tpi_ns=4600471096666541909",
        "flat.6.tpi_miss_ns=4590976033801851345",
        "dram.2.tpi_ns=4600238513160072944",
        "dram.2.tpi_miss_ns=4591729582424861343",
        "dram.6.tpi_ns=4599997296970620044",
        "dram.6.tpi_miss_ns=4588993649745792348",
        "timing.1.l1_latency_cycles=3",
        "timing.1.l2_hit_cycles=21",
        "timing.1.miss_cycles=47",
        "timing.2.l1_latency_cycles=4",
        "timing.2.l2_hit_cycles=22",
        "timing.2.miss_cycles=47",
        "timing.3.l1_latency_cycles=4",
        "timing.3.l2_hit_cycles=21",
        "timing.3.miss_cycles=47",
        "timing.4.l1_latency_cycles=4",
        "timing.4.l2_hit_cycles=21",
        "timing.4.miss_cycles=47",
        "timing.5.l1_latency_cycles=4",
        "timing.5.l2_hit_cycles=21",
        "timing.5.miss_cycles=47",
        "timing.6.l1_latency_cycles=5",
        "timing.6.l2_hit_cycles=21",
        "timing.6.miss_cycles=47",
        "timing.7.l1_latency_cycles=5",
        "timing.7.l2_hit_cycles=22",
        "timing.7.miss_cycles=47",
        "timing.8.l1_latency_cycles=5",
        "timing.8.l2_hit_cycles=22",
        "timing.8.miss_cycles=47",
    });
}

TEST(MemGolden, ConcertStudy)
{
    std::vector<trace::AppProfile> apps = {trace::findApp("compress")};
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::ConcertStudy study =
            core::runConcertStudy(apps, kGoldenRefs, mem_config);
        std::vector<double> fields;
        for (const core::ConcertPerf &p : study.perf[0]) {
            fields.insert(fields.end(),
                          {p.cycle_ns, p.tpi_ns, p.base_ns, p.cache_miss_ns,
                           p.tlb_walk_ns, p.mispredict_ns});
        }
        golden.digest(name + ".fields", fields);
        golden.add(name + ".best_conventional",
                   static_cast<uint64_t>(study.selection.best_conventional));
        // The first joint configuration of each boundary, in full.
        for (const core::ConcertPerf &p : study.perf[0]) {
            if (p.config.tlb_entries != study.configs[0].tlb_entries ||
                p.config.bpred_entries != study.configs[0].bpred_entries)
                continue;
            std::string tag =
                name + "." + std::to_string(p.config.cache_boundary);
            golden.add(tag + ".cache_miss_ns", p.cache_miss_ns);
            golden.add(tag + ".tlb_walk_ns", p.tlb_walk_ns);
        }
    }
    golden.expect({
        "flat.fields=1980995439678773575",
        "flat.best_conventional=40",
        "flat.1.cache_miss_ns=4598771306041698296",
        "flat.1.tlb_walk_ns=4576164851532902990",
        "flat.2.cache_miss_ns=4593471714315338339",
        "flat.2.tlb_walk_ns=4576199566222613510",
        "flat.3.cache_miss_ns=4591011264123385227",
        "flat.3.tlb_walk_ns=4576184898866118358",
        "flat.4.cache_miss_ns=4590936580451250084",
        "flat.4.tlb_walk_ns=4576319538570712093",
        "flat.5.cache_miss_ns=4590975674733027580",
        "flat.5.tlb_walk_ns=4576218452633357010",
        "flat.6.cache_miss_ns=4590973745908712342",
        "flat.6.tlb_walk_ns=4576291364780193654",
        "flat.7.cache_miss_ns=4590930793978304369",
        "flat.7.tlb_walk_ns=4576339585903927460",
        "flat.8.cache_miss_ns=4591052898884424954",
        "flat.8.tlb_walk_ns=4576363116004558430",
        "dram.fields=11222873689831229549",
        "dram.best_conventional=40",
        "dram.1.cache_miss_ns=4598297506819576127",
        "dram.1.tlb_walk_ns=4576164851532902990",
        "dram.2.cache_miss_ns=4591672677064188792",
        "dram.2.tlb_walk_ns=4576199566222613510",
        "dram.3.cache_miss_ns=4588993640912963639",
        "dram.3.tlb_walk_ns=4576184898866118358",
        "dram.4.cache_miss_ns=4588993640912963640",
        "dram.4.tlb_walk_ns=4576319538570712093",
        "dram.5.cache_miss_ns=4588993640912963639",
        "dram.5.tlb_walk_ns=4576218452633357010",
        "dram.6.cache_miss_ns=4588993640912963639",
        "dram.6.tlb_walk_ns=4576291364780193654",
        "dram.7.cache_miss_ns=4588993640912963639",
        "dram.7.tlb_walk_ns=4576339585903927460",
        "dram.8.cache_miss_ns=4588993640912963636",
        "dram.8.tlb_walk_ns=4576363116004558430",
    });
}

TEST(MemGolden, Multiprogram)
{
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("compress")};
    Golden golden;
    for (const auto &[name, mem_config] : goldenBackends()) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(mem_config);
        core::MultiprogramParams fixed;
        fixed.quantum_refs = 5000;
        fixed.boundaries = {2, 6};
        core::MultiprogramParams adaptive;
        adaptive.quantum_refs = 5000;
        adaptive.profile_refs = 10000;
        for (const auto &[policy, params] :
             {std::pair{"fixed", fixed}, std::pair{"adaptive", adaptive}}) {
            core::MultiprogramResult result =
                core::runMultiprogram(model, apps, kGoldenRefs, params);
            std::string tag = name + "." + policy;
            golden.add(tag + ".switches",
                       static_cast<uint64_t>(result.switches));
            golden.add(tag + ".switch_overhead_ns",
                       result.switch_overhead_ns);
            golden.add(tag + ".total_time_ns", result.total_time_ns);
            for (const core::MultiprogramAppResult &a : result.apps) {
                golden.add(tag + "." + a.name + ".boundary",
                           static_cast<uint64_t>(a.boundary));
                golden.add(tag + "." + a.name + ".instructions",
                           a.instructions);
                golden.add(tag + "." + a.name + ".time_ns", a.time_ns);
            }
        }
    }
    golden.expect({
        "flat.fixed.switches=7",
        "flat.fixed.switch_overhead_ns=4667569082781628935",
        "flat.fixed.total_time_ns=4683058377296482841",
        "flat.fixed.li.boundary=2",
        "flat.fixed.li.instructions=57140",
        "flat.fixed.li.time_ns=4672021154845550614",
        "flat.fixed.compress.boundary=6",
        "flat.fixed.compress.instructions=222220",
        "flat.fixed.compress.time_ns=4680692458517407955",
        "flat.adaptive.switches=7",
        "flat.adaptive.switch_overhead_ns=4666739207694904854",
        "flat.adaptive.total_time_ns=4682065679328144577",
        "flat.adaptive.li.boundary=1",
        "flat.adaptive.li.instructions=57140",
        "flat.adaptive.li.time_ns=4671848084519971022",
        "flat.adaptive.compress.boundary=3",
        "flat.adaptive.compress.instructions=222220",
        "flat.adaptive.compress.time_ns=4679846762516305099",
        "dram.fixed.switches=7",
        "dram.fixed.switch_overhead_ns=4667569082781628935",
        "dram.fixed.total_time_ns=4682427694429912409",
        "dram.fixed.li.boundary=2",
        "dram.fixed.li.instructions=57140",
        "dram.fixed.li.time_ns=4671044934156571268",
        "dram.fixed.compress.boundary=6",
        "dram.fixed.compress.instructions=222220",
        "dram.fixed.compress.time_ns=4680305830823082359",
        "dram.adaptive.switches=7",
        "dram.adaptive.switch_overhead_ns=4666739207694904854",
        "dram.adaptive.total_time_ns=4681421781318414491",
        "dram.adaptive.li.boundary=1",
        "dram.adaptive.li.instructions=57140",
        "dram.adaptive.li.time_ns=4670838644334139890",
        "dram.adaptive.compress.boundary=3",
        "dram.adaptive.compress.instructions=222220",
        "dram.adaptive.compress.time_ns=4679455224553032795",
    });
}

} // namespace
} // namespace cap
