/**
 * @file
 * Tests of the sampled-simulation engine: signature extraction,
 * deterministic k-medoids, plan construction, the checkpoint/warmup
 * replayer, differential accuracy against full simulation, `--jobs`
 * bit-identity of the sampled studies, the sampled oracle, and the
 * `sample.*` observability surface.
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "obs/decision_trace.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "obs/trace_reader.h"
#include "sample/cluster.h"
#include "sample/sampler.h"
#include "sample/signature.h"
#include "sample/study.h"
#include "trace/file_trace.h"
#include "trace/stream.h"
#include "trace/workloads.h"

namespace cap {
namespace {

constexpr uint64_t kRefs = 60000;
constexpr uint64_t kInstrs = 60000;

sample::SampleParams
testParams()
{
    sample::SampleParams params;
    params.interval_len = 2000;
    params.clusters = 6;
    params.warmup_len = 2000;
    // Keep the cold prefix short at test scale so the plans still
    // exercise clustering rather than exact prefix measurement.
    params.cold_prefix_len = 10000;
    return params;
}

// ---------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------

TEST(SignatureTest, CacheProfileCoversTheRunAndSnapshotsCursors)
{
    const trace::AppProfile &app = trace::findApp("li");
    sample::CacheIntervalProfile profile =
        sample::profileCacheIntervals(app.cache, app.seed, 10500, 2000);
    EXPECT_EQ(profile.signatures.size(), 6u); // ceil(10500 / 2000)
    EXPECT_EQ(profile.cursors.size(), profile.signatures.size());
    uint64_t total = 0;
    for (size_t i = 0; i < profile.signatures.size(); ++i)
        total += profile.lengthOf(i);
    EXPECT_EQ(total, 10500u);
    EXPECT_EQ(profile.lengthOf(5), 500u); // short tail interval
    // Cursors record the interval starts.
    EXPECT_EQ(profile.cursors[0].produced, 0u);
    EXPECT_EQ(profile.cursors[3].produced, 6000u);
    // Equal inputs produce equal signatures (determinism).
    sample::CacheIntervalProfile again =
        sample::profileCacheIntervals(app.cache, app.seed, 10500, 2000);
    for (size_t i = 0; i < profile.signatures.size(); ++i)
        EXPECT_EQ(profile.signatures[i].features,
                  again.signatures[i].features);
}

TEST(SignatureTest, IlpProfileIsDeterministicAndDistinguishesPhases)
{
    // turb3d has the paper's strong phase alternation (Figure 12):
    // signatures from different phases must be farther apart than
    // signatures from the same phase.
    const trace::AppProfile &app = trace::findApp("turb3d");
    sample::IlpIntervalProfile profile =
        sample::profileIlpIntervals(app.ilp, app.seed, kInstrs, 2000);
    ASSERT_EQ(profile.signatures.size(), kInstrs / 2000);
    sample::IlpIntervalProfile again =
        sample::profileIlpIntervals(app.ilp, app.seed, kInstrs, 2000);
    for (size_t i = 0; i < profile.signatures.size(); ++i)
        EXPECT_EQ(profile.signatures[i].features,
                  again.signatures[i].features);

    std::vector<sample::IntervalSignature> sigs = profile.signatures;
    sample::normalizeSignatures(sigs);
    // The dataflow-IPC feature (last) separates turb3d's phases into
    // two groups; check the extremes are far apart after z-scoring.
    double lo = sigs[0].features.back();
    double hi = sigs[0].features.back();
    for (const sample::IntervalSignature &sig : sigs) {
        lo = std::min(lo, sig.features.back());
        hi = std::max(hi, sig.features.back());
    }
    EXPECT_GT(hi - lo, 1.0);
}

// ---------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------

TEST(ClusterTest, KMedoidsIsValidAndDeterministic)
{
    const trace::AppProfile &app = trace::findApp("turb3d");
    sample::IlpIntervalProfile profile =
        sample::profileIlpIntervals(app.ilp, app.seed, kInstrs, 2000);
    std::vector<sample::IntervalSignature> sigs = profile.signatures;
    sample::normalizeSignatures(sigs);

    sample::Clustering clustering = sample::kMedoids(sigs, 4, 42, 16);
    ASSERT_EQ(clustering.clusterCount(), 4u);
    ASSERT_EQ(clustering.assignment.size(), sigs.size());
    uint64_t members = 0;
    for (size_t c = 0; c < 4; ++c) {
        EXPECT_GT(clustering.sizes[c], 0u);
        members += clustering.sizes[c];
        // A medoid belongs to its own cluster.
        EXPECT_EQ(clustering.assignment[clustering.medoids[c]],
                  static_cast<int>(c));
    }
    EXPECT_EQ(members, sigs.size());

    sample::Clustering again = sample::kMedoids(sigs, 4, 42, 16);
    EXPECT_EQ(clustering.assignment, again.assignment);
    EXPECT_EQ(clustering.medoids, again.medoids);
}

TEST(ClusterTest, MoreClustersThanPointsDegeneratesToIdentity)
{
    std::vector<sample::IntervalSignature> sigs(3);
    for (size_t i = 0; i < sigs.size(); ++i) {
        sigs[i].index = i;
        sigs[i].features = {static_cast<double>(i)};
    }
    sample::Clustering clustering = sample::kMedoids(sigs, 8, 1, 16);
    ASSERT_EQ(clustering.clusterCount(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(clustering.medoids[i], i);
        EXPECT_EQ(clustering.assignment[i], static_cast<int>(i));
    }
}

TEST(ClusterTest, IdenticalPointsDoNotCrashTheSeeding)
{
    std::vector<sample::IntervalSignature> sigs(5);
    for (size_t i = 0; i < sigs.size(); ++i) {
        sigs[i].index = i;
        sigs[i].features = {1.0, 2.0};
    }
    sample::Clustering clustering = sample::kMedoids(sigs, 2, 7, 16);
    ASSERT_EQ(clustering.clusterCount(), 2u);
    for (uint64_t size : clustering.sizes)
        EXPECT_GT(size, 0u);
}

// ---------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------

TEST(PlanTest, MedoidWeightsCoverTheRunExactly)
{
    const trace::AppProfile &app = trace::findApp("li");
    sample::SampleParams params = testParams();
    sample::CacheSampler sampler(core::AdaptiveCacheModel(), app, kRefs,
                                 params);
    const sample::SamplePlan &plan = sampler.plan();
    EXPECT_EQ(plan.num_intervals,
              (kRefs + params.interval_len - 1) / params.interval_len);
    EXPECT_EQ(plan.prefix_intervals,
              params.cold_prefix_len / params.interval_len);
    uint64_t weight = 0;
    size_t weighted = 0;
    for (const sample::Representative &rep : plan.reps) {
        if (rep.probe) {
            EXPECT_EQ(rep.weight, 0u);
            continue;
        }
        ++weighted;
        weight += rep.weight;
    }
    // One weighted rep per cluster plus one per cold-prefix interval;
    // together they cover the run exactly.
    EXPECT_EQ(weighted,
              plan.clustering.clusterCount() + plan.prefix_intervals);
    EXPECT_EQ(weight, kRefs);
}

TEST(PlanTest, ColdPrefixAnchorsMedoidsOutsideThePrefix)
{
    const trace::AppProfile &app = trace::findApp("li");
    sample::SampleParams params = testParams();
    sample::CacheSampler sampler(core::AdaptiveCacheModel(), app, kRefs,
                                 params);
    const sample::SamplePlan &plan = sampler.plan();
    ASSERT_GT(plan.prefix_intervals, 0u);

    size_t k = plan.clustering.clusterCount();
    uint64_t prefix_weight = 0;
    for (size_t r = 0; r < plan.reps.size(); ++r) {
        const sample::Representative &rep = plan.reps[r];
        if (r < k) {
            // A weighted medoid must represent steady-state intervals.
            if (rep.weight > 0) {
                EXPECT_GE(rep.interval, plan.prefix_intervals);
            }
        } else if (rep.probe) {
            EXPECT_GE(rep.interval, plan.prefix_intervals);
        } else {
            // Cold-prefix reps carry exactly their own interval.
            EXPECT_LT(rep.interval, plan.prefix_intervals);
            EXPECT_EQ(rep.weight, params.interval_len);
            prefix_weight += rep.weight;
        }
    }
    EXPECT_EQ(prefix_weight, params.cold_prefix_len);
}

// ---------------------------------------------------------------------
// Differential accuracy vs full simulation
// ---------------------------------------------------------------------

TEST(SampledCacheTest, MatchesFullRunWithinTolerance)
{
    // Sampling pays a fixed per-configuration cost (cold prefix +
    // per-representative warmup and measurement), so the headline
    // accuracy/speedup trade-off is asserted at a run length where it
    // actually pays off.
    constexpr uint64_t kLongRefs = 2'400'000;
    core::AdaptiveCacheModel model;
    const trace::AppProfile &app = trace::findApp("li");
    sample::SampleParams params; // library defaults
    sample::CacheSampler sampler(model, app, kLongRefs, params);

    double mae = 0.0;
    uint64_t simulated = 0;
    for (int k = 1; k <= 8; ++k) {
        core::CachePerf full = model.evaluate(app, k, kLongRefs);
        sample::SampledCachePerf est = sampler.evaluate(k);
        mae += std::abs(est.perf.tpi_ns - full.tpi_ns) / full.tpi_ns;
        simulated += est.simulated_refs;
        EXPECT_EQ(est.perf.refs, kLongRefs);
        // The stratified CI must bracket the full-run TPI.
        EXPECT_LE(est.tpi_lo_ns, full.tpi_ns) << k;
        EXPECT_GE(est.tpi_hi_ns, full.tpi_ns) << k;
    }
    mae /= 8.0;
    EXPECT_LT(mae, 0.02); // <= 2% mean absolute error
    // >= 5x fewer references through the cache simulator.
    EXPECT_GE(static_cast<double>(kLongRefs) * 8.0,
              5.0 * static_cast<double>(simulated));
}

TEST(SampledIqTest, MatchesFullRunWithinToleranceAndBracketsCi)
{
    constexpr uint64_t kLongInstrs = 400'000;
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("turb3d");
    // Queue state warms fast, so the IQ side runs a short warmup and
    // fine intervals (docs/SAMPLING.md knob table).
    sample::SampleParams params;
    params.interval_len = 2000;
    params.warmup_len = 2000;
    sample::IqSampler sampler(model, app, kLongInstrs, params);

    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    double mae = 0.0;
    uint64_t simulated = 0;
    size_t bracketed = 0;
    for (int entries : sizes) {
        core::IqPerf full = model.evaluate(app, entries, kLongInstrs);
        sample::SampledIqPerf est = sampler.evaluate(entries);
        mae += std::abs(est.perf.tpi_ns - full.tpi_ns) / full.tpi_ns;
        simulated += est.simulated_instrs;
        if (est.tpi_lo_ns <= full.tpi_ns && full.tpi_ns <= est.tpi_hi_ns)
            ++bracketed;
        EXPECT_GT(est.perf.ipc, 0.0);
    }
    mae /= static_cast<double>(sizes.size());
    EXPECT_LT(mae, 0.02);
    EXPECT_GE(static_cast<double>(kLongInstrs) *
                  static_cast<double>(sizes.size()),
              5.0 * static_cast<double>(simulated));
    // The CLT interval must bracket the truth for most configurations
    // (nominal 95%; the probe-based spread is conservative).
    EXPECT_GE(bracketed, sizes.size() - 1);
}

// ---------------------------------------------------------------------
// Sampled studies: determinism across --jobs, trace/metrics surface
// ---------------------------------------------------------------------

TEST(SampledStudyTest, BitIdenticalForEveryJobCount)
{
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("turb3d")};
    sample::SampleParams params = testParams();

    obs::DecisionTrace trace1, trace3;
    obs::CounterRegistry reg1, reg3;
    sample::SampledIqStudy one = sample::runSampledIqStudy(
        model, apps, kInstrs, params, 1, {&trace1, &reg1});
    sample::SampledIqStudy three = sample::runSampledIqStudy(
        model, apps, kInstrs, params, 3, {&trace3, &reg3});

    ASSERT_EQ(one.perf.size(), three.perf.size());
    for (size_t a = 0; a < one.perf.size(); ++a) {
        for (size_t c = 0; c < one.perf[a].size(); ++c) {
            EXPECT_EQ(one.perf[a][c].perf.cycles,
                      three.perf[a][c].perf.cycles);
            EXPECT_EQ(one.perf[a][c].perf.tpi_ns,
                      three.perf[a][c].perf.tpi_ns);
            EXPECT_EQ(one.perf[a][c].tpi_lo_ns,
                      three.perf[a][c].tpi_lo_ns);
        }
    }
    EXPECT_EQ(one.selection.per_app_best, three.selection.per_app_best);

    std::ostringstream jsonl1, jsonl3;
    trace1.writeJsonl(jsonl1);
    trace3.writeJsonl(jsonl3);
    EXPECT_EQ(jsonl1.str(), jsonl3.str());
    std::ostringstream met1, met3;
    reg1.renderJsonFields(met1);
    reg3.renderJsonFields(met3);
    EXPECT_EQ(met1.str(), met3.str());
}

TEST(SampledStudyTest, EmitsRepresentativeRecordsAndCounters)
{
    core::AdaptiveCacheModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li")};
    sample::SampleParams params = testParams();

    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    sample::SampledCacheStudy study = sample::runSampledCacheStudy(
        model, apps, kRefs, params, 8, 2, {&trace, &registry});

    EXPECT_GT(study.perf[0][0].simulated_refs, 0u);
    size_t rep_events = trace.countKind(obs::EventKind::Representative);
    ASSERT_GT(rep_events, 0u);
    EXPECT_EQ(rep_events % 8, 0u); // one record per (config, rep)
    size_t reps_per_config = rep_events / 8;

    // Medoid weights in the trace cover the run, per configuration.
    uint64_t weight_first_config = 0;
    for (const obs::TraceEvent &event : trace.events()) {
        if (event.kind == obs::EventKind::Representative &&
            event.config == "8KB/2way")
            weight_first_config += event.weight;
    }
    EXPECT_EQ(weight_first_config, kRefs);

    EXPECT_GT(registry.counterValue("sample.intervals_profiled"), 0u);
    EXPECT_GT(registry.counterValue("sample.rep_simulations"), 0u);
    // The study replays each app's representative chain once (not
    // once per boundary), so the count is per rep, not per
    // (rep, config).
    EXPECT_EQ(registry.counterValue("sample.rep_simulations"),
              reps_per_config);
    EXPECT_GT(registry.counterValue("stacksim.sweeps"), 0u);
    EXPECT_GT(registry.counterValue("sample.simulated_refs"), 0u);
    EXPECT_EQ(registry.counterValue("sample.simulated_refs"),
              study.simulatedRefs());
}

TEST(SampledStudyTest, RepresentativeRecordsRoundTripThroughJsonl)
{
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li")};
    obs::DecisionTrace trace;
    sample::runSampledIqStudy(model, apps, kInstrs, testParams(), 1,
                              {&trace, nullptr});
    std::ostringstream os;
    trace.writeJsonl(os);

    std::istringstream is(os.str());
    obs::DecisionTrace parsed;
    std::string error;
    ASSERT_TRUE(obs::readTraceJsonl(is, parsed, error)) << error;
    ASSERT_EQ(parsed.size(), trace.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed.events()[i].kind, trace.events()[i].kind);
        EXPECT_EQ(parsed.events()[i].cluster, trace.events()[i].cluster);
        EXPECT_EQ(parsed.events()[i].weight, trace.events()[i].weight);
        EXPECT_EQ(parsed.events()[i].warmup, trace.events()[i].warmup);
    }
}

// ---------------------------------------------------------------------
// Sampled oracle
// ---------------------------------------------------------------------

TEST(SampledOracleTest, WinsOverEveryFixedCandidate)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("turb3d");
    sample::SampleParams params = testParams();
    std::vector<int> candidates = {32, 64, 128};

    core::IntervalRunResult oracle = sample::runSampledIntervalOracle(
        model, app, kInstrs, candidates, params, false, 0, 2);
    EXPECT_EQ(oracle.instructions, kInstrs);
    EXPECT_GT(oracle.total_time_ns, 0.0);
    EXPECT_EQ(oracle.config_trace.size(),
              (kInstrs + params.interval_len - 1) / params.interval_len);

    // Without switch charges the per-cluster argmin can never lose to
    // a fixed candidate reconstructed from the same measurements.
    sample::IqSampler sampler(model, app, kInstrs, params);
    for (int entries : candidates) {
        sample::SampledIqPerf fixed = sampler.evaluate(entries);
        EXPECT_LE(oracle.tpi(), fixed.perf.tpi_ns * (1.0 + 1e-9));
    }

    // Charging switches can only add time.
    core::IntervalRunResult charged = sample::runSampledIntervalOracle(
        model, app, kInstrs, candidates, params, true,
        core::kClockSwitchPenaltyCycles, 2);
    EXPECT_GE(charged.total_time_ns, oracle.total_time_ns);
    EXPECT_EQ(charged.config_trace, oracle.config_trace);
}

// ---------------------------------------------------------------------
// File-backed sampling (gen-trace output feeds the sampler)
// ---------------------------------------------------------------------

TEST(FileBackedSamplingTest, RoundTripsBitIdenticalWithSynthetic)
{
    const trace::AppProfile &app = trace::findApp("li");
    std::string path =
        testing::TempDir() + "sample_roundtrip.din";
    {
        trace::SyntheticTraceSource source(app.cache, app.seed, kRefs);
        ASSERT_EQ(trace::writeTraceFile(path, source, kRefs), kRefs);
    }

    // The file profiler re-reads the exact reference stream the
    // synthetic profiler generated, so signatures must match bit for
    // bit (the din format round-trips address and kind exactly).
    sample::CacheIntervalProfile synth = sample::profileCacheIntervals(
        app.cache, app.seed, kRefs, 2000);
    sample::CacheIntervalProfile file =
        sample::profileCacheIntervalsFromFile(path, 2000);
    EXPECT_EQ(file.trace_path, path);
    EXPECT_EQ(file.total_refs, synth.total_refs);
    ASSERT_EQ(file.signatures.size(), synth.signatures.size());
    EXPECT_EQ(file.file_cursors.size(), file.signatures.size());
    for (size_t i = 0; i < file.signatures.size(); ++i) {
        ASSERT_EQ(file.signatures[i].features.size(),
                  synth.signatures[i].features.size());
        for (size_t f = 0; f < file.signatures[i].features.size(); ++f)
            EXPECT_EQ(file.signatures[i].features[f],
                      synth.signatures[i].features[f])
                << "interval " << i << " feature " << f;
    }

    // Identical signatures must yield the identical plan, and the
    // file-backed replayer (offset fast-forward + stale-state warmup)
    // must reconstruct the same performance as the synthetic one.
    core::AdaptiveCacheModel model;
    sample::SampleParams params = testParams();
    sample::CacheSampler synth_sampler(model, app, kRefs, params);
    sample::CacheSampler file_sampler(model, app, path, params);
    ASSERT_EQ(file_sampler.repCount(), synth_sampler.repCount());
    for (int k : {1, 4, 8}) {
        sample::SampledCachePerf a = synth_sampler.evaluate(k);
        sample::SampledCachePerf b = file_sampler.evaluate(k);
        EXPECT_EQ(a.perf.tpi_ns, b.perf.tpi_ns) << "boundary " << k;
        EXPECT_EQ(a.perf.l1_miss_ratio, b.perf.l1_miss_ratio)
            << "boundary " << k;
        EXPECT_EQ(a.perf.global_miss_ratio, b.perf.global_miss_ratio)
            << "boundary " << k;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace cap
