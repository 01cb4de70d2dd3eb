/**
 * @file
 * Differential tests of the one-pass counterfactual instruction-queue
 * sweep (src/ooo/window_sweep.*) and the file-backed uop trace path:
 * every WindowSweeper lane must be bit-identical to an independent
 * CoreModel run of the same queue size, the one-pass study/sampler
 * paths must match the per-config reference engines
 * (tests/reference.h) and per-size sampling byte for byte, and a
 * recorded uop trace must round-trip to the synthetic generator
 * (docs/PERF.md).
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_iq.h"
#include "core/experiment.h"
#include "core/machine.h"
#include "obs/decision_trace.h"
#include "obs/registry.h"
#include "ooo/core_model.h"
#include "ooo/stream.h"
#include "ooo/uop_file.h"
#include "ooo/window_sweep.h"
#include "reference.h"
#include "sample/sampler.h"
#include "sample/study.h"
#include "trace/workloads.h"

namespace cap {
namespace {

ooo::CoreParams
studyParams(int entries)
{
    ooo::CoreParams params;
    params.queue_entries = entries;
    params.dispatch_width = core::IqMachine::kDispatchWidth;
    params.issue_width = core::IqMachine::kIssueWidth;
    return params;
}

void
expectIqPerfEq(const core::IqPerf &a, const core::IqPerf &b,
               const std::string &where)
{
    EXPECT_EQ(a.entries, b.entries) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.ipc, b.ipc) << where;
    EXPECT_EQ(a.tpi_ns, b.tpi_ns) << where;
}

void
expectMeasEq(const sample::IqRepMeasurement &a,
             const sample::IqRepMeasurement &b, const std::string &where)
{
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.warmup_instrs, b.warmup_instrs) << where;
}

// ---------------------------------------------------------------------
// WindowLane vs CoreModel
// ---------------------------------------------------------------------

TEST(WindowSweepTest, LanesMatchCoreModelAtEverySize)
{
    const uint64_t instrs = 40000;
    const uint64_t interval = core::kIntervalInstructions;
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    for (const char *name : {"li", "fpppp", "vortex", "turb3d"}) {
        const trace::AppProfile &app = trace::findApp(name);
        ooo::InstructionStream stream(app.ilp, app.seed);
        ooo::WindowSweeper sweeper(stream, studyParams(sizes.front()),
                                   sizes);
        ASSERT_EQ(sweeper.laneCount(), sizes.size());
        for (size_t l = 0; l < sweeper.laneCount(); ++l)
            for (uint64_t t = interval; t <= instrs; t += interval)
                sweeper.addLaneMark(l, t);
        sweeper.advanceAllTo(instrs);

        for (size_t l = 0; l < sweeper.laneCount(); ++l) {
            std::string where = std::string(name) + " Q=" +
                                std::to_string(sweeper.laneEntries(l));
            ooo::InstructionStream ref_stream(app.ilp, app.seed);
            ooo::CoreModel model(ref_stream,
                                 studyParams(sweeper.laneEntries(l)));
            obs::CounterRegistry model_reg;
            model.attachMetrics(model_reg);

            // Chunk against absolute targets (the evaluateObserved
            // idiom): the lane's mark ticks must hit every interval
            // boundary cycle the model steps through.
            const std::vector<Cycles> &ticks = sweeper.laneMarkTicks(l);
            ASSERT_EQ(ticks.size(), instrs / interval) << where;
            uint64_t done = 0;
            size_t mark = 0;
            while (done < instrs) {
                uint64_t target = done + interval;
                uint64_t issued = model.issuedInstructions();
                if (issued < target)
                    model.step(target - issued);
                ASSERT_EQ(ticks[mark], model.cycleCount())
                    << where << " mark=" << mark;
                ++mark;
                done = target;
            }
            EXPECT_EQ(sweeper.laneCycles(l), model.cycleCount()) << where;
            EXPECT_EQ(sweeper.laneIssued(l), model.issuedInstructions())
                << where;

            obs::CounterRegistry lane_reg;
            sweeper.foldLaneMetrics(l, lane_reg);
            for (const char *counter :
                 {"core.cycles", "core.issued_instructions",
                  "core.dispatched_instructions",
                  "core.dispatch_stall_cycles"}) {
                EXPECT_EQ(lane_reg.counterValue(counter),
                          model_reg.counterValue(counter))
                    << where << " " << counter;
            }
            const obs::FixedHistogram *model_occ =
                model_reg.findHistogram("core.occupancy");
            const obs::FixedHistogram *lane_occ =
                lane_reg.findHistogram("core.occupancy");
            ASSERT_NE(model_occ, nullptr) << where;
            ASSERT_NE(lane_occ, nullptr) << where;
            ASSERT_EQ(lane_occ->binCount(), model_occ->binCount());
            for (size_t b = 0; b < model_occ->binCount(); ++b)
                EXPECT_EQ(lane_occ->binValue(b), model_occ->binValue(b))
                    << where << " bin=" << b;
        }
    }
}

TEST(WindowSweepTest, SeekedBaseMatchesSeekedCoreModel)
{
    // A sweeper built over a mid-stream cursor must match a CoreModel
    // seeked to the same position (the sampler's warmup geometry).
    const trace::AppProfile &app = trace::findApp("compress");
    const uint64_t skip = 3000;
    const uint64_t run = 6000;

    ooo::InstructionStream sweep_stream(app.ilp, app.seed);
    ooo::MicroOp sink[256];
    for (uint64_t left = skip; left > 0;)
        left -= sweep_stream.nextBatch(
            sink, std::min<uint64_t>(left, std::size(sink)));
    ASSERT_EQ(sweep_stream.position(), skip);

    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    ooo::WindowSweeper sweeper(sweep_stream, studyParams(sizes.front()),
                               sizes);
    sweeper.advanceAllTo(run);

    for (size_t l = 0; l < sweeper.laneCount(); ++l) {
        ooo::InstructionStream ref_stream(app.ilp, app.seed);
        for (uint64_t left = skip; left > 0;)
            left -= ref_stream.nextBatch(
                sink, std::min<uint64_t>(left, std::size(sink)));
        ooo::CoreModel model(ref_stream,
                             studyParams(sweeper.laneEntries(l)));
        model.seekTo(skip);
        model.step(sweeper.laneIssued(l));
        std::string where = "Q=" + std::to_string(sweeper.laneEntries(l));
        EXPECT_EQ(sweeper.laneIssued(l), model.issuedInstructions())
            << where;
        EXPECT_EQ(sweeper.laneCycles(l), model.cycleCount()) << where;
    }
}

// ---------------------------------------------------------------------
// Live facade: CoreModel fallback on mid-run reconfiguration
// ---------------------------------------------------------------------

TEST(WindowSweepTest, FallbackStaysExactUnderMidRunReconfig)
{
    const trace::AppProfile &app = trace::findApp("swim");
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    ooo::InstructionStream ref_stream(app.ilp, app.seed);
    ooo::CoreModel model(ref_stream, studyParams(32));

    ooo::InstructionStream sweep_stream(app.ilp, app.seed);
    ooo::WindowSweeper sweeper(sweep_stream, studyParams(32), sizes);
    EXPECT_EQ(sweeper.queueEntries(), 32);

    model.step(5000);
    sweeper.step(5000);
    EXPECT_TRUE(sweeper.onePassActive());
    EXPECT_EQ(sweeper.fallbackReplayedInstrs(), 0u);
    EXPECT_EQ(sweeper.cycleCount(), model.cycleCount());
    EXPECT_EQ(sweeper.issuedInstructions(), model.issuedInstructions());

    // A mid-run shrink drains the queue -- the one-pass lanes cannot
    // model the drain, so the sweeper must replay through a real
    // CoreModel (self-checked against the lane) and track it exactly.
    Cycles model_drain = model.resize(16);
    Cycles sweep_drain = sweeper.resize(16);
    EXPECT_FALSE(sweeper.onePassActive());
    EXPECT_GT(sweeper.fallbackReplayedInstrs(), 0u);
    EXPECT_EQ(sweep_drain, model_drain);
    EXPECT_EQ(sweeper.queueEntries(), model.queueEntries());

    model.step(4000);
    sweeper.step(4000);
    model.stall(123);
    sweeper.stall(123);
    model.step(2000);
    sweeper.step(2000);
    EXPECT_EQ(sweeper.cycleCount(), model.cycleCount());
    EXPECT_EQ(sweeper.issuedInstructions(), model.issuedInstructions());
}

TEST(WindowSweepTest, ResizeBeforeFirstStepStaysOnePass)
{
    const trace::AppProfile &app = trace::findApp("li");
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    ooo::InstructionStream sweep_stream(app.ilp, app.seed);
    ooo::WindowSweeper sweeper(sweep_stream, studyParams(32), sizes);
    EXPECT_EQ(sweeper.resize(64), 0u);
    EXPECT_EQ(sweeper.queueEntries(), 64);
    sweeper.step(5000);
    EXPECT_TRUE(sweeper.onePassActive());

    ooo::InstructionStream ref_stream(app.ilp, app.seed);
    ooo::CoreModel model(ref_stream, studyParams(64));
    model.step(5000);
    EXPECT_EQ(sweeper.cycleCount(), model.cycleCount());
    EXPECT_EQ(sweeper.issuedInstructions(), model.issuedInstructions());
}

// ---------------------------------------------------------------------
// One-pass study vs per-config study
// ---------------------------------------------------------------------

TEST(WindowSweepStudyTest, SweepOnePassMatchesSweep)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("hydro2d");
    const uint64_t instrs = 30000;
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    std::vector<core::IqPerf> fast = model.sweep(app, instrs);
    ASSERT_EQ(fast.size(), sizes.size());
    for (size_t c = 0; c < sizes.size(); ++c)
        expectIqPerfEq(fast[c], model.evaluate(app, sizes[c], instrs),
                       "c=" + std::to_string(c));
}

TEST(WindowSweepStudyTest, OnePassObservedMatchesEvaluateObserved)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("tomcatv");
    const uint64_t instrs = 25000;
    const uint64_t interval = core::kIntervalInstructions;
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    obs::DecisionTrace fast_trace;
    obs::CounterRegistry fast_reg;
    std::vector<core::IqPerf> fast = model.sweepObserved(
        app, instrs, interval, &fast_trace, &fast_reg);

    obs::DecisionTrace slow_trace;
    obs::CounterRegistry slow_reg;
    std::vector<core::IqPerf> slow;
    for (int entries : sizes)
        slow.push_back(model.evaluateObserved(app, entries, instrs,
                                              interval, &slow_trace,
                                              &slow_reg));

    ASSERT_EQ(fast.size(), slow.size());
    for (size_t c = 0; c < slow.size(); ++c)
        expectIqPerfEq(fast[c], slow[c], "c=" + std::to_string(c));

    std::ostringstream fast_jsonl;
    std::ostringstream slow_jsonl;
    fast_trace.writeJsonl(fast_jsonl);
    slow_trace.writeJsonl(slow_jsonl);
    EXPECT_EQ(fast_jsonl.str(), slow_jsonl.str());

    for (const char *counter :
         {"core.cycles", "core.issued_instructions",
          "core.dispatched_instructions", "core.dispatch_stall_cycles"})
        EXPECT_EQ(fast_reg.counterValue(counter),
                  slow_reg.counterValue(counter))
            << counter;
    EXPECT_EQ(fast_reg.counterValue("windowsweep.sweeps"), 1u);
    EXPECT_EQ(fast_reg.counterValue("windowsweep.lanes"), sizes.size());
}

TEST(WindowSweepStudyTest, OnePassStudyMatchesPerConfig)
{
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("fpppp"),
                                           trace::findApp("vortex")};
    const uint64_t instrs = 20000;

    obs::DecisionTrace slow_trace;
    obs::Hooks slow_hooks;
    slow_hooks.trace = &slow_trace;
    core::IqStudy slow =
        reference::runIqStudy(model, apps, instrs, 1, slow_hooks);

    obs::DecisionTrace fast_trace;
    obs::Hooks fast_hooks;
    fast_hooks.trace = &fast_trace;
    core::IqStudy fast =
        core::runIqStudy(model, apps, instrs, 1, fast_hooks);

    ASSERT_EQ(slow.perf.size(), fast.perf.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        ASSERT_EQ(slow.perf[a].size(), fast.perf[a].size());
        for (size_t c = 0; c < slow.perf[a].size(); ++c)
            expectIqPerfEq(slow.perf[a][c], fast.perf[a][c],
                           apps[a].name + " c=" + std::to_string(c));
    }
    EXPECT_EQ(slow.selection.per_app_best, fast.selection.per_app_best);

    // Both engines emit one Interval event per (app, config, interval)
    // in the same order, so the decision-trace JSONL must match byte
    // for byte.
    std::ostringstream slow_jsonl;
    std::ostringstream fast_jsonl;
    slow_trace.writeJsonl(slow_jsonl);
    fast_trace.writeJsonl(fast_jsonl);
    EXPECT_EQ(slow_jsonl.str(), fast_jsonl.str());
}

TEST(WindowSweepStudyTest, OnePassStudyIsJobsInvariant)
{
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("swim"),
                                           trace::findApp("turb3d")};
    const uint64_t instrs = 16000;

    obs::DecisionTrace serial_trace;
    obs::CounterRegistry serial_registry;
    obs::Hooks serial_hooks{&serial_trace, &serial_registry};
    core::IqStudy serial =
        core::runIqStudy(model, apps, instrs, 1, serial_hooks);

    obs::DecisionTrace parallel_trace;
    obs::CounterRegistry parallel_registry;
    obs::Hooks parallel_hooks{&parallel_trace, &parallel_registry};
    core::IqStudy parallel =
        core::runIqStudy(model, apps, instrs, 4, parallel_hooks);

    for (size_t a = 0; a < apps.size(); ++a)
        for (size_t c = 0; c < serial.perf[a].size(); ++c)
            expectIqPerfEq(serial.perf[a][c], parallel.perf[a][c],
                           apps[a].name + " c=" + std::to_string(c));

    std::ostringstream serial_jsonl;
    std::ostringstream parallel_jsonl;
    serial_trace.writeJsonl(serial_jsonl);
    parallel_trace.writeJsonl(parallel_jsonl);
    EXPECT_EQ(serial_jsonl.str(), parallel_jsonl.str());
    EXPECT_EQ(serial_registry.counterValue("core.cycles"),
              parallel_registry.counterValue("core.cycles"));
    EXPECT_EQ(serial_registry.counterValue("windowsweep.sweeps"),
              parallel_registry.counterValue("windowsweep.sweeps"));
}

// ---------------------------------------------------------------------
// Sampled path: one-pass lane chains vs per-config replays
// ---------------------------------------------------------------------

TEST(WindowSweepSampledTest, MeasureRepAllConfigsMatchesMeasureRep)
{
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("li");
    sample::SampleParams params;
    params.interval_len = 2000;
    params.clusters = 5;
    params.warmup_len = 4000;
    sample::IqSampler sampler(model, app, 60000, params);
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    for (size_t r = 0; r < sampler.repCount(); ++r) {
        std::vector<sample::IqRepMeasurement> fast =
            sampler.measureRepAllConfigs(r);
        ASSERT_EQ(fast.size(), sizes.size());
        for (size_t c = 0; c < sizes.size(); ++c)
            expectMeasEq(fast[c], sampler.measureRep(sizes[c], r),
                         "rep=" + std::to_string(r) +
                             " Q=" + std::to_string(sizes[c]));
    }

    std::vector<std::vector<sample::IqRepMeasurement>> all =
        sampler.measureAllConfigs();
    ASSERT_EQ(all.size(), sizes.size());
    for (size_t c = 0; c < sizes.size(); ++c) {
        ASSERT_EQ(all[c].size(), sampler.repCount());
        for (size_t r = 0; r < sampler.repCount(); ++r)
            expectMeasEq(all[c][r], sampler.measureRep(sizes[c], r),
                         "all c=" + std::to_string(c) +
                             " rep=" + std::to_string(r));
    }
}

TEST(WindowSweepSampledTest, MeasureRepReanchorsWarmupOvershoot)
{
    // Regression: a short tail representative can be covered entirely
    // by the warmup's issue overshoot; the window must re-anchor at
    // the overshoot point instead of collapsing to zero cycles.
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("fpppp");
    sample::SampleParams params;
    params.interval_len = 1000;
    params.clusters = 8;
    params.warmup_len = 3000;
    // 5 full intervals plus a 2-instruction tail: the tail interval's
    // nominal length is far below the warmup overshoot bound (the
    // issue width), so whenever the tail is a representative the old
    // step-past-the-window bug yields cycles == 0.
    sample::IqSampler sampler(model, app, 5 * 1000 + 2, params);
    ASSERT_GT(sampler.repCount(), 0u);

    for (size_t r = 0; r < sampler.repCount(); ++r) {
        uint64_t nominal =
            sampler.profile().lengthOf(sampler.plan().reps[r].interval);
        for (int entries : {16, 64, 128}) {
            sample::IqRepMeasurement m = sampler.measureRep(entries, r);
            std::string where = "rep=" + std::to_string(r) +
                                " Q=" + std::to_string(entries);
            EXPECT_EQ(m.instructions, nominal) << where;
            EXPECT_GT(m.cycles, 0u) << where;
        }
        std::vector<sample::IqRepMeasurement> chain =
            sampler.measureRepAllConfigs(r);
        for (size_t c = 0; c < chain.size(); ++c) {
            EXPECT_EQ(chain[c].instructions, nominal) << "chain " << c;
            EXPECT_GT(chain[c].cycles, 0u) << "chain " << c;
        }
    }
}

TEST(WindowSweepSampledTest, SampledStudyOnePassMatchesPerConfig)
{
    // The study scores every size from one chain per representative;
    // IqSampler::evaluate() replays one chain per (size, rep).
    core::AdaptiveIqModel model;
    std::vector<trace::AppProfile> apps = {trace::findApp("li"),
                                           trace::findApp("su2cor")};
    const uint64_t instrs = 50000;
    sample::SampleParams params;
    params.interval_len = 2000;
    params.clusters = 4;
    params.warmup_len = 4000;
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    sample::SampledIqStudy fast =
        sample::runSampledIqStudy(model, apps, instrs, params, 3);

    ASSERT_EQ(fast.perf.size(), apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        sample::IqSampler sampler(model, apps[a], instrs, params);
        ASSERT_EQ(fast.perf[a].size(), sizes.size());
        for (size_t c = 0; c < sizes.size(); ++c) {
            std::string where =
                apps[a].name + " c=" + std::to_string(c);
            sample::SampledIqPerf slow = sampler.evaluate(sizes[c]);
            expectIqPerfEq(slow.perf, fast.perf[a][c].perf, where);
            EXPECT_EQ(slow.tpi_lo_ns, fast.perf[a][c].tpi_lo_ns) << where;
            EXPECT_EQ(slow.tpi_hi_ns, fast.perf[a][c].tpi_hi_ns) << where;
            EXPECT_EQ(slow.simulated_instrs,
                      fast.perf[a][c].simulated_instrs)
                << where;
        }
    }
}

// ---------------------------------------------------------------------
// Uop trace files: round-trip and file-backed sampling
// ---------------------------------------------------------------------

TEST(UopFileTest, RoundTripMatchesStream)
{
    const trace::AppProfile &app = trace::findApp("li");
    const uint64_t count = 5000;
    std::string path = testing::TempDir() + "/capsim_uops_rt.uop";

    ooo::InstructionStream writer(app.ilp, app.seed);
    ASSERT_EQ(ooo::writeUopTraceFile(path, writer, count), count);

    ooo::InstructionStream expect_stream(app.ilp, app.seed);
    ooo::UopFileSource source(path);
    ooo::UopFileSource::Cursor mid{};
    ooo::MicroOp got;
    for (uint64_t i = 0; i < count; ++i) {
        if (i == count / 2)
            mid = source.saveCursor();
        ooo::MicroOp want = expect_stream.next();
        ASSERT_TRUE(source.next(got)) << i;
        ASSERT_EQ(got.src1_dist, want.src1_dist) << i;
        ASSERT_EQ(got.src2_dist, want.src2_dist) << i;
        ASSERT_EQ(got.latency, want.latency) << i;
    }
    EXPECT_FALSE(source.next(got));
    EXPECT_EQ(source.produced(), count);
    EXPECT_EQ(source.skipped(), 0u);

    // Cursor restore resumes the identical op sequence.
    source.restoreCursor(mid);
    EXPECT_EQ(source.position(), count / 2);
    ooo::InstructionStream replay(app.ilp, app.seed);
    for (uint64_t i = 0; i < count / 2; ++i)
        replay.next();
    for (uint64_t i = count / 2; i < count; ++i) {
        ooo::MicroOp want = replay.next();
        ASSERT_TRUE(source.next(got)) << i;
        ASSERT_EQ(got.src1_dist, want.src1_dist) << i;
        ASSERT_EQ(got.src2_dist, want.src2_dist) << i;
        ASSERT_EQ(got.latency, want.latency) << i;
    }
}

TEST(UopFileTest, FileSamplerMatchesSynthetic)
{
    // The recorded round-trip: a sampler over a written uop trace must
    // reproduce the synthetic sampler bit for bit -- profile, plan,
    // and every per-config measurement.
    core::AdaptiveIqModel model;
    const trace::AppProfile &app = trace::findApp("turb3d");
    const uint64_t instrs = 40000;
    std::string path = testing::TempDir() + "/capsim_uops_sampler.uop";
    ooo::InstructionStream writer(app.ilp, app.seed);
    ASSERT_EQ(ooo::writeUopTraceFile(path, writer, instrs), instrs);

    sample::SampleParams params;
    params.interval_len = 2000;
    params.clusters = 4;
    params.warmup_len = 4000;
    sample::IqSampler synthetic(model, app, instrs, params);
    sample::IqSampler file(model, app, path, params);

    ASSERT_EQ(file.profile().total_instrs,
              synthetic.profile().total_instrs);
    ASSERT_EQ(file.profile().signatures.size(),
              synthetic.profile().signatures.size());
    for (size_t i = 0; i < synthetic.profile().signatures.size(); ++i)
        EXPECT_EQ(file.profile().signatures[i].features,
                  synthetic.profile().signatures[i].features)
            << "interval " << i;
    ASSERT_EQ(file.repCount(), synthetic.repCount());
    for (size_t r = 0; r < synthetic.repCount(); ++r) {
        EXPECT_EQ(file.plan().reps[r].interval,
                  synthetic.plan().reps[r].interval);
        EXPECT_EQ(file.plan().reps[r].weight,
                  synthetic.plan().reps[r].weight);
    }

    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    for (size_t r = 0; r < synthetic.repCount(); ++r) {
        std::vector<sample::IqRepMeasurement> file_chain =
            file.measureRepAllConfigs(r);
        std::vector<sample::IqRepMeasurement> syn_chain =
            synthetic.measureRepAllConfigs(r);
        for (size_t c = 0; c < sizes.size(); ++c) {
            std::string where = "rep=" + std::to_string(r) +
                                " Q=" + std::to_string(sizes[c]);
            expectMeasEq(file_chain[c], syn_chain[c], where);
            expectMeasEq(file.measureRep(sizes[c], r),
                         synthetic.measureRep(sizes[c], r), where);
        }
    }
    for (int entries : sizes) {
        sample::SampledIqPerf a = file.evaluate(entries);
        sample::SampledIqPerf b = synthetic.evaluate(entries);
        expectIqPerfEq(a.perf, b.perf, std::to_string(entries));
        EXPECT_EQ(a.tpi_lo_ns, b.tpi_lo_ns);
        EXPECT_EQ(a.tpi_hi_ns, b.tpi_hi_ns);
    }
}

} // namespace
} // namespace cap
