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

#include <algorithm>
#include <memory>
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
#include "util/rng.h"

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

/**
 * Seeded random op stream for machine shapes the study never uses.
 * Each source is present with probability @p density, at a short
 * distance half the time and anywhere within reach otherwise; one op
 * in twenty has a latency of up to 2000 cycles.  Ends after @p length
 * ops (0 = never).
 */
class RandomOpSource : public ooo::OpSource
{
  public:
    RandomOpSource(uint64_t seed, double density, uint64_t length)
        : rng_(seed), density_(density), length_(length)
    {
    }

    uint64_t nextBatch(ooo::MicroOp *out, uint64_t max) override
    {
        uint64_t n = 0;
        for (; n < max && (length_ == 0 || pos_ < length_); ++n, ++pos_) {
            ooo::MicroOp op;
            op.src1_dist = distance();
            op.src2_dist = distance();
            op.latency = static_cast<uint32_t>(
                rng_.chance(0.05) ? 1 + rng_.below(2000)
                                  : 1 + rng_.below(4));
            out[n] = op;
        }
        return n;
    }

    uint64_t position() const override { return pos_; }

  private:
    uint32_t distance()
    {
        uint64_t reach = std::min<uint64_t>(pos_, ooo::kMaxDepDistance);
        if (reach == 0 || !rng_.chance(density_))
            return 0;
        uint64_t span = rng_.chance(0.5) ? std::min<uint64_t>(reach, 8)
                                         : reach;
        return static_cast<uint32_t>(1 + rng_.below(span));
    }

    Rng rng_;
    double density_;
    uint64_t length_;
    uint64_t pos_ = 0;
};

/** Which way a shape-grid case feeds its op source. */
enum class Feed { FromStart, Seeked, Finite };

/** A shape-grid case's op stream: 2600 ops for a finite feed, and
 *  positioned 300 ops in for a seeked one. */
struct GridStream
{
    GridStream(int dispatch, int issue, double density, Feed feed,
               uint64_t salt)
        : density(density), length(feed == Feed::Finite ? 2600 : 0),
          base(feed == Feed::Seeked ? 300 : 0),
          instrs(length ? length : 4000),
          seed(static_cast<uint64_t>(dispatch * 1000 + issue * 100 +
                                     static_cast<int>(density * 10) * 10 +
                                     static_cast<int>(feed)) +
               salt)
    {
    }

    /** A fresh source at the base index. */
    std::unique_ptr<RandomOpSource> source() const
    {
        auto source = std::make_unique<RandomOpSource>(seed, density, length);
        ooo::MicroOp sink[64];
        for (uint64_t left = base; left > 0;)
            left -= source->nextBatch(
                sink, std::min<uint64_t>(left, std::size(sink)));
        return source;
    }

    /** A CoreModel over a fresh source, seeked to the base, with its
     *  metrics in @p registry. */
    std::unique_ptr<ooo::CoreModel> model(
        std::vector<std::unique_ptr<RandomOpSource>> &sources,
        const ooo::CoreParams &params, obs::CounterRegistry &registry) const
    {
        sources.push_back(source());
        auto model = std::make_unique<ooo::CoreModel>(*sources.back(), params);
        if (base > 0)
            model->seekTo(base);
        model->attachMetrics(registry);
        return model;
    }

    double density;
    uint64_t length;
    uint64_t base;
    uint64_t instrs;
    uint64_t seed;
};

/** The first counter or occupancy bin in which @p lane's folded
 *  metrics differ from @p model_reg's; empty when all match. */
std::string
foldMismatch(const ooo::WindowSweeper &sweeper, size_t lane,
             const obs::CounterRegistry &model_reg)
{
    obs::CounterRegistry lane_reg;
    sweeper.foldLaneMetrics(lane, lane_reg);
    for (const char *counter :
         {"core.cycles", "core.issued_instructions",
          "core.dispatched_instructions", "core.dispatch_stall_cycles"}) {
        if (lane_reg.counterValue(counter) != model_reg.counterValue(counter))
            return std::string(counter) + ": lane " +
                   std::to_string(lane_reg.counterValue(counter)) +
                   ", model " +
                   std::to_string(model_reg.counterValue(counter));
    }
    const obs::FixedHistogram *model_occ =
        model_reg.findHistogram("core.occupancy");
    const obs::FixedHistogram *lane_occ =
        lane_reg.findHistogram("core.occupancy");
    if (!model_occ || !lane_occ)
        return "no occupancy histogram";
    for (size_t b = 0; b < model_occ->binCount(); ++b)
        if (lane_occ->binValue(b) != model_occ->binValue(b))
            return "occupancy bin " + std::to_string(b);
    return "";
}

std::string
gridWhere(int dispatch, int issue, double density, Feed feed)
{
    return "D=" + std::to_string(dispatch) + " W=" + std::to_string(issue) +
           " density=" + std::to_string(density) +
           " feed=" + std::to_string(static_cast<int>(feed));
}

/**
 * One shape-grid case: a sweeper over @p sizes and one CoreModel per
 * size read the same random stream and stop together every 997
 * issued instructions and at the end; at each stop the lane's mark
 * tick, cycles, counters and occupancy bins must equal the model's.
 */
void
expectLanesMatchCoreModel(int dispatch, int issue, double density,
                          Feed feed, const std::vector<int> &sizes)
{
    const uint64_t mark_every = 997;
    const GridStream grid(dispatch, issue, density, feed, 0);
    ooo::CoreParams params;
    params.dispatch_width = dispatch;
    params.issue_width = issue;
    params.queue_entries = sizes.front();

    auto sweep_source = grid.source();
    ooo::WindowSweeper sweeper(*sweep_source, params, sizes);
    ASSERT_EQ(sweeper.laneCount(), sizes.size());
    std::vector<uint64_t> stops;
    for (uint64_t t = mark_every; t < grid.instrs; t += mark_every)
        stops.push_back(t);
    stops.push_back(grid.instrs);
    for (size_t l = 0; l < sizes.size(); ++l)
        for (uint64_t t : stops)
            sweeper.addLaneMark(l, t);

    std::vector<std::unique_ptr<RandomOpSource>> model_sources;
    std::vector<std::unique_ptr<ooo::CoreModel>> models;
    std::vector<obs::CounterRegistry> model_regs(sizes.size());
    for (size_t l = 0; l < sizes.size(); ++l) {
        params.queue_entries = sizes[l];
        models.push_back(grid.model(model_sources, params, model_regs[l]));
    }

    for (size_t s = 0; s < stops.size(); ++s) {
        sweeper.advanceAllTo(stops[s]);
        for (size_t l = 0; l < sizes.size(); ++l) {
            std::string where = gridWhere(dispatch, issue, density, feed) +
                                " Q=" + std::to_string(sizes[l]) +
                                " stop=" + std::to_string(stops[s]);
            ooo::CoreModel &model = *models[l];
            if (model.issuedInstructions() < stops[s])
                model.step(stops[s] - model.issuedInstructions());
            ASSERT_EQ(sweeper.laneMarkTicks(l).size(), s + 1) << where;
            ASSERT_EQ(sweeper.laneMarkTicks(l)[s], model.cycleCount())
                << where;
            ASSERT_EQ(sweeper.laneCycles(l), model.cycleCount()) << where;
            ASSERT_EQ(sweeper.laneIssued(l), model.issuedInstructions())
                << where;
            ASSERT_EQ(foldMismatch(sweeper, l, model_regs[l]), "") << where;
        }
    }
}

/**
 * One shape-grid case with live resizes: a seeded schedule of steps
 * and resizes drives the sweeper's live machine and a CoreModel alike.
 * It opens with 3 -> 200 -> 2 -> 1 -> 300 (across the reclaim ring's
 * size both ways, down to one entry) and then resizes at random.  Each
 * step's cycles, each drain, the counters and the occupancy bins must
 * match, and every ladder lane must still equal a fixed-size
 * CoreModel at each step's target.
 */
void
expectLiveResizesMatchCoreModel(int dispatch, int issue, double density,
                                Feed feed, const std::vector<int> &sizes)
{
    const GridStream grid(dispatch, issue, density, feed, 7);
    ooo::CoreParams params;
    params.dispatch_width = dispatch;
    params.issue_width = issue;
    params.queue_entries = sizes.front();

    auto sweep_source = grid.source();
    ooo::WindowSweeper sweeper(*sweep_source, params, sizes);
    std::vector<std::unique_ptr<RandomOpSource>> model_sources;
    obs::CounterRegistry live_reg;
    std::unique_ptr<ooo::CoreModel> live =
        grid.model(model_sources, params, live_reg);
    std::vector<std::unique_ptr<ooo::CoreModel>> fixed;
    std::vector<obs::CounterRegistry> fixed_regs(sizes.size());
    for (size_t l = 0; l < sizes.size(); ++l) {
        params.queue_entries = sizes[l];
        fixed.push_back(grid.model(model_sources, params, fixed_regs[l]));
    }

    const std::vector<int> opening = {3, 200, 2, 1, 300};
    const std::vector<int> resize_to = {1, 2, 3, 5, 8, 31, 64, 100, 200, 300};
    Rng schedule(grid.seed);
    for (size_t action = 0; live->issuedInstructions() < grid.instrs;
         ++action) {
        std::string where = gridWhere(dispatch, issue, density, feed) +
                            " action=" + std::to_string(action) +
                            " Q=" + std::to_string(live->queueEntries());
        size_t resizes = action / 2;
        if (action % 2 == 1 &&
            (resizes < opening.size() || schedule.chance(0.7))) {
            int to = resizes < opening.size()
                         ? opening[resizes]
                         : resize_to[schedule.below(resize_to.size())];
            where += " resize=" + std::to_string(to);
            Cycles drained = sweeper.resize(to);
            ASSERT_EQ(drained, live->resize(to)) << where;
            ASSERT_EQ(sweeper.queueEntries(), to) << where;
        } else {
            uint64_t n = std::min<uint64_t>(
                1 + schedule.below(300),
                grid.instrs - live->issuedInstructions());
            where += " step=" + std::to_string(n);
            uint64_t target = sweeper.issuedInstructions() + n;
            ASSERT_EQ(sweeper.step(n).cycles, live->step(n).cycles) << where;
            for (size_t l = 0; l < sizes.size(); ++l) {
                ooo::CoreModel &model = *fixed[l];
                if (model.issuedInstructions() < target)
                    model.step(target - model.issuedInstructions());
                ASSERT_EQ(sweeper.laneEntries(l), sizes[l]) << where;
                ASSERT_EQ(sweeper.laneCycles(l), model.cycleCount())
                    << where << " ladder Q=" << sizes[l];
                ASSERT_EQ(sweeper.laneIssued(l), model.issuedInstructions())
                    << where << " ladder Q=" << sizes[l];
                ASSERT_EQ(foldMismatch(sweeper, l, fixed_regs[l]), "")
                    << where << " ladder Q=" << sizes[l];
            }
        }
        ASSERT_EQ(sweeper.cycleCount(), live->cycleCount()) << where;
        ASSERT_EQ(sweeper.issuedInstructions(), live->issuedInstructions())
            << where;
        ASSERT_EQ(foldMismatch(sweeper, sweeper.liveLane(), live_reg), "")
            << where;
    }
}

TEST(WindowSweepTest, LanesMatchCoreModelOnShapeGrid)
{
    // Every lane against an independent CoreModel across dispatch
    // widths, issue widths and queue sizes the study machine never
    // takes, on empty, sparse and dense dataflow with latencies far
    // past any fixed cycle horizon; from the first op, from a seeked
    // base, and over a finite source that ends and drains.  Then the
    // live machine through a schedule of steps and resizes, while the
    // ladder's lanes keep their sizes.
    const std::vector<int> sizes = {1, 2, 3, 5, 7, 8, 16, 33, 100, 128, 200};
    for (int dispatch : {1, 2, 3, 8})
        for (int issue : {1, 2, 5, 8})
            for (double density : {0.0, 0.3, 0.9})
                for (Feed feed :
                     {Feed::FromStart, Feed::Seeked, Feed::Finite}) {
                    expectLanesMatchCoreModel(dispatch, issue, density, feed,
                                              sizes);
                    expectLiveResizesMatchCoreModel(dispatch, issue, density,
                                                    feed, sizes);
                }
}

/** An op pattern repeated without end. */
class PatternOpSource : public ooo::OpSource
{
  public:
    explicit PatternOpSource(const std::vector<ooo::MicroOp> &ops)
        : ops_(ops)
    {
    }

    uint64_t nextBatch(ooo::MicroOp *out, uint64_t max) override
    {
        for (uint64_t n = 0; n < max; ++n, ++pos_)
            out[n] = ops_[pos_ % ops_.size()];
        return max;
    }

    uint64_t position() const override { return pos_; }

  private:
    const std::vector<ooo::MicroOp> &ops_;
    uint64_t pos_ = 0;
};

TEST(WindowSweepTest, LanesMatchCoreModelWhileTheCycleRingGrows)
{
    // Two-wide machine: A (long latency) dispatches in cycle 1, B and
    // C in cycle 2.  B waits for A and issues in cycle 2 + latency; C
    // waits for B and needs the cycle after.  A latency of 2^k - 1
    // puts B in the last cycle a ring of 2^k cycles covers, so C grows
    // the ring while its last slot is live, for any starting ring of
    // 16 to 2048 cycles.
    const std::vector<int> sizes = {2, 4, 16, 64};
    const uint64_t instrs = 200;
    for (uint32_t latency = 15; latency <= 2047; latency = 2 * latency + 1) {
        const std::vector<ooo::MicroOp> ops = {
            {0, 0, latency}, {0, 0, 1}, {2, 0, 1}, {1, 0, 1}}; // A, -, B, C
        ooo::CoreParams params;
        params.dispatch_width = 2;
        params.issue_width = 2;
        params.queue_entries = sizes.front();
        PatternOpSource sweep_source(ops);
        ooo::WindowSweeper sweeper(sweep_source, params, sizes);
        sweeper.advanceAllTo(instrs);
        for (size_t l = 0; l < sizes.size(); ++l) {
            std::string where = "latency=" + std::to_string(latency) +
                                " Q=" + std::to_string(sizes[l]);
            PatternOpSource model_source(ops);
            params.queue_entries = sizes[l];
            ooo::CoreModel model(model_source, params);
            obs::CounterRegistry model_reg;
            model.attachMetrics(model_reg);
            model.step(instrs);
            EXPECT_EQ(sweeper.laneCycles(l), model.cycleCount()) << where;
            obs::CounterRegistry lane_reg;
            sweeper.foldLaneMetrics(l, lane_reg);
            for (const char *counter :
                 {"core.issued_instructions", "core.dispatch_stall_cycles"})
                EXPECT_EQ(lane_reg.counterValue(counter),
                          model_reg.counterValue(counter))
                    << where << " " << counter;
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
// Live machine: native resizes
// ---------------------------------------------------------------------

TEST(WindowSweepTest, LiveMachineStaysExactUnderMidRunResize)
{
    const trace::AppProfile &app = trace::findApp("swim");
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    ooo::InstructionStream ref_stream(app.ilp, app.seed);
    ooo::CoreModel model(ref_stream, studyParams(32));

    ooo::InstructionStream sweep_stream(app.ilp, app.seed);
    ooo::WindowSweeper sweeper(sweep_stream, studyParams(32), sizes);
    EXPECT_EQ(sweeper.queueEntries(), 32);

    EXPECT_EQ(sweeper.step(5000).cycles, model.step(5000).cycles);
    EXPECT_EQ(sweeper.cycleCount(), model.cycleCount());
    EXPECT_EQ(sweeper.issuedInstructions(), model.issuedInstructions());

    // A mid-run shrink drains the queue on the live lane, which leaves
    // the ladder so that the ladder's 32-entry lane keeps its size.
    Cycles model_drain = model.resize(16);
    Cycles sweep_drain = sweeper.resize(16);
    EXPECT_GT(model_drain, 0u);
    EXPECT_EQ(sweep_drain, model_drain);
    EXPECT_EQ(sweeper.queueEntries(), model.queueEntries());
    EXPECT_EQ(sweeper.laneCount(), sizes.size() + 1);
    EXPECT_EQ(sweeper.liveLane(), sizes.size());

    EXPECT_EQ(sweeper.step(4000).cycles, model.step(4000).cycles);
    EXPECT_EQ(sweeper.resize(128), model.resize(128));
    EXPECT_EQ(sweeper.step(2000).cycles, model.step(2000).cycles);
    EXPECT_EQ(sweeper.cycleCount(), model.cycleCount());
    EXPECT_EQ(sweeper.issuedInstructions(), model.issuedInstructions());

    for (size_t l = 0; l < sizes.size(); ++l) {
        ooo::InstructionStream fixed_stream(app.ilp, app.seed);
        ooo::CoreModel fixed(fixed_stream, studyParams(sizes[l]));
        fixed.step(sweeper.laneIssued(l));
        EXPECT_EQ(sweeper.laneEntries(l), sizes[l]);
        EXPECT_EQ(sweeper.laneCycles(l), fixed.cycleCount())
            << "Q=" << sizes[l];
    }
}

TEST(WindowSweepTest, ResizeBeforeFirstStepRunsTheNewSize)
{
    const trace::AppProfile &app = trace::findApp("li");
    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();

    ooo::InstructionStream sweep_stream(app.ilp, app.seed);
    ooo::WindowSweeper sweeper(sweep_stream, studyParams(32), sizes);
    EXPECT_EQ(sweeper.resize(64), 0u);
    EXPECT_EQ(sweeper.queueEntries(), 64);
    sweeper.step(5000);

    ooo::InstructionStream ref_stream(app.ilp, app.seed);
    ooo::CoreModel model(ref_stream, studyParams(64));
    model.step(5000);
    EXPECT_EQ(sweeper.cycleCount(), model.cycleCount());
    EXPECT_EQ(sweeper.issuedInstructions(), model.issuedInstructions());
    EXPECT_EQ(sweeper.laneCycles(sweeper.liveLane()), model.cycleCount());
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
