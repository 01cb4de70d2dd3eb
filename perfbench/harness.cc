/**
 * @file
 * perfbench_harness: the in-process half of the CAPsim benchmark.
 *
 * run.py starts this binary once per measured run.  It calls the same
 * library entry points the CLI verbs use, times them from outside, and
 * prints one JSON object as its last stdout line.  Nothing under src/
 * knows it is being measured.
 *
 *   perfbench_harness static   --seed N --seconds S [--trace 1]
 *   perfbench_harness interval --seed N --seconds S [--trace 1]
 *   perfbench_harness serve-check --plan PLAN.json [--trace 1]
 *   perfbench_harness probe [--jobs J]
 *   common: --jobs J  --spans PATH  --setup-only
 *
 * static    the paper's Figs 7-11 studies, as `cache-sweep all`,
 *           `cache-sweep all --mem=dram`, `iq-sweep all` and
 *           `sample-run all` (both sides) compute them.
 * interval  Section 6 adaptation, serially: the IQ triggers and oracle
 *           on turb3d and vortex (`interval-run --compare-triggers`),
 *           then the cache controllers and oracle on the phased demo
 *           (`bench_ext_cache_interval`).
 * serve-check  renders every job of a serve-replay plan offline (the
 *           reference the served bytes are compared against) and, when
 *           traced, replays the plan's cell-key sequence through a
 *           ResultCache, the row codecs and the renderers, untraced and
 *           traced alternately.
 * probe     host probe samples (see HostProbe); the study modes run it
 *           as a child before every untraced pass.
 *
 * Untraced runs time whole study calls only (wall and process CPU
 * time), with host probe samples before each pass; those times are the
 * end-to-end numbers.  A traced run (--trace 1) arms the obs registry
 * and SpanProfiler through obs::Hooks, and splits each study into
 * layers by driving every module's public functions on the same inputs
 * (generate a stream with nextBatch, feed it to StackSimulator, replay
 * a controller's config trace through CoreModel, ...).  Each split is
 * checked bit for bit against the study it decomposes, so a span always
 * measures the work the study does.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cache/exclusive_hierarchy.h"
#include "cache/stack_sim.h"
#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/experiment.h"
#include "core/interval_cache.h"
#include "core/interval_controller.h"
#include "core/machine.h"
#include "mem/mem_model.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "obs/span_profiler.h"
#include "ooo/core_model.h"
#include "ooo/stream.h"
#include "ooo/window_sweep.h"
#include "sample/online_phase.h"
#include "sample/sampler.h"
#include "sample/study.h"
#include "serve/job.h"
#include "serve/render.h"
#include "serve/result_cache.h"
#include "trace/stream.h"
#include "trace/workloads.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace cap;
using Clock = std::chrono::steady_clock;

/** The seed that keeps the suite's own profile seeds (digests apply). */
constexpr uint64_t kDefaultSeed = 0;
/** Seed of the modelled-accuracy line's held-out run. */
constexpr uint64_t kHeldOutSeed = 7;

// Run lengths, sized so several passes fit in one run on 4 cores.  The
// sampled studies keep `sample-run`'s defaults.
constexpr uint64_t kCacheRefs = 300000;
constexpr uint64_t kIqInstrs = 200000;
constexpr uint64_t kSampledCacheRefs = 600000;
constexpr uint64_t kSampledIqInstrs = 400000;
constexpr int kBoundaries = 8;
constexpr uint64_t kIntervalInstrs = 1000000;
constexpr uint64_t kIntervalCacheRefs = 600000;
constexpr int kInitialEntries = 32;
constexpr int kInitialBoundary = 2;
/** Samples one `probe` invocation takes. */
constexpr int kProbeSamples = 3;

uint64_t
monoNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A number with every digit it carries (JSON has no NaN/inf). */
std::string
num(double x)
{
    if (!(x == x) || x > 1e300 || x < -1e300)
        return "0";
    std::ostringstream os;
    os << std::setprecision(17) << x;
    return os.str();
}

std::string
hex64(uint64_t x)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

/**
 * High-water RSS of this process image (VmHWM), MB.  getrusage's
 * ru_maxrss is no use here: it keeps the pre-exec high-water mark of the
 * process that spawned us.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** splitmix64 finalizer: decorrelates a profile seed from the run seed. */
uint64_t
mixSeed(uint64_t base, uint64_t seed)
{
    if (seed == kDefaultSeed)
        return base;
    uint64_t z = base ^ (seed * 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

trace::AppProfile
reseeded(trace::AppProfile app, uint64_t seed)
{
    app.seed = mixSeed(app.seed, seed);
    return app;
}

std::vector<trace::AppProfile>
reseeded(std::vector<trace::AppProfile> apps, uint64_t seed)
{
    for (trace::AppProfile &app : apps)
        app.seed = mixSeed(app.seed, seed);
    return apps;
}

std::vector<std::string>
namesOf(const std::vector<trace::AppProfile> &apps)
{
    std::vector<std::string> names;
    for (const trace::AppProfile &app : apps)
        names.push_back(app.name);
    return names;
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own, kept in memory, written at exit in the
// Chrome trace_event format `--host-profile` writes.
// ---------------------------------------------------------------------

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), epoch_(monoNs()) {}

    bool on() const { return on_; }

    /** Open a span under the innermost open one; -1 when off. */
    int open(const std::string &name, int64_t req = -1)
    {
        if (!on_)
            return -1;
        Span span;
        span.name = name;
        span.start_ns = monoNs() - epoch_;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.req = req;
        spans_.push_back(span);
        int id = static_cast<int>(spans_.size() - 1);
        stack_.push_back(id);
        return id;
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].end_ns = monoNs() - epoch_;
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    /** Attach a numeric argument shown in the trace viewer. */
    void note(int id, const std::string &key, double value)
    {
        if (id >= 0)
            spans_[static_cast<size_t>(id)].args.emplace_back(key, value);
    }

    double seconds(int id) const
    {
        if (id < 0)
            return 0.0;
        const Span &s = spans_[static_cast<size_t>(id)];
        return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const
    {
        double sum = 0.0;
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                sum += seconds(static_cast<int>(i));
        return sum;
    }

    uint64_t count(const std::string &name) const
    {
        uint64_t n = 0;
        for (const Span &s : spans_)
            n += s.name == name;
        return n;
    }

    /**
     * Share (percent) of the time of spans whose name starts with
     * @p parent_prefix that none of their direct children covers.
     */
    double unattributedPct(const std::string &parent_prefix) const
    {
        std::vector<double> children(spans_.size(), 0.0);
        for (size_t j = 0; j < spans_.size(); ++j)
            if (spans_[j].parent >= 0)
                children[static_cast<size_t>(spans_[j].parent)] +=
                    seconds(static_cast<int>(j));
        double wall = 0.0, covered = 0.0;
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].name.rfind(parent_prefix, 0) != 0)
                continue;
            wall += seconds(static_cast<int>(i));
            covered += children[i];
        }
        return wall > 0.0 ? 100.0 * (wall - covered) / wall : 0.0;
    }

    /** Chrome trace events of this log (pid 2), comma-separated. */
    void writeEvents(std::ostream &os) const
    {
        os << "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
              "\"args\":{\"name\":\"perfbench harness\"}}";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"name\":"
               << json::quote(s.name) << std::fixed << std::setprecision(3)
               << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
               << ",\"dur\":"
               << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
               << std::defaultfloat << ",\"args\":{\"id\":" << i
               << ",\"parent\":" << s.parent;
            if (s.req >= 0)
                os << ",\"req\":" << s.req;
            for (const auto &[key, value] : s.args)
                os << "," << json::quote(key) << ":" << num(value);
            os << "}}";
        }
    }

  private:
    struct Span
    {
        std::string name;
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
        int parent = -1;
        int64_t req = -1;
        std::vector<std::pair<std::string, double>> args;
    };

    bool on_;
    uint64_t epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on a SpanLog. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, int64_t req = -1)
        : log_(log), id_(log.open(name, req))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/**
 * An OpSource that forwards to an InstructionStream and accumulates the
 * time spent generating ops, so a consumer's span can be split into
 * stream time and its own (self) time without a span per batch.
 */
class TimedOpSource : public ooo::OpSource
{
  public:
    TimedOpSource(const trace::IlpBehavior &behavior, uint64_t seed)
        : stream_(behavior, seed)
    {
    }

    uint64_t nextBatch(ooo::MicroOp *out, uint64_t max) override
    {
        uint64_t t0 = monoNs();
        uint64_t n = stream_.nextBatch(out, max);
        ns_ += monoNs() - t0;
        ops_ += n;
        return n;
    }

    uint64_t position() const override { return stream_.position(); }

    double seconds() const { return static_cast<double>(ns_) * 1e-9; }
    uint64_t ops() const { return ops_; }

  private:
    ooo::InstructionStream stream_;
    uint64_t ns_ = 0;
    uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------
// Run bookkeeping shared by the modes.
// ---------------------------------------------------------------------

/** CPU seconds this process has used, every thread counted. */
double
processCpuSeconds()
{
    struct timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Wall and CPU time of one timed call. */
struct Timing
{
    double wall_s = 0.0;
    /** CPU seconds of every thread of this process during the call. */
    double cpu_s = 0.0;
};

/** Time @p fn on the steady clock and the process CPU clock. */
template <typename Fn>
Timing
timed(Fn &&fn)
{
    auto start = Clock::now();
    double cpu0 = processCpuSeconds();
    fn();
    Timing t;
    t.cpu_s = processCpuSeconds() - cpu0;
    t.wall_s = secondsSince(start);
    return t;
}

// ---------------------------------------------------------------------
// Host-speed probe.  The benchmark shares a host whose speed moves from
// run to run, by far more than the bounds it gates on, and plain
// integer loops slow by less than the program does when it moves.  So
// the probe is a fixed mix of the kinds of code the program is made of,
// none of it the program's: hashing into a table, a set-associative LRU
// cache simulation, standard-library containers and sorting, and calls
// through a table of many small functions, about equal in time.  run.py
// states each run's pass times at the probe's reference speed.
// ---------------------------------------------------------------------

uint64_t
probeMix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** One of many small, distinct functions (a wide code footprint). */
template <int N>
uint64_t
probeStep(uint64_t x)
{
    x ^= static_cast<uint64_t>(N) * 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> (N % 29 + 1))) * (static_cast<uint64_t>(N) * 2 + 1);
    if (x & (uint64_t{1} << (N % 61)))
        x += N;
    else
        x ^= x >> 7;
    return x;
}

using ProbeStep = uint64_t (*)(uint64_t);

template <size_t... I>
std::vector<ProbeStep>
probeSteps(std::index_sequence<I...>)
{
    return {&probeStep<static_cast<int>(I)>...};
}

/** One thread's share of a probe sample. */
class ProbeLane
{
  public:
    ProbeLane()
    {
        for (size_t i = 0; i < table_.size(); ++i)
            table_[i] = probeMix(i);
    }

    /** The four parts once; returns a checksum. */
    uint64_t run() { return hashing() ^ lru() ^ containers() ^ calls(); }

  private:
    static constexpr size_t kTableWords = size_t{1} << 15; // 256 KiB
    static constexpr size_t kSets = 512;
    static constexpr size_t kWays = 8;

    uint64_t hashing()
    {
        const uint64_t mask = table_.size() - 1;
        uint64_t x = 0x9E3779B97F4A7C15ull;
        for (int i = 0; i < 650000; ++i) {
            x += 0x9E3779B97F4A7C15ull;
            uint64_t z = probeMix(x);
            uint64_t &slot = table_[z & mask];
            if (slot & 1)
                slot += z;
            else
                slot ^= z >> 3;
            x ^= table_[(z >> 24) & mask] & 0xff;
        }
        return x;
    }

    /** A 256 KiB, 8-way LRU cache of 64 B lines over a strided-plus-
     *  random address stream. */
    uint64_t lru()
    {
        uint64_t hits = 0, x = 1, seq = 0;
        for (int i = 0; i < 470000; ++i) {
            x = probeMix(x + i);
            uint64_t addr = ((x & 3) ? (seq += 64) : (x >> 8)) & 0x3FFFFF;
            uint64_t line = addr >> 6, set = line % kSets, tag = line / kSets;
            uint64_t *tags = &tags_[set * kWays];
            uint32_t *ages = &ages_[set * kWays];
            size_t victim = 0;
            bool hit = false;
            for (size_t w = 0; w < kWays; ++w) {
                if (tags[w] == tag) {
                    ages[w] = ++clock_;
                    hit = true;
                    break;
                }
                if (ages[w] < ages[victim])
                    victim = w;
            }
            if (hit) {
                ++hits;
            } else {
                tags[victim] = tag;
                ages[victim] = ++clock_;
            }
        }
        return hits;
    }

    uint64_t containers()
    {
        uint64_t x = 7, acc = 0;
        std::map<uint64_t, uint64_t> ordered;
        for (int i = 0; i < 5400; ++i) {
            x = probeMix(x + i);
            ordered[x % 1000003] += i;
        }
        for (int i = 0; i < 16000; ++i) {
            x = probeMix(x + i);
            auto it = ordered.lower_bound(x % 1000003);
            if (it != ordered.end())
                acc += it->second;
        }
        std::vector<uint64_t> values(16000);
        for (uint64_t &v : values)
            v = x = probeMix(x);
        std::sort(values.begin(), values.end());
        std::unordered_map<uint64_t, uint32_t> hashed;
        for (int i = 0; i < 8000; ++i) {
            x = probeMix(x + i);
            ++hashed[x & 65535];
        }
        for (int i = 0; i < 8000; ++i) {
            x = probeMix(x + i);
            auto it = hashed.find(x & 65535);
            if (it != hashed.end())
                acc += it->second;
        }
        char buf[64];
        for (int i = 0; i < 1350; ++i) {
            x = probeMix(x + i);
            acc += static_cast<uint64_t>(std::snprintf(
                buf, sizeof buf, "%.6g %llu",
                static_cast<double>(x % 100000) / 7.0,
                static_cast<unsigned long long>(x >> 40)));
        }
        return acc + values[values.size() / 2];
    }

    uint64_t calls()
    {
        static const std::vector<ProbeStep> steps =
            probeSteps(std::make_index_sequence<1024>{});
        uint64_t x = 1;
        for (int i = 0; i < 360000; ++i)
            x = steps[(x >> 17) & 1023](x) + i;
        return x;
    }

    std::vector<uint64_t> table_ = std::vector<uint64_t>(kTableWords);
    std::vector<uint64_t> tags_ = std::vector<uint64_t>(kSets * kWays);
    std::vector<uint32_t> ages_ = std::vector<uint32_t>(kSets * kWays);
    uint32_t clock_ = 0;
};

/** Probe samples as wide as the calls they sit beside. */
class HostProbe
{
  public:
    explicit HostProbe(int threads)
        : lanes_(static_cast<size_t>(std::max(1, threads)))
    {
    }

    /**
     * Run every lane once, each on its own thread.  Wall time of the
     * whole sample; CPU time per lane (process CPU over the sample,
     * divided by the lane count; nothing else runs then).
     */
    Timing sample()
    {
        auto start = Clock::now();
        double cpu0 = processCpuSeconds();
        if (lanes_.size() == 1) {
            sink_ ^= lanes_[0].run();
        } else {
            std::vector<std::thread> threads;
            std::vector<uint64_t> out(lanes_.size());
            for (size_t t = 0; t < lanes_.size(); ++t)
                threads.emplace_back(
                    [this, t, &out] { out[t] = lanes_[t].run(); });
            for (std::thread &thread : threads)
                thread.join();
            for (uint64_t x : out)
                sink_ ^= x;
        }
        Timing t;
        t.cpu_s = (processCpuSeconds() - cpu0) /
                  static_cast<double>(lanes_.size());
        t.wall_s = secondsSince(start);
        return t;
    }

  private:
    std::vector<ProbeLane> lanes_;
    /** The lanes' checksums, kept so no part is dead code. */
    uint64_t sink_ = 0;
};

/**
 * CPU seconds of the host probe samples of one `probe` run of this
 * binary in a child process, so the probe's memory stays out of this
 * process's peak RSS.  Exits when the child fails.
 */
std::vector<double>
probeInChild(int threads)
{
    char self[4096];
    ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
    std::string output;
    if (n > 0) {
        // Single-quoted for the shell popen() runs.
        std::string cmd = "'";
        for (char c : std::string(self, static_cast<size_t>(n)))
            cmd += c == '\'' ? std::string("'\\''") : std::string(1, c);
        cmd += "' probe --jobs " + std::to_string(threads);
        if (FILE *pipe = popen(cmd.c_str(), "r")) {
            char buf[4096];
            size_t got;
            while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0)
                output.append(buf, got);
            pclose(pipe);
        }
    }
    json::Value report;
    std::string error;
    const json::Value *cpu = nullptr;
    if (json::parse(output, report, error) && (cpu = report.find("cpu")))
        cpu = cpu->find("probe");
    if (!cpu || !cpu->isArray() || cpu->array.empty()) {
        std::cerr << "perfbench_harness: host probe child failed\n";
        std::exit(2);
    }
    std::vector<double> seconds;
    for (const json::Value &v : cpu->array)
        seconds.push_back(v.number);
    return seconds;
}

struct Args
{
    std::string mode;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 4;
    bool setup_only = false;
    /** Steady clock at main() entry: set-up is timed from here. */
    uint64_t start_ns = 0;
    std::string spans_path;
    std::string plan_path;
};

/** Per-layer metrics of a traced run; a name never set reads 0. */
class LayerMetrics
{
  public:
    void set(const std::string &name, double value) { values_[name] = value; }
    void add(const std::string &name, double value) { values_[name] += value; }
    double get(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

  private:
    std::map<std::string, double> values_;
};

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Timed-call name -> one wall / CPU time per pass. */
    std::map<std::string, std::vector<double>> times;
    std::map<std::string, std::vector<double>> cpu;
    /** Study name -> FNV-1a of its rendered bytes (first pass). */
    std::map<std::string, std::string> digests;
    std::vector<std::string> extra_json; ///< "key": value fragments
    LayerMetrics layers;

    void record(const std::string &name, const Timing &t)
    {
        times[name].push_back(t.wall_s);
        cpu[name].push_back(t.cpu_s);
    }

    void check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        failures.push_back(what);
        std::cerr << "perfbench_harness: check failed: " << what << "\n";
    }
};

/** Per-layer metric names the harness reports, in report order. */
const std::vector<std::string> kLayerOrder = {
    "cache_study_s", "dram_study_s", "iq_study_s", "sampled_study_s",
    "interval_iq_s", "interval_cache_s",
    "trace.gen_s", "trace.refs", "ooo.stream_s", "ooo.uops",
    "ooo.sweep_s", "ooo.sweep_instrs", "ooo.core_s", "ooo.core_instrs",
    "cache.stack_s", "cache.stack_refs", "cache.hier_s", "cache.hier_refs",
    "mem.dram_s", "mem.misses", "cache.dram_fallbacks",
    "core.cells", "core.cell_busy_s", "core.pool_idle_s",
    "core.parallel_eff", "core.controller_s", "core.oracle_s",
    "sample.profile_s", "sample.replay_s", "sample.rep_simulations",
    "sample.sim_fraction", "sample.phase_s",
    "serve.lookup_us", "serve.insert_us", "serve.codec_us",
    "serve.render_us", "serve.spill_load_s", "serve.spill_hits",
    "cache.l1_hits", "cache.l2_hits", "cache.misses", "ooo.cycles",
    "ooo.stall_cycles", "mem.row_hit_ratio", "mem.mshr_merge_ratio",
    "mem.queue_ns", "core.reconfigs", "core.probe_yield",
    "obs.trace_overhead_pct", "obs.unattributed_pct"};

void
writeReport(const Args &args, const std::string &workload,
            uint64_t ready_ns, const Report &report, int passes)
{
    std::ostringstream os;
    os << "{\"workload\": " << json::quote(workload)
       << ", \"seed\": " << args.seed << ", \"setup_s\": "
       << num(static_cast<double>(ready_ns - args.start_ns) * 1e-9)
       << ", \"passes\": " << passes << ", \"jobs\": " << args.jobs
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"failures\": [";
    for (size_t i = 0; i < report.failures.size(); ++i)
        os << (i ? ", " : "") << json::quote(report.failures[i]);
    os << "]";
    for (const auto &[key, series] :
         {std::pair{"times", &report.times}, std::pair{"cpu", &report.cpu}}) {
        os << ", " << json::quote(key) << ": {";
        bool first = true;
        for (const auto &[name, values] : *series) {
            os << (first ? "" : ", ") << json::quote(name) << ": [";
            for (size_t i = 0; i < values.size(); ++i)
                os << (i ? ", " : "") << num(values[i]);
            os << "]";
            first = false;
        }
        os << "}";
    }
    os << ", \"digests\": {";
    bool first = true;
    for (const auto &[name, digest] : report.digests) {
        os << (first ? "" : ", ") << json::quote(name) << ": "
           << json::quote(digest);
        first = false;
    }
    os << "}, \"peak_rss_mb\": " << num(peakRssMb());
    for (const std::string &fragment : report.extra_json)
        os << ", " << fragment;
    if (args.trace) {
        os << ", \"per_layer\": {";
        for (size_t i = 0; i < kLayerOrder.size(); ++i)
            os << (i ? ", " : "") << json::quote(kLayerOrder[i]) << ": "
               << num(report.layers.get(kLayerOrder[i]));
        os << "}";
    }
    os << "}";
    std::cout << os.str() << std::endl;
}

/**
 * Arm @p profiler for a run whose pools are @p jobs wide.  SpanProfiler
 * grows its lane vector on a worker's first span, which races when
 * several pool workers open their first spans at once (ThreadSanitizer
 * reports it, and it has corrupted the heap here).  One span per lane,
 * opened and closed from this thread before any fan-out, sizes the
 * vector up front, so a worker only ever touches its own lane.
 */
void
armProfiler(obs::SpanProfiler &profiler, int jobs)
{
    profiler.arm();
    for (int lane = jobs - 1; lane >= 0; --lane) {
        profiler.beginSpan(lane, "perfbench.lane_reserve");
        profiler.endSpan(lane);
    }
}

/** Write the harness spans (and the armed SpanProfiler's) to PATH. */
void
writeSpans(const Args &args, const SpanLog &log,
           const obs::SpanProfiler *profiler)
{
    if (args.spans_path.empty() || !log.on())
        return;
    std::ofstream file(args.spans_path);
    if (!file) {
        std::cerr << "perfbench_harness: cannot write '" << args.spans_path
                  << "'\n";
        return;
    }
    file << "[\n";
    log.writeEvents(file);
    if (profiler) {
        // The program's own spans, in the same file: strip the array
        // brackets of SpanProfiler::writeChromeTrace and splice.
        std::ostringstream host;
        profiler->writeChromeTrace(host);
        std::string text = host.str();
        size_t open = text.find('[');
        size_t close = text.rfind(']');
        if (open != std::string::npos && close != std::string::npos &&
            close > open + 1)
            file << "," << text.substr(open + 1, close - open - 1);
    }
    file << "\n]\n";
}

/** The registry counter, or 0 when the run never registered it. */
double
counter(const obs::CounterRegistry &registry, const std::string &name)
{
    return static_cast<double>(registry.counterValue(name));
}

double
ratio(double num_, double den)
{
    return den > 0.0 ? num_ / den : 0.0;
}

/** Fold a study's RunTelemetry into the core pool metrics. */
void
addPoolTelemetry(LayerMetrics &layers, const core::RunTelemetry &t)
{
    double busy = 0.0;
    for (const core::CellTelemetry &cell : t.cells)
        busy += cell.sim_seconds;
    double idle = 0.0;
    if (t.pool_recorded)
        for (const auto &worker : t.pool.workers)
            idle += worker.idle_seconds;
    layers.add("core.cells", static_cast<double>(t.cells.size()));
    layers.add("core.cell_busy_s", busy);
    layers.add("core.pool_idle_s", idle);
    layers.add("core.pool_capacity_",
               t.wall_seconds * static_cast<double>(t.jobs));
}

/** The modelled counters every workload reports (simulated, not host). */
void
addModelled(LayerMetrics &layers, const obs::CounterRegistry &registry)
{
    layers.add("cache.l1_hits", counter(registry, "cache.l1_hits"));
    layers.add("cache.l2_hits", counter(registry, "cache.l2_hits"));
    layers.add("cache.misses", counter(registry, "cache.misses"));
    layers.add("ooo.cycles", counter(registry, "core.cycles"));
    layers.add("ooo.stall_cycles",
               counter(registry, "core.dispatch_stall_cycles"));
    layers.add("cache.dram_fallbacks",
               counter(registry, "stacksim.dram_fallbacks"));
    layers.add("mem.accesses_", counter(registry, "dram.accesses"));
    layers.add("mem.row_hits_", counter(registry, "dram.row_hits"));
    layers.add("mem.mshr_allocs_", counter(registry, "mshr.allocs"));
    layers.add("mem.mshr_merges_", counter(registry, "mshr.merges"));
    layers.add("mem.queue_ns", counter(registry, "dram.queue_ns"));
}

/** Turn the summed helper values (names ending in '_') into the
 *  reported ratios. */
void
finishLayers(LayerMetrics &L)
{
    L.set("core.parallel_eff",
          ratio(L.get("core.cell_busy_s"), L.get("core.pool_capacity_")));
    L.set("mem.row_hit_ratio",
          ratio(L.get("mem.row_hits_"), L.get("mem.accesses_")));
    L.set("mem.mshr_merge_ratio",
          ratio(L.get("mem.mshr_merges_"),
                L.get("mem.mshr_allocs_") + L.get("mem.mshr_merges_")));
    L.set("core.probe_yield",
          ratio(L.get("core.committed_"), L.get("core.reconfigs")));
    L.set("sample.sim_fraction",
          ratio(L.get("sample.simulated_"), L.get("sample.full_work_")));
}

template <typename Fn>
std::string
rendered(Fn &&fn)
{
    std::ostringstream os;
    fn(os);
    return os.str();
}

std::string
digestOf(const std::string &text)
{
    return hex64(serve::fnv1a(text));
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---------------------------------------------------------------------
// static-study
// ---------------------------------------------------------------------

struct StaticInputs
{
    std::vector<trace::AppProfile> cache_apps;
    std::vector<trace::AppProfile> iq_apps;
    core::AdaptiveCacheModel flat_model;
    core::AdaptiveCacheModel dram_model;
    core::AdaptiveIqModel iq_model;
    sample::SampleParams sample_params;
};

std::unique_ptr<StaticInputs>
staticSetup(uint64_t seed)
{
    auto in = std::make_unique<StaticInputs>();
    in->cache_apps = reseeded(trace::cacheStudyApps(), seed);
    in->iq_apps = reseeded(trace::iqStudyApps(), seed);
    mem::MemConfig dram;
    std::string error;
    if (!mem::parseMemSpec("dram", dram, error)) {
        std::cerr << "perfbench_harness: " << error << "\n";
        std::exit(2);
    }
    in->dram_model.setMemConfig(dram);
    return in;
}

/** Each study's bytes, rendered the way its verb prints them. */
std::map<std::string, std::string>
renderStatic(const StaticInputs &in, const core::CacheStudy &cache,
             const core::CacheStudy &dram, const core::IqStudy &iq,
             const sample::SampledCacheStudy &scache,
             const sample::SampledIqStudy &siq)
{
    std::map<std::string, std::string> r;
    std::vector<std::string> cnames = namesOf(in.cache_apps);
    std::vector<std::string> inames = namesOf(in.iq_apps);
    r["cache"] = rendered([&](std::ostream &os) {
        serve::renderCacheSweep(os, cnames, cache.perf, kCacheRefs);
    });
    r["dram"] = rendered([&](std::ostream &os) {
        serve::renderCacheSweep(os, cnames, dram.perf, kCacheRefs);
    });
    r["iq"] = rendered([&](std::ostream &os) {
        serve::renderIqSweep(os, inames, iq.perf, kIqInstrs);
    });
    r["sampled_cache"] = rendered([&](std::ostream &os) {
        serve::renderSampledCacheSweep(os, cnames, scache.perf,
                                       kSampledCacheRefs);
    });
    r["sampled_iq"] = rendered([&](std::ostream &os) {
        serve::renderSampledIqSweep(os, inames, siq.perf,
                                    kSampledIqInstrs);
    });
    return r;
}

/**
 * Traced runs: each part's untraced median wall time as a per-layer
 * metric, and obs.trace_overhead_pct comparing the traced passes'
 * medians against their sum.
 */
void
reportUntracedParts(Report &report, std::initializer_list<const char *> parts)
{
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    double plain = 0.0, traced = 0.0;
    for (const char *name : parts) {
        report.layers.set(name, median(report.times[name]));
        plain += median(report.times[name]);
        traced += median(report.times[std::string(name) + ".traced"]);
    }
    report.layers.set("obs.trace_overhead_pct",
                      100.0 * ratio(traced - plain, plain));
}

/** True when @p perf is apps x configs and @p ok holds for every cell. */
template <typename Cell, typename Ok>
bool
delivered(const std::vector<std::vector<Cell>> &perf, size_t apps,
          size_t configs, Ok &&ok)
{
    if (perf.size() != apps)
        return false;
    for (const std::vector<Cell> &row : perf) {
        if (row.size() != configs)
            return false;
        for (const Cell &cell : row)
            if (!ok(cell))
                return false;
    }
    return true;
}

/** Every study delivers exactly the work it was asked for. */
void
checkDelivered(Report &report, const StaticInputs &in,
               const core::CacheStudy &cache, const core::CacheStudy &dram,
               const core::IqStudy &iq,
               const sample::SampledCacheStudy &scache,
               const sample::SampledIqStudy &siq)
{
    const size_t nc = in.cache_apps.size(), ni = in.iq_apps.size();
    const size_t sizes = core::AdaptiveIqModel::studySizes().size();
    auto refsOk = [](const core::CachePerf &c) { return c.refs == kCacheRefs; };
    report.check(delivered(cache.perf, nc, kBoundaries, refsOk),
                 "cache study refs delivered");
    report.check(delivered(dram.perf, nc, kBoundaries, refsOk),
                 "dram study refs delivered");
    report.check(delivered(iq.perf, ni, sizes,
                           [](const core::IqPerf &c) {
                               return c.instructions == kIqInstrs;
                           }),
                 "iq study instructions delivered");
    report.check(delivered(scache.perf, nc, kBoundaries,
                           [](const sample::SampledCachePerf &c) {
                               return c.perf.refs == kSampledCacheRefs &&
                                      c.simulated_refs > 0;
                           }),
                 "sampled cache study refs delivered");
    report.check(delivered(siq.perf, ni, sizes,
                           [](const sample::SampledIqPerf &c) {
                               return c.perf.instructions ==
                                          kSampledIqInstrs &&
                                      c.simulated_instrs > 0;
                           }),
                 "sampled iq study instructions delivered");
}

/** Modelled accuracy vs the paper's Figs 8, 9 and 11 (calibration
 *  residuals; the profiles were tuned to these shapes). */
std::string
accuracyJson(uint64_t seed, const core::CacheStudy &cache,
             const core::IqStudy &iq)
{
    double cache_pct = 100.0 * cache.selection.meanReduction();
    double iq_pct = 100.0 * iq.selection.meanReduction();
    double conv = cache.conventionalMeanTpiMiss();
    double miss_pct =
        conv > 0.0 ? 100.0 * (1.0 - cache.adaptiveMeanTpiMiss() / conv)
                   : 0.0;
    std::ostringstream os;
    os << "{\"seed\": " << seed
       << ", \"cache_tpi_reduction_pct\": " << num(cache_pct)
       << ", \"iq_tpi_reduction_pct\": " << num(iq_pct)
       << ", \"tpimiss_reduction_pct\": " << num(miss_pct) << "}";
    return os.str();
}

/** Split the static studies into layers on the same inputs (traced). */
void
decomposeStatic(const StaticInputs &in, const core::CacheStudy &cache,
                const core::CacheStudy &dram, const core::IqStudy &iq,
                const sample::SampledCacheStudy &scache,
                const sample::SampledIqStudy &siq, SpanLog &log,
                Report &report)
{
    LayerMetrics &L = report.layers;
    const std::vector<core::CacheBoundaryTiming> timings =
        in.flat_model.allBoundaryTimings();
    std::vector<trace::TraceRecord> refs(kCacheRefs);

    bool flat_exact = true, dram_exact = true;
    {
        Scope parent(log, "decompose.cache_study");
        for (size_t a = 0; a < in.cache_apps.size(); ++a) {
            const trace::AppProfile &app = in.cache_apps[a];
            {
                Scope s(log, "trace.gen");
                trace::SyntheticTraceSource source(app.cache, app.seed,
                                                   kCacheRefs);
                uint64_t got = source.nextBatch(refs.data(), kCacheRefs);
                flat_exact = flat_exact && got == kCacheRefs;
            }
            L.add("trace.refs", static_cast<double>(kCacheRefs));
            cache::StackSimulator stack(in.flat_model.geometry());
            {
                Scope s(log, "cache.stack");
                stack.accessBatch(refs.data(), kCacheRefs);
                (void)stack.statsAll();
            }
            L.add("cache.stack_refs", static_cast<double>(kCacheRefs));
            for (int k = 1; k <= kBoundaries; ++k) {
                core::CachePerf perf = in.flat_model.perfFromStats(
                    stack.statsFor(k), timings[k - 1],
                    app.cache.refs_per_instr);
                flat_exact = flat_exact &&
                             sameBits(perf.tpi_ns,
                                      cache.perf[a][k - 1].tpi_ns);
            }
        }
    }
    report.check(flat_exact, "cache study layer split matches the study");

    {
        Scope parent(log, "decompose.dram_study");
        std::vector<uint8_t> outcome(kCacheRefs);
        for (size_t a = 0; a < in.cache_apps.size(); ++a) {
            const trace::AppProfile &app = in.cache_apps[a];
            {
                Scope s(log, "trace.gen");
                trace::SyntheticTraceSource source(app.cache, app.seed,
                                                   kCacheRefs);
                source.nextBatch(refs.data(), kCacheRefs);
            }
            L.add("trace.refs", static_cast<double>(kCacheRefs));
            for (int k = 1; k <= kBoundaries; ++k) {
                const core::CacheBoundaryTiming &t = timings[k - 1];
                cache::ExclusiveHierarchy hierarchy(
                    in.dram_model.geometry(), k);
                {
                    Scope s(log, "cache.hier");
                    for (uint64_t i = 0; i < kCacheRefs; ++i)
                        outcome[i] = static_cast<uint8_t>(
                            hierarchy.access(refs[i]));
                }
                L.add("cache.hier_refs", static_cast<double>(kCacheRefs));
                // The dram walk's clock (AdaptiveCacheModel's): misses
                // reach the backend at the reference stream's pace.
                mem::DramBackend backend(in.dram_model.memConfig().dram);
                const Nanoseconds ref_ns =
                    t.cycle_ns /
                    (core::CacheMachine::kBaseIpc * app.cache.refs_per_instr);
                const Nanoseconds l2_ns =
                    t.cycle_ns * static_cast<double>(t.l2_hit_cycles);
                Nanoseconds now_ns = 0.0, stall_ns = 0.0;
                uint64_t misses = 0;
                {
                    Scope s(log, "mem.dram");
                    for (uint64_t i = 0; i < kCacheRefs; ++i) {
                        now_ns += ref_ns;
                        auto o = static_cast<cache::AccessOutcome>(outcome[i]);
                        if (o == cache::AccessOutcome::L2Hit) {
                            now_ns += l2_ns;
                        } else if (o == cache::AccessOutcome::Miss) {
                            Nanoseconds stall =
                                backend.onMiss(refs[i].addr, now_ns);
                            now_ns += stall;
                            stall_ns += stall;
                            ++misses;
                        }
                    }
                }
                L.add("mem.misses", static_cast<double>(misses));
                core::CachePerf perf = in.dram_model.perfFromDram(
                    hierarchy.stats(), t, app.cache.refs_per_instr,
                    stall_ns);
                dram_exact = dram_exact &&
                             sameBits(perf.tpi_ns, dram.perf[a][k - 1].tpi_ns);
            }
        }
    }
    report.check(dram_exact, "dram study layer split matches the study");

    bool iq_exact = true;
    {
        Scope parent(log, "decompose.iq_study");
        const std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
        for (size_t a = 0; a < in.iq_apps.size(); ++a) {
            const trace::AppProfile &app = in.iq_apps[a];
            TimedOpSource source(app.ilp, app.seed);
            ooo::CoreParams params;
            params.queue_entries = sizes.front();
            params.dispatch_width = core::IqMachine::kDispatchWidth;
            params.issue_width = core::IqMachine::kIssueWidth;
            Scope s(log, "ooo.sweep");
            ooo::WindowSweeper sweeper(source, params, sizes);
            for (size_t lane = 0; lane < sweeper.laneCount(); ++lane)
                sweeper.addLaneMark(lane, kIqInstrs);
            sweeper.advanceAllTo(kIqInstrs);
            log.note(s.id(), "stream_s", source.seconds());
            L.add("ooo.stream_", source.seconds());
            L.add("ooo.uops", static_cast<double>(source.ops()));
            L.add("ooo.sweep_instrs", static_cast<double>(
                                          kIqInstrs * sweeper.laneCount()));
            for (size_t lane = 0; lane < sweeper.laneCount(); ++lane) {
                int entries = sweeper.laneEntries(lane);
                auto c = std::find(sizes.begin(), sizes.end(), entries);
                if (c == sizes.end())
                    continue;
                const core::IqPerf &want =
                    iq.perf[a][static_cast<size_t>(c - sizes.begin())];
                iq_exact = iq_exact &&
                           sweeper.laneMarkTicks(lane).back() == want.cycles;
            }
        }
    }
    report.check(iq_exact, "iq study layer split matches the study");

    bool sampled_exact = true;
    {
        Scope parent(log, "decompose.sampled_study");
        for (size_t a = 0; a < in.cache_apps.size(); ++a) {
            int sp = log.open("sample.profile");
            sample::CacheSampler sampler(in.flat_model, in.cache_apps[a],
                                         kSampledCacheRefs,
                                         in.sample_params);
            log.close(sp);
            std::vector<std::vector<sample::CacheRepMeasurement>> meas;
            {
                Scope s(log, "sample.replay");
                meas = sampler.measureAllConfigs(kBoundaries);
            }
            L.add("sample.rep_simulations",
                  static_cast<double>(sampler.repCount()));
            for (int k = 1; k <= kBoundaries; ++k) {
                sample::SampledCachePerf perf =
                    sampler.reconstruct(k, meas[k - 1]);
                const sample::SampledCachePerf &want =
                    scache.perf[a][k - 1];
                sampled_exact = sampled_exact &&
                                sameBits(perf.perf.tpi_ns, want.perf.tpi_ns);
                L.add("sample.simulated_",
                      static_cast<double>(want.simulated_refs));
                L.add("sample.full_work_",
                      static_cast<double>(kSampledCacheRefs));
            }
        }
        const std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
        for (size_t a = 0; a < in.iq_apps.size(); ++a) {
            int sp = log.open("sample.profile");
            sample::IqSampler sampler(in.iq_model, in.iq_apps[a],
                                      kSampledIqInstrs, in.sample_params);
            log.close(sp);
            std::vector<std::vector<sample::IqRepMeasurement>> meas;
            {
                Scope s(log, "sample.replay");
                meas = sampler.measureAllConfigs();
            }
            L.add("sample.rep_simulations",
                  static_cast<double>(sampler.repCount()));
            for (size_t c = 0; c < sizes.size(); ++c) {
                sample::SampledIqPerf perf =
                    sampler.reconstruct(sizes[c], meas[c]);
                const sample::SampledIqPerf &want = siq.perf[a][c];
                sampled_exact = sampled_exact &&
                                sameBits(perf.perf.tpi_ns, want.perf.tpi_ns);
                L.add("sample.simulated_",
                      static_cast<double>(want.simulated_instrs));
                L.add("sample.full_work_",
                      static_cast<double>(kSampledIqInstrs));
            }
        }
    }
    report.check(sampled_exact,
                 "sampled studies' layer split matches the studies");

    L.set("trace.gen_s", log.total("trace.gen"));
    L.set("cache.stack_s", log.total("cache.stack"));
    L.set("cache.hier_s", log.total("cache.hier"));
    L.set("mem.dram_s", log.total("mem.dram"));
    L.set("ooo.stream_s", L.get("ooo.stream_"));
    L.set("ooo.sweep_s", log.total("ooo.sweep") - L.get("ooo.stream_"));
    L.set("sample.profile_s", log.total("sample.profile"));
    L.set("sample.replay_s", log.total("sample.replay"));
    L.set("obs.unattributed_pct", log.unattributedPct("decompose."));
}

int
runStatic(const Args &args)
{
    SpanLog log(args.trace);
    obs::SpanProfiler profiler;
    if (args.trace)
        armProfiler(profiler, args.jobs);

    std::unique_ptr<StaticInputs> in;
    {
        Scope s(log, "setup");
        in = staticSetup(args.seed);
    }
    const uint64_t ready_ns = monoNs();
    Report report;
    if (args.setup_only) {
        writeReport(args, "static-study", ready_ns, report, 0);
        return 0;
    }

    const int jobs = args.jobs;
    std::map<std::string, std::string> first_digests;
    core::CacheStudy cache, dram;
    core::IqStudy iq;
    sample::SampledCacheStudy scache;
    sample::SampledIqStudy siq;

    // One pass = the four timed calls; untraced runs repeat passes
    // until --seconds is spent (at least one), with host probe samples
    // as wide as the pool before each pass.
    auto runPass = [&](const obs::Hooks &hooks, const std::string &suffix) {
        if (!args.trace)
            for (double cpu : probeInChild(jobs))
                report.cpu["probe"].push_back(cpu);
        Timing t;
        {
            Scope s(log, "cache_study" + suffix);
            t = timed([&] {
                cache = core::runCacheStudy(in->flat_model, in->cache_apps,
                                            kCacheRefs, kBoundaries, jobs,
                                            hooks);
            });
        }
        report.record("cache_study_s" + suffix, t);
        {
            Scope s(log, "dram_study" + suffix);
            t = timed([&] {
                dram = core::runCacheStudy(in->dram_model, in->cache_apps,
                                           kCacheRefs, kBoundaries, jobs,
                                           hooks);
            });
        }
        report.record("dram_study_s" + suffix, t);
        {
            Scope s(log, "iq_study" + suffix);
            t = timed([&] {
                iq = core::runIqStudy(in->iq_model, in->iq_apps, kIqInstrs,
                                      jobs, hooks);
            });
        }
        report.record("iq_study_s" + suffix, t);
        {
            Scope s(log, "sampled_study" + suffix);
            t = timed([&] {
                scache = sample::runSampledCacheStudy(
                    in->flat_model, in->cache_apps, kSampledCacheRefs,
                    in->sample_params, kBoundaries, jobs, hooks);
                siq = sample::runSampledIqStudy(
                    in->iq_model, in->iq_apps, kSampledIqInstrs,
                    in->sample_params, jobs, hooks);
            });
        }
        report.record("sampled_study_s" + suffix, t);
        report.attempted += 5;

        // Outside the timed calls: render, digest, and hold every pass
        // to the first pass's bytes.
        std::map<std::string, std::string> r =
            renderStatic(*in, cache, dram, iq, scache, siq);
        if (first_digests.empty()) {
            for (const auto &[name, text] : r)
                first_digests[name] = digestOf(text);
            checkDelivered(report, *in, cache, dram, iq, scache, siq);
        } else {
            for (const auto &[name, text] : r)
                report.check(digestOf(text) == first_digests[name],
                             name + " output differs between passes");
        }
    };

    // Warm-up outside the timed region: one cache study brings the
    // host's cores and the allocator out of their idle state, which
    // otherwise inflates whichever call comes first.
    (void)core::runCacheStudy(in->flat_model, in->cache_apps, kCacheRefs,
                              kBoundaries, jobs);

    const auto start = Clock::now();
    int passes = 0;
    if (!args.trace) {
        do {
            runPass({}, "");
            ++passes;
        } while (secondsSince(start) < args.seconds);
    } else {
        // Traced run: untraced and traced passes alternate, so the
        // overhead compares like with like; then the layer split.
        obs::CounterRegistry registry;
        obs::Hooks hooks;
        hooks.registry = &registry;
        hooks.profiler = &profiler;
        do {
            runPass({}, "");
            if (passes == 0) {
                for (const core::RunTelemetry *t :
                     {&cache.telemetry, &dram.telemetry, &iq.telemetry,
                      &scache.telemetry, &siq.telemetry})
                    addPoolTelemetry(report.layers, *t);
                // Applications the DRAM study could not score from one
                // stack-distance pass (per-config cells, not "onepass").
                std::set<std::string> per_config;
                for (const core::CellTelemetry &cell : dram.telemetry.cells)
                    if (cell.config.rfind("onepass", 0) != 0)
                        per_config.insert(cell.app);
                report.layers.add("cache.dram_fallbacks",
                                  static_cast<double>(per_config.size()));
            }
            obs::CounterRegistry pass_registry;
            hooks.registry = passes == 0 ? &registry : &pass_registry;
            runPass(hooks, ".traced");
            ++passes;
        } while (secondsSince(start) < args.seconds * 0.25);
        addModelled(report.layers, registry);
        decomposeStatic(*in, cache, dram, iq, scache, siq, log, report);
        report.attempted += 4;
        reportUntracedParts(report, {"cache_study_s", "dram_study_s",
                                     "iq_study_s", "sampled_study_s"});
    }
    report.digests = first_digests;

    // The modelled-accuracy line: this seed, plus one held-out seed
    // (the default seed when this run used another), outside the timed
    // region.
    {
        std::ostringstream acc;
        acc << "\"accuracy\": [" << accuracyJson(args.seed, cache, iq);
        uint64_t other =
            args.seed == kDefaultSeed ? kHeldOutSeed : kDefaultSeed;
        std::vector<trace::AppProfile> capps =
            reseeded(trace::cacheStudyApps(), other);
        std::vector<trace::AppProfile> iapps =
            reseeded(trace::iqStudyApps(), other);
        core::CacheStudy c2 = core::runCacheStudy(
            in->flat_model, capps, kCacheRefs, kBoundaries, jobs);
        core::IqStudy i2 =
            core::runIqStudy(in->iq_model, iapps, kIqInstrs, jobs);
        acc << ", " << accuracyJson(other, c2, i2) << "]";
        report.extra_json.push_back(acc.str());
    }

    if (args.trace) {
        profiler.disarm();
        finishLayers(report.layers);
    }
    writeReport(args, "static-study", ready_ns, report, passes);
    writeSpans(args, log, args.trace ? &profiler : nullptr);
    return 0;
}

// ---------------------------------------------------------------------
// interval-study
// ---------------------------------------------------------------------

struct IntervalInputs
{
    std::vector<trace::AppProfile> iq_apps; ///< turb3d, vortex
    trace::AppProfile demo;
    core::AdaptiveIqModel iq_model;
    core::AdaptiveCacheModel cache_model;
    core::IntervalPolicyParams params;
    core::CacheIntervalParams hill_params;
    core::PhasePredictorParams pred_params;
};

std::unique_ptr<IntervalInputs>
intervalSetup(uint64_t seed)
{
    auto in = std::make_unique<IntervalInputs>();
    for (const char *name : {"turb3d", "vortex"})
        in->iq_apps.push_back(reseeded(trace::findApp(name), seed));
    in->demo = reseeded(trace::phasedCacheDemo(), seed);
    return in;
}

struct IqTriggerRuns
{
    core::IntervalRunResult period, phase, hybrid, oracle;
};

struct CacheIntervalRuns
{
    core::CacheIntervalResult hill, pred, oracle;
};

/** `interval-run --compare-triggers`'s table, byte for byte. */
std::string
renderTriggers(const std::string &app, const IqTriggerRuns &r)
{
    std::ostringstream out;
    double gap = r.period.tpi() - r.oracle.tpi();
    TableWriter table("trigger comparison, " + app + ", " +
                      std::to_string(kIntervalInstrs) + " instructions");
    table.setHeader({"mode", "avg_tpi_ns", "total_us", "reconfigs",
                     "committed", "transitions", "snaps", "gap_closed_%"});
    auto row = [&](const char *name, const core::IntervalRunResult &x) {
        double closed =
            gap > 0.0 ? 100.0 * (r.period.tpi() - x.tpi()) / gap : 0.0;
        table.addRow({Cell(name), Cell(x.tpi(), 4),
                      Cell(x.total_time_ns / 1000.0, 3),
                      Cell(x.reconfigurations), Cell(x.committed_moves),
                      Cell(x.phase_transitions), Cell(x.phase_snaps),
                      Cell(closed, 1)});
    };
    row("period", r.period);
    row("phase", r.phase);
    row("hybrid", r.hybrid);
    row("oracle", r.oracle);
    table.renderAscii(out);
    return out.str();
}

/** `bench_ext_cache_interval`'s policy rows. */
std::string
renderCachePolicies(const CacheIntervalRuns &r)
{
    std::ostringstream out;
    TableWriter table("Policies");
    table.setHeader({"policy", "tpi", "total_us", "reconfigurations"});
    auto add = [&](const std::string &name,
                   const core::CacheIntervalResult &x) {
        table.addRow({Cell(name), Cell(x.tpi(), 4),
                      Cell(x.total_time_ns / 1000.0, 3),
                      Cell(x.reconfigurations)});
    };
    add("hill climber (confidence-gated)", r.hill);
    add("phase-memory predictor", r.pred);
    add("per-interval oracle (switches charged)", r.oracle);
    table.renderAscii(out);
    return out.str();
}

/** Replay a controller's config trace through CoreModel (step/resize). */
uint64_t
replayConfigTrace(const trace::AppProfile &app,
                  const core::IntervalRunResult &run,
                  const core::IntervalPolicyParams &params, SpanLog &log,
                  LayerMetrics &L)
{
    TimedOpSource source(app.ilp, app.seed);
    ooo::CoreParams cp;
    cp.queue_entries = kInitialEntries;
    cp.dispatch_width = core::IqMachine::kDispatchWidth;
    cp.issue_width = core::IqMachine::kIssueWidth;
    Scope s(log, "ooo.core");
    ooo::CoreModel core_model(source, cp);
    uint64_t done = 0;
    for (int entries : run.config_trace) {
        if (done >= run.instructions)
            break;
        if (entries != core_model.queueEntries())
            core_model.resize(entries);
        uint64_t want =
            std::min(params.interval_instrs, run.instructions - done);
        done += core_model.step(want).instructions;
    }
    log.note(s.id(), "stream_s", source.seconds());
    L.add("ooo.stream_", source.seconds());
    L.add("ooo.core_stream_", source.seconds());
    L.add("ooo.uops", static_cast<double>(source.ops()));
    L.add("ooo.core_instrs", static_cast<double>(done));
    return done;
}

void
decomposeInterval(const IntervalInputs &in,
                  const std::vector<IqTriggerRuns> &iq_runs,
                  const CacheIntervalRuns &cache_runs, SpanLog &log,
                  Report &report)
{
    LayerMetrics &L = report.layers;
    bool iq_ok = true;
    {
        Scope parent(log, "decompose.interval_iq");
        for (size_t a = 0; a < in.iq_apps.size(); ++a) {
            const trace::AppProfile &app = in.iq_apps[a];
            const IqTriggerRuns &r = iq_runs[a];
            for (const core::IntervalRunResult *run :
                 {&r.period, &r.phase, &r.hybrid})
                iq_ok = iq_ok && replayConfigTrace(app, *run, in.params,
                                                   log, L) ==
                                     run->instructions;
            // The phase detector the phase and hybrid triggers consult.
            for (int rep = 0; rep < 2; ++rep) {
                sample::OnlinePhaseParams pp;
                pp.distance_threshold = in.params.phase_distance_threshold;
                pp.max_phases = in.params.max_phases;
                Scope s(log, "sample.phase");
                sample::OnlinePhaseDetector detector(app.ilp, app.seed, pp);
                for (uint64_t done = 0; done < kIntervalInstrs;) {
                    uint64_t n = std::min(in.params.interval_instrs,
                                          kIntervalInstrs - done);
                    detector.observe(n);
                    done += n;
                }
            }
            // The oracle's one-pass walk: every queue size over the run.
            TimedOpSource source(app.ilp, app.seed);
            const std::vector<int> sizes =
                core::AdaptiveIqModel::studySizes();
            ooo::CoreParams cp;
            cp.queue_entries = sizes.front();
            cp.dispatch_width = core::IqMachine::kDispatchWidth;
            cp.issue_width = core::IqMachine::kIssueWidth;
            Scope s(log, "ooo.sweep");
            ooo::WindowSweeper sweeper(source, cp, sizes);
            sweeper.disableHistory();
            sweeper.advanceAllTo(kIntervalInstrs);
            log.note(s.id(), "stream_s", source.seconds());
            L.add("ooo.sweep_stream_", source.seconds());
            L.add("ooo.stream_", source.seconds());
            L.add("ooo.uops", static_cast<double>(source.ops()));
            L.add("ooo.sweep_instrs",
                  static_cast<double>(kIntervalInstrs * sweeper.laneCount()));
        }
    }
    report.check(iq_ok, "interval IQ config-trace replay delivered");

    bool cache_ok = true;
    {
        Scope parent(log, "decompose.interval_cache");
        std::vector<trace::TraceRecord> refs(kIntervalCacheRefs);
        {
            Scope s(log, "trace.gen");
            trace::SyntheticTraceSource source(in.demo.cache, in.demo.seed,
                                               kIntervalCacheRefs);
            cache_ok = source.nextBatch(refs.data(), kIntervalCacheRefs) ==
                       kIntervalCacheRefs;
        }
        L.add("trace.refs", static_cast<double>(kIntervalCacheRefs));
        const uint64_t interval = in.hill_params.interval_refs;
        for (const core::CacheIntervalResult *run :
             {&cache_runs.hill, &cache_runs.pred}) {
            Scope s(log, "cache.hier");
            cache::ExclusiveHierarchy hierarchy(in.cache_model.geometry(),
                                                kInitialBoundary);
            uint64_t done = 0;
            for (int k : run->boundary_trace) {
                if (done >= kIntervalCacheRefs)
                    break;
                if (k != hierarchy.l1Increments())
                    hierarchy.setBoundary(k);
                uint64_t end = std::min(done + interval, kIntervalCacheRefs);
                for (; done < end; ++done)
                    hierarchy.access(refs[done]);
            }
            cache_ok = cache_ok && done == run->refs;
            L.add("cache.hier_refs", static_cast<double>(done));
            // The controllers take no obs hooks; their modelled hit
            // counts come from this replay of their boundary choices.
            const cache::CacheStats &stats = hierarchy.stats();
            L.add("cache.l1_hits", static_cast<double>(stats.l1_hits));
            L.add("cache.l2_hits", static_cast<double>(stats.l2_hits));
            L.add("cache.misses", static_cast<double>(stats.misses));
        }
        {
            Scope s(log, "cache.stack");
            cache::StackSimulator stack(in.cache_model.geometry());
            for (uint64_t done = 0; done < kIntervalCacheRefs;
                 done += interval) {
                uint64_t n = std::min(interval, kIntervalCacheRefs - done);
                stack.accessBatch(refs.data() + done, n);
                (void)stack.statsAll();
            }
        }
        L.add("cache.stack_refs", static_cast<double>(kIntervalCacheRefs));
    }
    report.check(cache_ok, "interval cache boundary-trace replay delivered");

    L.set("ooo.stream_s", L.get("ooo.stream_"));
    L.set("ooo.core_s", log.total("ooo.core") - L.get("ooo.core_stream_"));
    L.set("ooo.sweep_s", log.total("ooo.sweep") - L.get("ooo.sweep_stream_"));
    L.set("sample.phase_s", log.total("sample.phase"));
    L.set("trace.gen_s", log.total("trace.gen"));
    L.set("cache.hier_s", log.total("cache.hier"));
    L.set("cache.stack_s", log.total("cache.stack"));
    L.set("obs.unattributed_pct", log.unattributedPct("decompose."));
}

int
runInterval(const Args &args)
{
    SpanLog log(args.trace);
    obs::SpanProfiler profiler;
    if (args.trace)
        armProfiler(profiler, args.jobs);

    std::unique_ptr<IntervalInputs> in;
    {
        Scope s(log, "setup");
        in = intervalSetup(args.seed);
    }
    const uint64_t ready_ns = monoNs();
    Report report;
    if (args.setup_only) {
        writeReport(args, "interval-study", ready_ns, report, 0);
        return 0;
    }

    const std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    const std::vector<int> boundaries = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<IqTriggerRuns> iq_runs(in->iq_apps.size());
    CacheIntervalRuns cache_runs;
    obs::CounterRegistry registry;
    std::string first_digest;

    // controller/oracle spans only count in the traced passes.
    auto span = [&](const std::string &name, bool traced) {
        return traced ? log.open(name) : -1;
    };
    // Untraced runs take host probe samples, one thread wide like the
    // calls, before each pass.
    auto runPass = [&](const obs::Hooks &hooks, const std::string &suffix) {
        const bool traced = !suffix.empty();
        if (!args.trace)
            for (double cpu : probeInChild(1))
                report.cpu["probe"].push_back(cpu);
        Timing t = timed([&] {
            for (size_t a = 0; a < in->iq_apps.size(); ++a) {
                const trace::AppProfile &app = in->iq_apps[a];
                IqTriggerRuns &r = iq_runs[a];
                auto runMode = [&](core::IntervalTrigger trigger) {
                    core::IntervalPolicyParams p = in->params;
                    p.trigger = trigger;
                    int id = span("core.controller", traced);
                    core::IntervalRunResult result =
                        core::IntervalAdaptiveIq(in->iq_model, p)
                            .run(app, kIntervalInstrs, kInitialEntries,
                                 hooks);
                    log.close(id);
                    return result;
                };
                r.period = runMode(core::IntervalTrigger::Period);
                r.phase = runMode(core::IntervalTrigger::PhaseChange);
                r.hybrid = runMode(core::IntervalTrigger::Hybrid);
                int id = span("core.oracle", traced);
                r.oracle = core::runIntervalOracle(
                    in->iq_model, app, kIntervalInstrs, sizes,
                    in->params.interval_instrs, true,
                    in->params.switch_penalty_cycles, 1, hooks);
                log.close(id);
            }
        });
        report.record("interval_iq_s" + suffix, t);
        t = timed([&] {
            int id = span("core.controller", traced);
            cache_runs.hill =
                core::IntervalAdaptiveCache(in->cache_model, in->hill_params)
                    .run(in->demo, kIntervalCacheRefs, kInitialBoundary);
            log.close(id);
            id = span("core.controller", traced);
            cache_runs.pred =
                core::PhasePredictiveCache(in->cache_model, in->pred_params)
                    .run(in->demo, kIntervalCacheRefs, kInitialBoundary);
            log.close(id);
            id = span("core.oracle", traced);
            cache_runs.oracle = core::runCacheIntervalOracle(
                in->cache_model, in->demo, kIntervalCacheRefs, boundaries,
                in->hill_params.interval_refs, true,
                core::kClockSwitchPenaltyCycles, 1, hooks);
            log.close(id);
        });
        report.record("interval_cache_s" + suffix, t);
        report.attempted += 4 * in->iq_apps.size() + 3;

        std::string text;
        for (size_t a = 0; a < in->iq_apps.size(); ++a)
            text += renderTriggers(in->iq_apps[a].name, iq_runs[a]);
        text += renderCachePolicies(cache_runs);
        if (first_digest.empty()) {
            first_digest = digestOf(text);
            bool delivered = true;
            for (const IqTriggerRuns &r : iq_runs)
                for (const core::IntervalRunResult *x :
                     {&r.period, &r.phase, &r.hybrid, &r.oracle})
                    delivered = delivered && x->instructions == kIntervalInstrs;
            for (const core::CacheIntervalResult *x :
                 {&cache_runs.hill, &cache_runs.pred, &cache_runs.oracle})
                delivered = delivered && x->refs == kIntervalCacheRefs;
            report.check(delivered,
                         "interval runs instructions/refs delivered");
        } else {
            report.check(digestOf(text) == first_digest,
                         "interval output differs between passes");
        }
    };

    // Warm-up outside the timed region (see runStatic).
    (void)core::IntervalAdaptiveCache(in->cache_model, in->hill_params)
        .run(in->demo, kIntervalCacheRefs, kInitialBoundary);

    const auto start = Clock::now();
    int passes = 0;
    if (!args.trace) {
        do {
            runPass({}, "");
            ++passes;
        } while (secondsSince(start) < args.seconds);
    } else {
        obs::Hooks hooks;
        hooks.profiler = &profiler;
        do {
            runPass({}, "");
            obs::CounterRegistry pass_registry;
            hooks.registry = passes == 0 ? &registry : &pass_registry;
            runPass(hooks, ".traced");
            if (passes == 0) {
                double reconfigs = 0.0, committed = 0.0;
                for (const IqTriggerRuns &r : iq_runs)
                    for (const core::IntervalRunResult *x :
                         {&r.period, &r.phase, &r.hybrid}) {
                        reconfigs += x->reconfigurations;
                        committed += x->committed_moves;
                    }
                for (const core::CacheIntervalResult *x :
                     {&cache_runs.hill, &cache_runs.pred}) {
                    reconfigs += x->reconfigurations;
                    committed += x->committed_moves;
                }
                report.layers.add("core.reconfigs", reconfigs);
                report.layers.add("core.committed_", committed);
            }
            ++passes;
        } while (secondsSince(start) < args.seconds * 0.25);
        // controller/oracle spans of every traced pass; report per pass.
        report.layers.set("core.controller_s",
                          log.total("core.controller") / passes);
        report.layers.set("core.oracle_s", log.total("core.oracle") / passes);
        addModelled(report.layers, registry);
        decomposeInterval(*in, iq_runs, cache_runs, log, report);
        report.attempted += 2;
        reportUntracedParts(report, {"interval_iq_s", "interval_cache_s"});
        profiler.disarm();
        finishLayers(report.layers);
    }
    report.digests["interval"] = first_digest;
    writeReport(args, "interval-study", ready_ns, report, passes);
    writeSpans(args, log, args.trace ? &profiler : nullptr);
    return 0;
}

// ---------------------------------------------------------------------
// serve-check
// ---------------------------------------------------------------------

/** One distinct job of a serve-replay plan, computed offline. */
struct OfflineJob
{
    std::string request; ///< the submit line, as sent
    serve::JobSpec spec;
    std::vector<std::string> names;
    std::vector<uint64_t> keys;       ///< cellKey per application
    /** Encodes application i's row (the miss path's codec work). */
    std::function<std::string(size_t)> encode;
    std::string output;               ///< the offline render
};

/** Compute a job the way its offline verb does and render it. */
bool
computeOffline(OfflineJob &job, int jobs, const obs::Hooks &hooks,
               std::string &error)
{
    const serve::JobSpec &spec = job.spec;
    std::vector<trace::AppProfile> apps;
    for (const std::string &name : spec.apps)
        apps.push_back(trace::findApp(name));
    job.names = spec.apps;
    for (const trace::AppProfile &app : apps)
        job.keys.push_back(serve::cellKey(spec, app));
    std::ostringstream out;
    switch (spec.kind) {
    case serve::JobKind::CacheSweep: {
        core::AdaptiveCacheModel model;
        model.setMemConfig(spec.mem);
        if (spec.sampled) {
            sample::SampledCacheStudy study = sample::runSampledCacheStudy(
                model, apps, spec.refs, spec.sample, kBoundaries, jobs,
                hooks);
            job.encode = [perf = study.perf](size_t i) {
                return serve::encodeSampledCacheRow(perf[i]);
            };
            serve::renderSampledCacheSweep(out, job.names, study.perf,
                                           spec.refs);
        } else {
            core::CacheStudy study = core::runCacheStudy(
                model, apps, spec.refs, kBoundaries, jobs, hooks);
            job.encode = [perf = study.perf](size_t i) {
                return serve::encodeCacheRow(perf[i]);
            };
            serve::renderCacheSweep(out, job.names, study.perf, spec.refs);
        }
        break;
    }
    case serve::JobKind::IqSweep: {
        core::AdaptiveIqModel model;
        if (spec.sampled) {
            sample::SampledIqStudy study = sample::runSampledIqStudy(
                model, apps, spec.instrs, spec.sample, jobs, hooks);
            job.encode = [perf = study.perf](size_t i) {
                return serve::encodeSampledIqRow(perf[i]);
            };
            serve::renderSampledIqSweep(out, job.names, study.perf,
                                        spec.instrs);
        } else {
            core::IqStudy study =
                core::runIqStudy(model, apps, spec.instrs, jobs, hooks);
            job.encode = [perf = study.perf](size_t i) {
                return serve::encodeIqRow(perf[i]);
            };
            serve::renderIqSweep(out, job.names, study.perf, spec.instrs);
        }
        break;
    }
    case serve::JobKind::IntervalRun: {
        if (apps.size() != 1) {
            error = "interval-run needs one application";
            return false;
        }
        core::AdaptiveIqModel model;
        core::IntervalRunResult result =
            core::IntervalAdaptiveIq(model, spec.params)
                .run(apps[0], spec.instrs, spec.entries, hooks);
        serve::IntervalSummary summary =
            serve::summarizeIntervalRun(result, spec.entries);
        job.encode = [summary](size_t) {
            return serve::encodeIntervalSummary(summary);
        };
        serve::renderIntervalRun(out, job.names[0], spec.instrs,
                                 spec.params.trigger !=
                                     core::IntervalTrigger::Period,
                                 summary);
        break;
    }
    }
    job.output = out.str();
    return true;
}

/** Decode a job's cached rows and render them (the hit path). */
template <typename Row>
bool
decodeRows(const std::vector<std::string> &encoded,
           bool (*decode)(const std::string &, Row &),
           std::vector<Row> &rows)
{
    rows.resize(encoded.size());
    for (size_t i = 0; i < encoded.size(); ++i)
        if (!decode(encoded[i], rows[i]))
            return false;
    return true;
}

/** Decode (timed as codec) then render (timed as render). */
bool
decodeAndRender(const OfflineJob &job,
                const std::vector<std::string> &encoded, SpanLog &log,
                int64_t req, std::string &text)
{
    const serve::JobSpec &spec = job.spec;
    std::ostringstream out;
    bool ok = true;
    auto both = [&](auto &rows, auto decode, auto render) {
        {
            Scope s(log, "serve.codec", req);
            ok = decodeRows(encoded, decode, rows);
        }
        if (!ok)
            return;
        Scope s(log, "serve.render", req);
        render(rows);
    };
    if (spec.kind == serve::JobKind::CacheSweep && spec.sampled) {
        std::vector<std::vector<sample::SampledCachePerf>> rows;
        both(rows, &serve::decodeSampledCacheRow, [&](auto &r) {
            serve::renderSampledCacheSweep(out, job.names, r, spec.refs);
        });
    } else if (spec.kind == serve::JobKind::CacheSweep) {
        std::vector<std::vector<core::CachePerf>> rows;
        both(rows, &serve::decodeCacheRow, [&](auto &r) {
            serve::renderCacheSweep(out, job.names, r, spec.refs);
        });
    } else if (spec.kind == serve::JobKind::IqSweep && spec.sampled) {
        std::vector<std::vector<sample::SampledIqPerf>> rows;
        both(rows, &serve::decodeSampledIqRow, [&](auto &r) {
            serve::renderSampledIqSweep(out, job.names, r, spec.instrs);
        });
    } else if (spec.kind == serve::JobKind::IqSweep) {
        std::vector<std::vector<core::IqPerf>> rows;
        both(rows, &serve::decodeIqRow, [&](auto &r) {
            serve::renderIqSweep(out, job.names, r, spec.instrs);
        });
    } else {
        std::vector<serve::IntervalSummary> rows;
        both(rows, &serve::decodeIntervalSummary, [&](auto &r) {
            serve::renderIntervalRun(out, job.names[0], spec.instrs,
                                     spec.params.trigger !=
                                         core::IntervalTrigger::Period,
                                     r[0]);
        });
    }
    text = out.str();
    return ok;
}

/**
 * Serve one request of the plan against @p cache the way the executor
 * resolves cells: parse the request, get every cell, encode and put the
 * misses (rows from the offline computation), decode, render.
 */
bool
replayRequest(const OfflineJob &job, serve::ResultCache &cache,
              SpanLog &log, int64_t req, std::string &text)
{
    Scope request(log, "serve.request", req);
    bool parsed;
    {
        Scope s(log, "serve.codec", req);
        json::Value value;
        std::string error;
        serve::JobSpec spec;
        parsed = json::parse(job.request, value, error) &&
                 value.find("job") &&
                 serve::jobFromJson(*value.find("job"), spec, error);
    }
    std::vector<std::string> encoded(job.keys.size());
    for (size_t c = 0; c < job.keys.size(); ++c) {
        bool hit;
        {
            Scope s(log, "serve.lookup", req);
            hit = cache.get(job.keys[c], encoded[c]);
        }
        if (!hit) {
            {
                Scope s(log, "serve.codec", req);
                encoded[c] = job.encode(c);
            }
            Scope s(log, "serve.insert", req);
            cache.put(job.keys[c], encoded[c]);
        }
    }
    return decodeAndRender(job, encoded, log, req, text) && parsed;
}

/** Replay one pass of the plan's request sequence against @p cache. */
void
replayPass(const std::vector<OfflineJob> &jobs,
           const std::vector<size_t> &sequence, serve::ResultCache &cache,
           SpanLog &log, int64_t &req, Report &report)
{
    for (size_t index : sequence) {
        std::string text;
        bool ok = replayRequest(jobs[index], cache, log, req, text);
        report.check(ok && text == jobs[index].output,
                     "replayed request renders the offline bytes");
        ++req;
    }
}

/**
 * Replay every pass of the plan from an empty spill, each pass on a
 * fresh ResultCache of the pass's capacity over the spill the passes
 * before it wrote; returns the last pass's spill hits.
 */
uint64_t
replayPlan(const std::vector<OfflineJob> &jobs,
           const std::vector<std::vector<size_t>> &passes,
           const std::vector<size_t> &capacity, const std::string &spill,
           SpanLog &log, int64_t &req, Report &report)
{
    std::remove(spill.c_str());
    uint64_t spill_hits = 0;
    for (size_t p = 0; p < passes.size(); ++p) {
        std::unique_ptr<serve::ResultCache> cache;
        {
            Scope s(log, "serve.spill_load");
            cache = std::make_unique<serve::ResultCache>(capacity[p], spill);
        }
        Scope s(log, "serve.replay");
        replayPass(jobs, passes[p], *cache, log, req, report);
        spill_hits = cache->stats().spill_hits;
    }
    std::remove(spill.c_str());
    return spill_hits;
}

/** Untraced and traced replays of a plan, alternately, in a traced run. */
constexpr int kReplayReps = 3;

int
runServeCheck(const Args &args)
{
    SpanLog log(args.trace);
    obs::SpanProfiler profiler;
    if (args.trace)
        armProfiler(profiler, args.jobs);
    Report report;
    const uint64_t ready_ns = monoNs();

    std::ifstream file(args.plan_path);
    if (!file) {
        std::cerr << "perfbench_harness: cannot read plan '"
                  << args.plan_path << "'\n";
        return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    json::Value plan;
    std::string error;
    if (!json::parse(buffer.str(), plan, error) || !plan.isObject()) {
        std::cerr << "perfbench_harness: bad plan: " << error << "\n";
        return 2;
    }
    const json::Value *requests = plan.find("requests");
    const json::Value *passes = plan.find("passes");
    const json::Value *capacity = plan.find("capacity");
    if (!requests || !requests->isArray() || !passes ||
        !passes->isArray() || !capacity || !capacity->isArray() ||
        passes->array.size() != capacity->array.size()) {
        std::cerr << "perfbench_harness: plan needs requests, passes and "
                     "capacity arrays\n";
        return 2;
    }

    obs::CounterRegistry registry;
    obs::Hooks hooks;
    if (args.trace)
        hooks.registry = &registry;
    std::vector<OfflineJob> jobs(requests->array.size());
    {
        Scope s(log, "serve.offline");
        for (size_t i = 0; i < jobs.size(); ++i) {
            OfflineJob &job = jobs[i];
            job.request = requests->array[i].string;
            json::Value line;
            const json::Value *body = nullptr;
            if (json::parse(job.request, line, error))
                body = line.find("job");
            ++report.attempted;
            if (!body || !serve::jobFromJson(*body, job.spec, error) ||
                !computeOffline(job, args.jobs, hooks, error)) {
                report.check(false, "request " + std::to_string(i) + ": " +
                                        error);
                continue;
            }
        }
    }

    if (args.trace && report.failed == 0) {
        LayerMetrics &L = report.layers;
        std::vector<std::vector<size_t>> sequences;
        std::vector<size_t> caps;
        for (size_t p = 0; p < passes->array.size(); ++p) {
            sequences.emplace_back();
            for (const json::Value &v : passes->array[p].array)
                sequences.back().push_back(static_cast<size_t>(v.number));
            caps.push_back(static_cast<size_t>(capacity->array[p].number));
        }
        const std::string spill = plan.stringOr("spill");
        // obs.trace_overhead_pct compares the untraced replays' median
        // wall time with the traced ones'; the layer figures come from
        // the traced replays' spans.
        std::vector<double> plain, traced;
        int64_t req = 0, untraced_req = 0;
        uint64_t spill_hits = 0;
        for (int rep = 0; rep < kReplayReps; ++rep) {
            SpanLog off(false);
            plain.push_back(timed([&] {
                replayPlan(jobs, sequences, caps, spill, off, untraced_req,
                           report);
            }).wall_s);
            traced.push_back(timed([&] {
                spill_hits = replayPlan(jobs, sequences, caps, spill, log,
                                        req, report);
            }).wall_s);
        }
        std::sort(plain.begin(), plain.end());
        std::sort(traced.begin(), traced.end());
        const double plain_s = plain[plain.size() / 2];
        L.set("obs.trace_overhead_pct",
              100.0 * ratio(traced[traced.size() / 2] - plain_s, plain_s));
        auto perCall = [&](const char *name, double per) {
            uint64_t n = log.count(name);
            return n ? per * log.total(name) / static_cast<double>(n) : 0.0;
        };
        double requests_n = static_cast<double>(req);
        L.set("serve.lookup_us", perCall("serve.lookup", 1e6));
        L.set("serve.insert_us", perCall("serve.insert", 1e6));
        L.set("serve.codec_us",
              requests_n ? 1e6 * log.total("serve.codec") / requests_n : 0.0);
        L.set("serve.render_us",
              requests_n ? 1e6 * log.total("serve.render") / requests_n
                         : 0.0);
        // The first pass starts from no spill; every later one re-indexes
        // the spill the passes before it wrote.
        L.set("serve.spill_load_s",
              log.total("serve.spill_load") / kReplayReps);
        L.set("serve.spill_hits", static_cast<double>(spill_hits));
        addModelled(L, registry);
        L.add("core.reconfigs", counter(registry, "interval.reconfigurations"));
        L.add("core.committed_",
              counter(registry, "interval.committed_moves"));
        L.set("obs.unattributed_pct", log.unattributedPct("serve.request"));
        report.attempted += static_cast<uint64_t>(req + untraced_req);
    }

    std::ostringstream renders;
    renders << "\"renders\": [";
    for (size_t i = 0; i < jobs.size(); ++i)
        renders << (i ? ", " : "") << json::quote(jobs[i].output);
    renders << "]";
    report.extra_json.push_back(renders.str());
    if (args.trace) {
        profiler.disarm();
        finishLayers(report.layers);
    }
    writeReport(args, "serve-check", ready_ns, report, 0);
    writeSpans(args, log, args.trace ? &profiler : nullptr);
    return 0;
}

/**
 * probe: host probe samples, as wide as --jobs, after one untimed
 * warm-up sample.  Reports them as "probe" times.
 */
int
runProbe(const Args &args)
{
    HostProbe probe(args.jobs);
    (void)probe.sample();
    const uint64_t ready_ns = monoNs();
    Report report;
    for (int i = 0; i < kProbeSamples; ++i)
        report.record("probe", probe.sample());
    writeReport(args, "probe", ready_ns, report, 0);
    return 0;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return false;
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (flag == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value().c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value() == "1";
        else if (flag == "--jobs")
            args.jobs = std::max(1, std::atoi(value().c_str()));
        else if (flag == "--spans")
            args.spans_path = value();
        else if (flag == "--plan")
            args.plan_path = value();
        else if (flag == "--setup-only")
            args.setup_only = true;
        else
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    args.start_ns = monoNs();
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench_harness "
                     "static|interval|serve-check|probe "
                     "[--seed N] [--seconds S] [--trace 0|1] [--jobs J] "
                     "[--spans PATH] [--plan PATH] [--setup-only]\n";
        return 2;
    }
    if (args.mode == "static")
        return runStatic(args);
    if (args.mode == "interval")
        return runInterval(args);
    if (args.mode == "serve-check")
        return runServeCheck(args);
    if (args.mode == "probe")
        return runProbe(args);
    std::cerr << "perfbench_harness: unknown mode '" << args.mode << "'\n";
    return 2;
}
