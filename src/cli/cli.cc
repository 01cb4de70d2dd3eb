#include "cli.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "mem/mem_model.h"
#include "core/experiment.h"
#include "core/interval_controller.h"
#include "obs/decision_trace.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "obs/trace_reader.h"
#include "ooo/stream.h"
#include "ooo/uop_file.h"
#include "sample/study.h"
#include "serve/render.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "trace/analysis.h"
#include "trace/file_trace.h"
#include "trace/stream.h"
#include "trace/workloads.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/units.h"

namespace cap::cli {

std::string
Options::get(const std::string &key, const std::string &fallback) const
{
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

namespace {

/** @p text as a decimal integer in [@p min, @p max], all of it. */
bool
parseU64(const std::string &text, uint64_t min, uint64_t max,
         uint64_t &value)
{
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, value);
    return !text.empty() && ec == std::errc() && end == last &&
           value >= min && value <= max;
}

} // namespace

uint64_t
Options::getU64(const std::string &key, uint64_t fallback, uint64_t min,
                uint64_t max) const
{
    auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    uint64_t value = 0;
    if (!parseU64(it->second, min, max, value))
        throw UsageError("--" + key + " must be an integer in [" +
                         std::to_string(min) + ", " + std::to_string(max) +
                         "], got '" + it->second + "'");
    return value;
}

double
Options::getDouble(const std::string &key, double fallback) const
{
    auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    const std::string &text = it->second;
    const char *last = text.data() + text.size();
    double value = 0.0;
    // from_chars takes no '+' but does take '-', "inf" and "nan"; a
    // leading digit or point rules all three out.
    auto [end, ec] = std::from_chars(text.data(), last, value);
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '.') ||
        ec != std::errc() || end != last)
        throw UsageError("--" + key +
                         " must be a finite unsigned number, got '" +
                         text + "'");
    return value;
}

Options
parseArgs(const std::vector<std::string> &args)
{
    Options options;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            options.positional.push_back(arg);
            continue;
        }
        std::string key = arg.substr(2);
        std::string value;
        size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < args.size() &&
                   args[i + 1].rfind("--", 0) != 0) {
            value = args[++i];
        }
        options.flags[key] = value;
    }
    return options;
}

namespace {

int
cmdHelp(std::ostream &out)
{
    out << "capsim -- Complexity-Adaptive Processor simulator\n"
           "\n"
           "usage: capsim <command> [options]\n"
           "\n"
           "commands:\n"
           "  apps                         list the 22-application suite\n"
           "  timing                       print the clock tables\n"
           "  cache-sweep <app|all>        TPI vs L1/L2 boundary\n"
           "      [--refs N]               references per run\n"
           "      [--jobs N]               worker threads (0 = all cores)\n"
           "      [--sample[=k,ivl[,wrm]]] estimate cells from cluster\n"
           "                               representatives (sampled mode)\n"
           "      [--mem SPEC]             miss backend: flat (default)\n"
           "                               or dram[:k=v,..] -- banked\n"
           "                               DRAM + MSHRs (docs/MEMORY.md)\n"
           "      [--telemetry-json PATH]  write execution telemetry\n"
           "  iq-sweep <app|all>           TPI vs instruction-queue size\n"
           "      [--instrs N]             instructions per run\n"
           "      [--jobs N]               worker threads (0 = all cores)\n"
           "      [--sample[=k,ivl[,wrm]]] estimate cells from cluster\n"
           "                               representatives (sampled mode)\n"
           "      [--mem SPEC]             accepted for symmetry; the\n"
           "                               IQ machine models no memory\n"
           "      [--telemetry-json PATH]  write execution telemetry\n"
           "  sample-profile <app>         cluster one app's intervals and\n"
           "                               print the sampling plan\n"
           "      [--study cache|iq]       which side to profile\n"
           "      [--refs N | --instrs N]  run length\n"
           "      [--interval N] [--clusters K] [--warmup N]\n"
           "      [--cold-prefix N]        exact cold-start span (cache)\n"
           "  sample-run <app|all>         sampled sweep, optionally\n"
           "                               validated against the full run\n"
           "      [--study cache|iq]       which side to run\n"
           "      [--refs N | --instrs N]  run length\n"
           "      [--interval N] [--clusters K] [--warmup N]\n"
           "      [--cold-prefix N]        exact cold-start span (cache)\n"
           "      [--jobs N]               worker threads (0 = all cores)\n"
           "      [--validate]             also run the full sweep and\n"
           "                               report error/speedup per app\n"
           "      [--check]                with --validate: exit 1 unless\n"
           "                               MAE <= --mae-max and the CI\n"
           "                               brackets the best config\n"
           "      [--mae-max PCT]          --check threshold (default 2)\n"
           "      [--oracle]               sampled per-interval oracle\n"
           "                               (iq side, single app)\n"
           "      [--trace-file PATH]      profile + replay a recorded\n"
           "                               trace file instead of the\n"
           "                               synthetic generator (either\n"
           "                               study side, single app)\n"
           "      [--mem SPEC]             cache side requires flat;\n"
           "                               iq side accepts and ignores\n"
           "      [--telemetry-json PATH]  write execution telemetry\n"
           "  interval-run <app>           Section-6 interval controller\n"
           "      [--instrs N]             instructions to run\n"
           "      [--entries N]            initial queue size\n"
           "      [--interval N]           interval length, instructions\n"
           "      [--probe-period N]       intervals between probes\n"
           "      [--confidence N]         confirming probes required\n"
           "      [--trigger MODE]         probe scheduler: period\n"
           "                               (default), phase, or hybrid\n"
           "      [--probe-max N]          backoff ceiling on the probe\n"
           "                               period (phase/hybrid)\n"
           "      [--phase-threshold X]    phase-detector assignment\n"
           "                               radius, z-units\n"
           "      [--compare-triggers]     run period/phase/hybrid plus\n"
           "                               the oracle and report the\n"
           "                               TPI gap each mode closes\n"
           "      [--mem SPEC]             accepted for symmetry; the\n"
           "                               IQ machine models no memory\n"
           "      [--telemetry-json PATH]  write execution telemetry\n"
           "  analyze-trace <path>         per-interval tables from a\n"
           "                               JSONL decision trace\n"
           "      [--app NAME]             filter by application\n"
           "      [--lane LANE]            filter by lane\n"
           "      [--first N] [--last N]   interval range\n"
           "      [--stride N]             print every Nth interval\n"
           "  gen-trace <app> <path>       export a synthetic trace file\n"
           "      [--study cache|iq]       address trace (cache) or uop\n"
           "                               trace (iq)\n"
           "      [--refs N | --instrs N]  records / uops to write\n"
           "  analyze <path>               characterize a trace file\n"
           "      [--limit N] [--block B]  records to read, block bytes\n"
           "  serve                        study-server daemon: JSONL\n"
           "                               protocol, cached cells\n"
           "                               (docs/SERVER.md)\n"
           "      --socket PATH | --stdio  transport\n"
           "      [--jobs N]               cell workers (0 = all cores)\n"
           "      [--queue N]              submit-queue bound\n"
           "      [--cache N]              in-memory cache entries\n"
           "      [--spill PATH]           JSONL cache spill file\n"
           "      [--heartbeats]           stream progress events\n"
           "      [--heartbeat-period S]   seconds between heartbeats\n"
           "  client <study-file>          submit a study to a daemon,\n"
           "                               print the offline verbs'\n"
           "                               exact bytes\n"
           "      --socket PATH            daemon socket\n"
           "      [--events PATH]          append protocol events\n"
           "      [--shutdown]             stop the daemon afterwards\n"
           "  help                         this text\n"
           "\n"
           "observability (sweeps, sample-*, and interval-run):\n"
           "  --trace PATH          JSONL decision trace to PATH, plus a\n"
           "                        Chrome trace to PATH.chrome.json\n"
           "  --chrome-trace PATH   Chrome trace_event JSON destination\n"
           "  --metrics-json PATH   telemetry + counter registry as JSON\n"
           "  --host-profile[=P]    host-side span profiler: stage table\n"
           "                        to stderr, Chrome trace of the spans\n"
           "                        to P when given (results unchanged)\n"
           "  --progress[=P]        live heartbeats: cells done, rate,\n"
           "                        ETA, worker utilization; bare = text\n"
           "                        on stderr, P = JSONL events appended\n"
           "  (use --flag=value before positional arguments; env:\n"
           "  CAPSIM_TRACE / CAPSIM_METRICS / CAPSIM_HOST_PROFILE /\n"
           "  CAPSIM_PROGRESS do the same for the bench binaries; see\n"
           "  docs/OBSERVABILITY.md)\n";
    return 0;
}

int
cmdApps(std::ostream &out)
{
    TableWriter table("Workload suite");
    table.setHeader({"app", "suite", "refs/instr", "cache_mix",
                     "ilp_phases", "cache_study"});
    for (const trace::AppProfile &app : trace::workloadSuite()) {
        table.addRow({Cell(app.name), Cell(trace::suiteName(app.suite)),
                      Cell(app.cache.refs_per_instr, 2),
                      Cell(static_cast<int>(app.cache.mix.size())),
                      Cell(static_cast<int>(app.ilp.phases.size())),
                      Cell(app.in_cache_study ? "yes" : "no")});
    }
    table.renderAscii(out);
    return 0;
}

int
cmdTiming(std::ostream &out)
{
    core::AdaptiveCacheModel cache_model;
    TableWriter cache_table("Adaptive D-cache hierarchy clock table");
    cache_table.setHeader({"L1_config", "cycle_ns", "clock_GHz",
                           "L2_hit_cycles", "miss_cycles"});
    for (const core::CacheBoundaryTiming &t :
         cache_model.allBoundaryTimings()) {
        cache_table.addRow(
            {Cell(std::to_string(t.l1_bytes / 1024) + "KB/" +
                  std::to_string(t.l1_assoc) + "way"),
             Cell(t.cycle_ns, 3), Cell(1.0 / t.cycle_ns, 2),
             Cell(static_cast<int>(t.l2_hit_cycles)),
             Cell(static_cast<int>(t.miss_cycles))});
    }
    cache_table.renderAscii(out);

    core::AdaptiveIqModel iq_model;
    TableWriter iq_table("Adaptive instruction-queue clock table");
    iq_table.setHeader({"entries", "cycle_ns", "clock_GHz"});
    for (const core::IqTiming &t : iq_model.allTimings()) {
        iq_table.addRow({Cell(t.entries), Cell(t.cycle_ns, 3),
                         Cell(1.0 / t.cycle_ns, 2)});
    }
    iq_table.renderAscii(out);
    return 0;
}

std::vector<trace::AppProfile>
selectApps(const std::string &which, bool cache_study, std::ostream &err,
           bool &ok)
{
    ok = true;
    if (which == "all") {
        return cache_study ? trace::cacheStudyApps()
                           : trace::iqStudyApps();
    }
    for (const trace::AppProfile &app : trace::workloadSuite()) {
        if (app.name == which)
            return {app};
    }
    err << "capsim: unknown application '" << which
        << "' (try 'capsim apps')\n";
    ok = false;
    return {};
}

/** The --jobs flag of a study: absent/1 = serial, 0 = every hardware
 *  thread. */
int
jobsFlag(const Options &options)
{
    const int jobs = static_cast<int>(
        options.getU64("jobs", 1, 0, std::numeric_limits<int>::max()));
    return jobs == 0 ? defaultJobs() : jobs;
}

/** The --mem flag: "flat" (default) keeps the fixed-latency miss
 *  model; "dram[:k=v,..]" selects the banked DRAM + MSHR backend
 *  (docs/MEMORY.md).  Returns false (with a message) on a bad spec;
 *  @p config is untouched then. */
bool
memFlag(const Options &options, mem::MemConfig &config, std::ostream &err)
{
    std::string spec = options.get("mem", "flat");
    std::string error;
    if (!mem::parseMemSpec(spec, config, error)) {
        err << "capsim: " << error << "\n";
        return false;
    }
    return true;
}

/** Honour --telemetry-json: write telemetry to PATH when given. */
int
writeTelemetry(const Options &options,
               const core::RunTelemetry &telemetry, std::ostream &err)
{
    std::string path = options.get("telemetry-json");
    if (path.empty())
        return 0;
    std::ofstream file(path);
    if (!file) {
        err << "capsim: cannot write telemetry to '" << path << "'\n";
        return 2;
    }
    telemetry.writeJson(file);
    return 0;
}

/**
 * The observation flags shared by the sweep / sample / interval
 * commands:
 *   --trace PATH          JSONL decision trace to PATH, and a Chrome
 *                         trace to PATH.chrome.json
 *   --chrome-trace PATH   Chrome trace destination (overrides the
 *                         derived name; usable without --trace)
 *   --metrics-json PATH   telemetry + counter registry as one JSON doc
 *   --host-profile[=PATH] host-side span profiler: stage-attribution
 *                         table to stderr, plus a Chrome trace of the
 *                         spans to PATH when given
 *   --progress[=PATH]     live heartbeats; bare/stderr = text lines
 *                         to stderr, PATH = JSONL events appended
 * With none of the flags given, hooks() is inert and the run pays
 * nothing for the instrumentation.  The host-profile and progress
 * sinks observe host time only, never simulated state, so results
 * are bit-identical with them on or off (docs/MODEL.md section 11).
 */
struct ObsSession
{
    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    std::string jsonl_path;
    std::string chrome_path;
    std::string metrics_path;
    std::string host_profile_path;
    std::unique_ptr<obs::SpanProfiler> profiler;
    std::unique_ptr<std::ofstream> progress_file;
    std::unique_ptr<obs::ProgressMeter> progress;

    obs::Hooks hooks()
    {
        obs::Hooks h;
        if (!jsonl_path.empty() || !chrome_path.empty())
            h.trace = &trace;
        if (!metrics_path.empty())
            h.registry = &registry;
        h.profiler = profiler.get();
        h.progress = progress.get();
        return h;
    }

    ObsSession() = default;
    ObsSession(ObsSession &&) = default;
    ObsSession &operator=(ObsSession &&) = default;

    ~ObsSession()
    {
        // Error paths return before writeHostProfile; make sure no
        // dangling global span pointer survives this session.
        if (profiler)
            profiler->disarm();
    }
};

ObsSession
obsSessionFromFlags(const Options &options, std::ostream &err)
{
    ObsSession session;
    session.jsonl_path = options.get("trace");
    session.chrome_path = options.get("chrome-trace");
    if (session.chrome_path.empty() && !session.jsonl_path.empty())
        session.chrome_path = session.jsonl_path + ".chrome.json";
    session.metrics_path = options.get("metrics-json");
    if (options.flags.count("host-profile")) {
        session.host_profile_path = options.get("host-profile");
        session.profiler = std::make_unique<obs::SpanProfiler>();
        session.profiler->arm();
    }
    if (options.flags.count("progress")) {
        std::string spec = options.get("progress");
        if (spec.empty() || spec == "1" || spec == "stderr") {
            session.progress =
                std::make_unique<obs::ProgressMeter>(err, false);
        } else {
            session.progress_file = std::make_unique<std::ofstream>(
                spec, std::ios::app);
            if (*session.progress_file) {
                session.progress = std::make_unique<obs::ProgressMeter>(
                    *session.progress_file, true);
            } else {
                err << "capsim: cannot write progress to '" << spec
                    << "', heartbeats disabled\n";
                session.progress_file.reset();
            }
        }
    }
    return session;
}

/**
 * Finish --host-profile: stop accepting spans, then emit the Chrome
 * trace (when a PATH was given) and the stage-attribution table to
 * @p err.  Safe to call when the flag was absent (no-op), and usable
 * without telemetry (sample-profile has none).
 */
int
writeHostProfile(ObsSession &session, std::ostream &err)
{
    if (!session.profiler)
        return 0;
    session.profiler->disarm();
    if (!session.host_profile_path.empty()) {
        std::ofstream file(session.host_profile_path);
        if (!file) {
            err << "capsim: cannot write '"
                << session.host_profile_path << "'\n";
            return 2;
        }
        session.profiler->writeChromeTrace(file);
    }
    session.profiler->writeStageTable(err);
    return 0;
}

int
writeObsOutputs(ObsSession &session,
                const core::RunTelemetry &telemetry, std::ostream &err)
{
    auto open = [&err](const std::string &path, std::ofstream &file) {
        file.open(path);
        if (!file)
            err << "capsim: cannot write '" << path << "'\n";
        return static_cast<bool>(file);
    };
    if (!session.jsonl_path.empty()) {
        std::ofstream file;
        if (!open(session.jsonl_path, file))
            return 2;
        session.trace.writeJsonl(file);
    }
    if (!session.chrome_path.empty()) {
        std::ofstream file;
        if (!open(session.chrome_path, file))
            return 2;
        session.trace.writeChromeTrace(file);
    }
    if (!session.metrics_path.empty()) {
        std::ofstream file;
        if (!open(session.metrics_path, file))
            return 2;
        telemetry.writeJson(file, &session.registry);
    }
    return writeHostProfile(session, err);
}

/**
 * The --sample flag of the sweep commands: absent leaves @p enabled
 * false; present (bare, or "k[,interval[,warmup]]") switches the sweep
 * to sampled mode with those knobs over the library defaults.  Use the
 * `--sample=...` form when the flag precedes a positional argument.
 */
bool
sampleFlag(const Options &options, sample::SampleParams &params,
           std::ostream &err, bool &enabled)
{
    enabled = options.flags.count("sample") > 0;
    if (!enabled)
        return true;
    std::string spec = options.get("sample");
    if (spec.empty())
        return true;
    std::vector<uint64_t> values;
    size_t start = 0;
    for (;;) {
        size_t comma = spec.find(',', start);
        std::string part =
            comma == std::string::npos
                ? spec.substr(start)
                : spec.substr(start, comma - start);
        uint64_t value = 0;
        if (!parseU64(part, 1, UINT64_MAX, value)) {
            err << "capsim: bad --sample spec '" << spec
                << "' (want k[,interval[,warmup]]; use --sample=... "
                   "when followed by an application)\n";
            return false;
        }
        values.push_back(value);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (values.size() > 3) {
        err << "capsim: --sample takes at most k,interval,warmup\n";
        return false;
    }
    params.clusters = static_cast<size_t>(values[0]);
    if (values.size() > 1)
        params.interval_len = values[1];
    if (values.size() > 2)
        params.warmup_len = values[2];
    return true;
}

/** The sample-profile / sample-run knob flags over library defaults. */
sample::SampleParams
sampleParamsFromKnobs(const Options &options)
{
    sample::SampleParams params;
    params.interval_len = options.getU64("interval", params.interval_len, 1);
    params.clusters = static_cast<size_t>(
        options.getU64("clusters", params.clusters, 1));
    params.warmup_len = options.getU64("warmup", params.warmup_len);
    params.cold_prefix_len =
        options.getU64("cold-prefix", params.cold_prefix_len);
    return params;
}

int
cmdCacheSweep(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: cache-sweep needs an application (or 'all')\n";
        return 2;
    }
    bool ok = false;
    auto apps = selectApps(options.positional[0], true, err, ok);
    if (!ok)
        return 2;
    uint64_t refs = options.getU64("refs", 150000, 1);
    sample::SampleParams sparams;
    bool sampled = false;
    if (!sampleFlag(options, sparams, err, sampled))
        return 2;
    mem::MemConfig mem_config;
    if (!memFlag(options, mem_config, err))
        return 2;
    const int jobs = jobsFlag(options);
    if (sampled && mem_config.isDram()) {
        err << "capsim: --sample supports --mem=flat only (sampled "
               "reconstruction assumes a position-independent miss "
               "cost)\n";
        return 2;
    }

    ObsSession session = obsSessionFromFlags(options, err);
    core::AdaptiveCacheModel model;
    model.setMemConfig(mem_config);

    std::vector<std::string> names;
    for (const trace::AppProfile &app : apps)
        names.push_back(app.name);

    if (sampled) {
        sample::SampledCacheStudy study = sample::runSampledCacheStudy(
            model, apps, refs, sparams, 8, jobs, session.hooks());
        serve::renderSampledCacheSweep(out, names, study.perf, refs);
        if (int rc = writeTelemetry(options, study.telemetry, err))
            return rc;
        return writeObsOutputs(session, study.telemetry, err);
    }

    core::CacheStudy study = core::runCacheStudy(
        model, apps, refs, 8, jobs, session.hooks());
    serve::renderCacheSweep(out, names, study.perf, refs);
    if (int rc = writeTelemetry(options, study.telemetry, err))
        return rc;
    return writeObsOutputs(session, study.telemetry, err);
}

int
cmdIqSweep(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: iq-sweep needs an application (or 'all')\n";
        return 2;
    }
    bool ok = false;
    auto apps = selectApps(options.positional[0], false, err, ok);
    if (!ok)
        return 2;
    uint64_t instrs = options.getU64("instrs", 120000, 1);
    sample::SampleParams sparams;
    bool sampled = false;
    if (!sampleFlag(options, sparams, err, sampled))
        return 2;
    mem::MemConfig mem_config;
    if (!memFlag(options, mem_config, err))
        return 2;
    const int jobs = jobsFlag(options);
    if (mem_config.isDram()) {
        err << "capsim: note: the IQ-side machine models no memory "
               "hierarchy; --mem=dram is accepted but has no effect "
               "here (docs/MEMORY.md)\n";
    }

    ObsSession session = obsSessionFromFlags(options, err);
    core::AdaptiveIqModel model;

    std::vector<std::string> names;
    for (const trace::AppProfile &app : apps)
        names.push_back(app.name);

    if (sampled) {
        sample::SampledIqStudy study = sample::runSampledIqStudy(
            model, apps, instrs, sparams, jobs, session.hooks());
        serve::renderSampledIqSweep(out, names, study.perf, instrs);
        if (int rc = writeTelemetry(options, study.telemetry, err))
            return rc;
        return writeObsOutputs(session, study.telemetry, err);
    }

    core::IqStudy study =
        core::runIqStudy(model, apps, instrs, jobs, session.hooks());
    serve::renderIqSweep(out, names, study.perf, instrs);
    if (int rc = writeTelemetry(options, study.telemetry, err))
        return rc;
    return writeObsOutputs(session, study.telemetry, err);
}

int
cmdIntervalRun(const Options &options, std::ostream &out,
               std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: interval-run needs an application\n";
        return 2;
    }
    bool ok = false;
    auto apps = selectApps(options.positional[0], false, err, ok);
    if (!ok)
        return 2;
    if (apps.size() != 1) {
        err << "capsim: interval-run needs a single application\n";
        return 2;
    }
    uint64_t instrs = options.getU64("instrs", 120000, 1);
    constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
    int entries =
        static_cast<int>(options.getU64("entries", 32, 0, kIntMax));

    std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    if (std::find(sizes.begin(), sizes.end(), entries) == sizes.end()) {
        err << "capsim: --entries " << entries
            << " is not a study configuration\n";
        return 2;
    }

    core::IntervalPolicyParams params;
    params.interval_instrs =
        options.getU64("interval", core::kIntervalInstructions);
    params.probe_period = static_cast<int>(options.getU64(
        "probe-period", static_cast<uint64_t>(params.probe_period),
        0, kIntMax));
    params.confidence_needed = static_cast<int>(options.getU64(
        "confidence", static_cast<uint64_t>(params.confidence_needed),
        0, kIntMax));
    params.probe_period_max = static_cast<int>(options.getU64(
        "probe-max", static_cast<uint64_t>(params.probe_period_max),
        0, kIntMax));
    params.phase_distance_threshold = options.getDouble(
        "phase-threshold", params.phase_distance_threshold);
    if (params.interval_instrs == 0 || params.probe_period < 2 ||
        params.confidence_needed < 1 ||
        params.probe_period_max < params.probe_period ||
        params.phase_distance_threshold <= 0.0) {
        err << "capsim: invalid interval-controller parameters\n";
        return 2;
    }
    std::string trigger = options.get("trigger", "period");
    if (trigger == "period") {
        params.trigger = core::IntervalTrigger::Period;
    } else if (trigger == "phase") {
        params.trigger = core::IntervalTrigger::PhaseChange;
    } else if (trigger == "hybrid") {
        params.trigger = core::IntervalTrigger::Hybrid;
    } else {
        err << "capsim: --trigger must be period, phase, or hybrid\n";
        return 2;
    }
    mem::MemConfig mem_config;
    if (!memFlag(options, mem_config, err))
        return 2;
    if (mem_config.isDram()) {
        err << "capsim: note: the IQ-side machine models no memory "
               "hierarchy; --mem=dram is accepted but has no effect "
               "here (docs/MEMORY.md)\n";
    }

    core::AdaptiveIqModel model;

    if (options.flags.count("compare-triggers")) {
        // Period vs phase vs hybrid vs oracle on the same run;
        // gap_closed_% = how much of the period-to-oracle TPI gap the
        // mode recovers (the EXPERIMENTS.md phase-trigger table).
        auto runMode = [&](core::IntervalTrigger t) {
            core::IntervalPolicyParams p = params;
            p.trigger = t;
            core::IntervalAdaptiveIq controller(model, p);
            return controller.run(apps[0], instrs, entries);
        };
        core::IntervalRunResult period =
            runMode(core::IntervalTrigger::Period);
        core::IntervalRunResult phase =
            runMode(core::IntervalTrigger::PhaseChange);
        core::IntervalRunResult hybrid =
            runMode(core::IntervalTrigger::Hybrid);
        core::IntervalRunResult oracle = core::runIntervalOracle(
            model, apps[0], instrs, sizes, params.interval_instrs, true,
            params.switch_penalty_cycles);

        double gap = period.tpi() - oracle.tpi();
        TableWriter table("trigger comparison, " + apps[0].name + ", " +
                          std::to_string(instrs) + " instructions");
        table.setHeader({"mode", "avg_tpi_ns", "total_us", "reconfigs",
                         "committed", "transitions", "snaps",
                         "gap_closed_%"});
        auto row = [&](const char *name,
                       const core::IntervalRunResult &r) {
            double closed =
                gap > 0.0 ? 100.0 * (period.tpi() - r.tpi()) / gap : 0.0;
            table.addRow({Cell(name), Cell(r.tpi(), 4),
                          Cell(r.total_time_ns / 1000.0, 3),
                          Cell(r.reconfigurations),
                          Cell(r.committed_moves),
                          Cell(r.phase_transitions), Cell(r.phase_snaps),
                          Cell(closed, 1)});
        };
        row("period", period);
        row("phase", phase);
        row("hybrid", hybrid);
        row("oracle", oracle);
        table.renderAscii(out);
        return 0;
    }

    ObsSession session = obsSessionFromFlags(options, err);
    core::IntervalAdaptiveIq controller(model, params);
    core::IntervalRunResult result =
        controller.run(apps[0], instrs, entries, session.hooks());

    serve::IntervalSummary summary =
        serve::summarizeIntervalRun(result, entries);
    serve::renderIntervalRun(out, apps[0].name, instrs,
                             params.trigger !=
                                 core::IntervalTrigger::Period,
                             summary);

    if (int rc = writeTelemetry(options, result.telemetry, err))
        return rc;
    return writeObsOutputs(session, result.telemetry, err);
}

int
cmdAnalyzeTrace(const Options &options, std::ostream &out,
                std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: analyze-trace needs a JSONL trace file\n";
        return 2;
    }
    std::string app_filter = options.get("app");
    std::string lane_filter = options.get("lane");
    uint64_t first = options.getU64("first", 0);
    uint64_t last =
        options.getU64("last", std::numeric_limits<uint64_t>::max());
    uint64_t stride = options.getU64("stride", 1);
    if (stride == 0)
        stride = 1;

    const std::string &path = options.positional[0];
    std::ifstream file(path);
    if (!file) {
        err << "capsim: cannot open '" << path << "'\n";
        return 2;
    }
    obs::DecisionTrace trace;
    std::string error;
    if (!obs::readTraceJsonl(file, trace, error)) {
        err << "capsim: " << path << ": " << error << '\n';
        return 2;
    }
    auto selected = [&](const obs::TraceEvent &event) {
        if (!app_filter.empty() && event.app != app_filter)
            return false;
        if (!lane_filter.empty() && event.lane != lane_filter)
            return false;
        return true;
    };

    // --- Summary: event counts by kind, lanes, retired total. ---
    std::set<std::string> lanes;
    for (const obs::TraceEvent &event : trace.events())
        lanes.insert(event.lane);
    TableWriter summary("Trace summary: " + path);
    summary.setHeader({"quantity", "value"});
    summary.addRow({Cell("events"),
                    Cell(static_cast<uint64_t>(trace.size()))});
    for (obs::EventKind kind :
         {obs::EventKind::Interval, obs::EventKind::Decision,
          obs::EventKind::Reconfig, obs::EventKind::ClockChange,
          obs::EventKind::Cell, obs::EventKind::Representative,
          obs::EventKind::Phase}) {
        summary.addRow(
            {Cell(std::string(obs::eventKindName(kind)) + " events"),
             Cell(static_cast<uint64_t>(trace.countKind(kind)))});
    }
    summary.addRow(
        {Cell("lanes"), Cell(static_cast<uint64_t>(lanes.size()))});
    summary.addRow({Cell("interval retired total"),
                    Cell(trace.intervalRetiredTotal())});
    summary.renderAscii(out);

    // --- Per-lane rollup. ---
    struct LaneStats
    {
        uint64_t intervals = 0;
        uint64_t retired = 0;
        uint64_t cycles = 0;
        double sim_ns = 0.0;
        std::vector<double> tpi;
    };
    std::map<std::string, LaneStats> lane_stats;
    for (const obs::TraceEvent &event : trace.events()) {
        if (event.kind != obs::EventKind::Interval &&
            event.kind != obs::EventKind::Cell &&
            event.kind != obs::EventKind::Representative)
            continue;
        LaneStats &stats = lane_stats[event.lane];
        ++stats.intervals;
        stats.retired += event.retired;
        stats.cycles += event.cycles;
        stats.sim_ns += event.duration_ns;
        if (event.tpi_ns > 0.0)
            stats.tpi.push_back(event.tpi_ns);
    }
    // Bucket each lane's per-interval TPI into a FixedHistogram so the
    // rollup reports the same p50/p90/p99 estimator as --metrics-json.
    auto tpiPercentiles = [](const std::vector<double> &tpi) {
        std::array<double, 3> p{0.0, 0.0, 0.0};
        if (tpi.empty())
            return p;
        auto [lo_it, hi_it] = std::minmax_element(tpi.begin(), tpi.end());
        double lo = *lo_it;
        double hi = *hi_it;
        if (!(hi > lo))
            hi = lo + 1e-9; // degenerate: all intervals identical
        obs::FixedHistogram hist(lo, hi, 128);
        for (double t : tpi)
            hist.add(t);
        p = {hist.percentile(50), hist.percentile(90),
             hist.percentile(99)};
        return p;
    };
    TableWriter lane_table("Per-lane rollup");
    lane_table.setHeader({"lane", "intervals", "retired", "ipc",
                          "sim_us", "p50_tpi_ns", "p90_tpi_ns",
                          "p99_tpi_ns"});
    for (const auto &[lane, stats] : lane_stats) {
        std::array<double, 3> p = tpiPercentiles(stats.tpi);
        lane_table.addRow(
            {Cell(lane), Cell(stats.intervals), Cell(stats.retired),
             Cell(stats.cycles
                      ? static_cast<double>(stats.retired) /
                            static_cast<double>(stats.cycles)
                      : 0.0,
                  3),
             Cell(stats.sim_ns / 1000.0, 3),
             stats.tpi.empty() ? Cell("-") : Cell(p[0], 4),
             stats.tpi.empty() ? Cell("-") : Cell(p[1], 4),
             stats.tpi.empty() ? Cell("-") : Cell(p[2], 4)});
    }
    lane_table.renderAscii(out);

    // --- Figure 12/13-style per-interval series. ---
    TableWriter intervals("Per-interval series (Figure 12/13 style)");
    intervals.setHeader({"interval", "lane", "config", "retired", "ipc",
                         "tpi_ns", "ewma_tpi_ns"});
    for (const obs::TraceEvent &event : trace.events()) {
        if (event.kind != obs::EventKind::Interval || !selected(event))
            continue;
        if (event.interval < first || event.interval > last ||
            (event.interval - first) % stride != 0)
            continue;
        intervals.addRow(
            {Cell(event.interval), Cell(event.lane), Cell(event.config),
             Cell(event.retired), Cell(event.ipc, 3),
             Cell(event.tpi_ns, 4),
             event.ewma_tpi_ns < 0.0 ? Cell("-")
                                     : Cell(event.ewma_tpi_ns, 4)});
    }
    intervals.renderAscii(out);

    // --- Controller decisions, if the trace has any. ---
    if (trace.countKind(obs::EventKind::Decision) > 0) {
        TableWriter decisions("Controller decisions");
        decisions.setHeader({"interval", "lane", "decision", "candidate",
                             "chosen", "confidence", "ewma_home",
                             "ewma_candidate"});
        for (const obs::TraceEvent &event : trace.events()) {
            if (event.kind != obs::EventKind::Decision ||
                !selected(event))
                continue;
            if (event.interval < first || event.interval > last)
                continue;
            decisions.addRow(
                {Cell(event.interval), Cell(event.lane),
                 Cell(event.decision), Cell(event.candidate),
                 Cell(event.chosen), Cell(event.confidence),
                 event.ewma_home_tpi_ns < 0.0
                     ? Cell("-")
                     : Cell(event.ewma_home_tpi_ns, 4),
                 event.ewma_candidate_tpi_ns < 0.0
                     ? Cell("-")
                     : Cell(event.ewma_candidate_tpi_ns, 4)});
        }
        decisions.renderAscii(out);
    }

    // --- Sampled representatives, if the trace has any. ---
    if (trace.countKind(obs::EventKind::Representative) > 0) {
        TableWriter reps("Sampled representatives");
        reps.setHeader({"lane", "interval", "cluster", "weight",
                        "warmup", "retired", "tpi_ns"});
        for (const obs::TraceEvent &event : trace.events()) {
            if (event.kind != obs::EventKind::Representative ||
                !selected(event))
                continue;
            if (event.interval < first || event.interval > last)
                continue;
            reps.addRow({Cell(event.lane), Cell(event.interval),
                         Cell(event.cluster), Cell(event.weight),
                         Cell(event.warmup), Cell(event.retired),
                         Cell(event.tpi_ns, 4)});
        }
        reps.renderAscii(out);
    }

    // --- Phase timeline, if the trace has phase transitions. ---
    if (trace.countKind(obs::EventKind::Phase) > 0) {
        TableWriter phases("Phase timeline (online detector)");
        phases.setHeader({"interval", "lane", "at_us", "from", "to",
                          "kind", "config"});
        for (const obs::TraceEvent &event : trace.events()) {
            if (event.kind != obs::EventKind::Phase || !selected(event))
                continue;
            if (event.interval < first || event.interval > last)
                continue;
            phases.addRow({Cell(event.interval), Cell(event.lane),
                           Cell(event.start_ns / 1000.0, 3),
                           event.from_config < 0
                               ? Cell("-")
                               : Cell(event.from_config),
                           Cell(event.to_config), Cell(event.decision),
                           Cell(event.config)});
        }
        phases.renderAscii(out);
    }

    // --- Reconfigurations, if any. ---
    if (trace.countKind(obs::EventKind::Reconfig) > 0) {
        TableWriter reconfigs("Reconfigurations");
        reconfigs.setHeader({"lane", "at_us", "from", "to",
                             "drain_cycles", "penalty_ns"});
        for (const obs::TraceEvent &event : trace.events()) {
            if (event.kind != obs::EventKind::Reconfig ||
                !selected(event))
                continue;
            reconfigs.addRow({Cell(event.lane),
                              Cell(event.start_ns / 1000.0, 3),
                              Cell(event.from_config),
                              Cell(event.to_config),
                              Cell(event.drain_cycles),
                              Cell(event.penalty_ns, 3)});
        }
        reconfigs.renderAscii(out);
    }
    return 0;
}

/** Shared plan printer of sample-profile (both study sides). */
void
printSamplePlan(std::ostream &out, const std::string &side,
                const std::string &app, uint64_t total,
                const sample::SamplePlan &plan)
{
    TableWriter table("sampling plan: " + app + ", " + side + " side, " +
                      std::to_string(total) + " " +
                      (side == "cache" ? "refs" : "instrs"));
    table.setHeader(
        {"cluster", "intervals", "weight", "medoid_ivl", "probe_ivl"});
    // Slot invariant: medoids occupy slots [0, k) in cluster order;
    // probes and cold-prefix intervals follow.
    for (size_t c = 0; c < plan.clustering.clusterCount(); ++c) {
        const sample::Representative &medoid = plan.reps[c];
        std::string probe = "-";
        for (const sample::Representative &rep : plan.reps)
            if (rep.probe && rep.cluster == static_cast<int>(c))
                probe = std::to_string(rep.interval);
        table.addRow({Cell(static_cast<uint64_t>(c)),
                      Cell(plan.clustering.sizes[c]), Cell(medoid.weight),
                      Cell(static_cast<uint64_t>(medoid.interval)),
                      Cell(probe)});
    }
    table.renderAscii(out);
    out << plan.num_intervals << " intervals of " << plan.interval_len
        << ", " << plan.reps.size() << " representatives";
    if (plan.prefix_intervals > 0)
        out << " (" << plan.prefix_intervals
            << " exact cold-prefix intervals)";
    out << ", clustering cost "
        << Cell(plan.clustering.total_cost, 3).str() << "\n";
}

int
cmdSampleProfile(const Options &options, std::ostream &out,
                 std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: sample-profile needs an application\n";
        return 2;
    }
    std::string side = options.get("study", "cache");
    if (side != "cache" && side != "iq") {
        err << "capsim: --study must be 'cache' or 'iq'\n";
        return 2;
    }
    bool ok = false;
    auto apps = selectApps(options.positional[0], side == "cache", err, ok);
    if (!ok || apps.size() != 1) {
        if (ok)
            err << "capsim: sample-profile needs a single application\n";
        return 2;
    }
    sample::SampleParams params = sampleParamsFromKnobs(options);
    mem::MemConfig mem_config;
    if (!memFlag(options, mem_config, err))
        return 2;
    if (mem_config.isDram()) {
        err << "capsim: note: the sampling plan depends only on the "
               "profile; --mem has no effect on sample-profile\n";
    }
    // --host-profile attributes the profile -> cluster pipeline;
    // sample-profile has no telemetry, so only that sink applies.
    ObsSession session = obsSessionFromFlags(options, err);

    if (side == "cache") {
        uint64_t refs = options.getU64("refs", 600000, 1);
        core::AdaptiveCacheModel model;
        sample::CacheSampler sampler(model, apps[0], refs, params);
        printSamplePlan(out, side, apps[0].name, refs, sampler.plan());
    } else {
        uint64_t instrs = options.getU64("instrs", 400000, 1);
        core::AdaptiveIqModel model;
        sample::IqSampler sampler(model, apps[0], instrs, params);
        printSamplePlan(out, side, apps[0].name, instrs, sampler.plan());
    }
    return writeHostProfile(session, err);
}

int
cmdSampleRun(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: sample-run needs an application (or 'all')\n";
        return 2;
    }
    std::string side = options.get("study", "cache");
    if (side != "cache" && side != "iq") {
        err << "capsim: --study must be 'cache' or 'iq'\n";
        return 2;
    }
    bool ok = false;
    auto apps = selectApps(options.positional[0], side == "cache", err, ok);
    if (!ok)
        return 2;
    sample::SampleParams params = sampleParamsFromKnobs(options);
    const int jobs = jobsFlag(options);
    bool validate = options.flags.count("validate") > 0;
    bool check = options.flags.count("check") > 0;
    double mae_max = options.getDouble("mae-max", 2.0);
    if (check && !validate) {
        err << "capsim: --check requires --validate\n";
        return 2;
    }
    mem::MemConfig mem_config;
    if (!memFlag(options, mem_config, err))
        return 2;
    if (mem_config.isDram()) {
        if (side == "cache") {
            err << "capsim: sample-run --study cache supports "
                   "--mem=flat only (sampled reconstruction assumes "
                   "a position-independent miss cost)\n";
            return 2;
        }
        err << "capsim: note: the IQ-side machine models no memory "
               "hierarchy; --mem=dram is accepted but has no effect "
               "here (docs/MEMORY.md)\n";
    }
    ObsSession session = obsSessionFromFlags(options, err);

    std::string trace_file = options.get("trace-file");
    if (!trace_file.empty()) {
        // Sampled replay of a recorded trace (gen-trace output, or any
        // din-format address trace / uop trace): profile the file,
        // cluster, and replay representatives by seeking to their
        // stored offsets.
        if (apps.size() != 1) {
            err << "capsim: --trace-file needs a single application\n";
            return 2;
        }
        if (validate || options.flags.count("oracle")) {
            err << "capsim: --trace-file does not support --validate "
                   "or --oracle (no synthetic reference run)\n";
            return 2;
        }
        // The file replay runs serially in this thread; give
        // --telemetry-json / --metrics-json one wall-clock cell so
        // the run-health flags work here like everywhere else.
        core::RunTelemetry file_telemetry;
        file_telemetry.jobs = 1;
        file_telemetry.cells.assign(1, {});
        auto file_start = std::chrono::steady_clock::now();
        auto finishFileRun = [&]() {
            file_telemetry.wall_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - file_start)
                    .count();
            core::CellTelemetry &ct = file_telemetry.cells[0];
            ct.app = apps[0].name;
            ct.config = "trace-file replay";
            ct.sim_seconds = file_telemetry.wall_seconds;
            ct.worker = 0;
            if (int rc = writeTelemetry(options, file_telemetry, err))
                return rc;
            return writeObsOutputs(session, file_telemetry, err);
        };
        if (side == "cache") {
            core::AdaptiveCacheModel model;
            sample::CacheSampler sampler(model, apps[0], trace_file,
                                         params);
            constexpr int kBoundaries = 8;
            std::vector<std::vector<sample::CacheRepMeasurement>> meas =
                sampler.measureAllConfigs(kBoundaries);
            std::vector<sample::SampledCachePerf> perf;
            size_t best = 0;
            for (int k = 1; k <= kBoundaries; ++k) {
                perf.push_back(sampler.reconstruct(k, meas[k - 1]));
                if (perf.back().perf.tpi_ns < perf[best].perf.tpi_ns)
                    best = static_cast<size_t>(k - 1);
            }
            TableWriter file_table("file-backed sampled sweep, " +
                                   apps[0].name + ", " + trace_file);
            file_table.setHeader({"l1_size", "tpi_ns", "ci_lo", "ci_hi",
                                  "l1_miss", "global_miss"});
            for (size_t c = 0; c < perf.size(); ++c) {
                file_table.addRow(
                    {Cell(std::to_string(8 * (c + 1)) + "KB"),
                     Cell(perf[c].perf.tpi_ns, 3),
                     Cell(perf[c].tpi_lo_ns, 3),
                     Cell(perf[c].tpi_hi_ns, 3),
                     Cell(perf[c].perf.l1_miss_ratio, 4),
                     Cell(perf[c].perf.global_miss_ratio, 4)});
            }
            file_table.renderAscii(out);
            out << sampler.profile().total_refs << " references in "
                << sampler.plan().num_intervals << " intervals, "
                << sampler.repCount() << " representatives, best "
                << 8 * (best + 1) << "KB\n";
            return finishFileRun();
        }
        // IQ side: the file is a uop trace (gen-trace --study iq /
        // writeUopTraceFile output).
        core::AdaptiveIqModel model;
        sample::IqSampler sampler(model, apps[0], trace_file, params);
        std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
        std::vector<std::vector<sample::IqRepMeasurement>> meas =
            sampler.measureAllConfigs();
        std::vector<sample::SampledIqPerf> perf;
        size_t best = 0;
        for (size_t c = 0; c < sizes.size(); ++c) {
            perf.push_back(sampler.reconstruct(sizes[c], meas[c]));
            if (perf.back().perf.tpi_ns < perf[best].perf.tpi_ns)
                best = c;
        }
        TableWriter file_table("file-backed sampled sweep, " +
                               apps[0].name + ", " + trace_file);
        file_table.setHeader(
            {"entries", "tpi_ns", "ci_lo", "ci_hi", "ipc"});
        for (size_t c = 0; c < perf.size(); ++c) {
            file_table.addRow({Cell(sizes[c]),
                               Cell(perf[c].perf.tpi_ns, 3),
                               Cell(perf[c].tpi_lo_ns, 3),
                               Cell(perf[c].tpi_hi_ns, 3),
                               Cell(perf[c].perf.ipc, 3)});
        }
        file_table.renderAscii(out);
        out << sampler.profile().total_instrs << " instructions in "
            << sampler.plan().num_intervals << " intervals, "
            << sampler.repCount() << " representatives, best "
            << sizes[best] << " entries\n";
        return finishFileRun();
    }

    if (options.flags.count("oracle")) {
        if (side != "iq" || apps.size() != 1) {
            err << "capsim: --oracle needs --study iq and a single "
                   "application\n";
            return 2;
        }
        uint64_t instrs = options.getU64("instrs", 400000, 1);
        core::AdaptiveIqModel model;
        core::IntervalRunResult result = sample::runSampledIntervalOracle(
            model, apps[0], instrs, core::AdaptiveIqModel::studySizes(),
            params, true, core::kClockSwitchPenaltyCycles, jobs,
            session.hooks());
        TableWriter table("sampled interval oracle, " + apps[0].name +
                          ", " + std::to_string(instrs) + " instructions");
        table.setHeader({"quantity", "value"});
        table.addRow({Cell("instructions"), Cell(result.instructions)});
        table.addRow({Cell("intervals"),
                      Cell(static_cast<uint64_t>(
                          result.config_trace.size()))});
        table.addRow({Cell("avg TPI (ns)"), Cell(result.tpi(), 4)});
        table.addRow({Cell("total time (us)"),
                      Cell(result.total_time_ns / 1000.0, 3)});
        table.addRow(
            {Cell("reconfigurations"), Cell(result.reconfigurations)});
        table.renderAscii(out);
        if (int rc = writeTelemetry(options, result.telemetry, err))
            return rc;
        return writeObsOutputs(session, result.telemetry, err);
    }

    // Per-app validation columns; `failures` drives the --check verdict.
    TableWriter table((validate ? "sampled vs full, " : "sampled sweep, ") +
                      side + std::string(" side"));
    if (validate)
        table.setHeader({"app", "best", "tpi_ns", "mae_%", "ci_brackets",
                         "argmin_kept", "speedup_x"});
    else
        table.setHeader({"app", "best", "tpi_ns", "ci_lo", "ci_hi",
                         "speedup_x"});
    int failures = 0;
    core::RunTelemetry telemetry;

    auto report = [&](const std::string &app, const std::string &best,
                      double tpi, double lo, double hi, double full_best,
                      double mae, bool argmin_kept, double speedup) {
        if (!validate) {
            table.addRow({Cell(app), Cell(best), Cell(tpi, 3),
                          Cell(lo, 3), Cell(hi, 3), Cell(speedup, 1)});
            return;
        }
        bool brackets = lo <= full_best && full_best <= hi;
        if (mae > mae_max || !brackets)
            ++failures;
        table.addRow({Cell(app), Cell(best), Cell(tpi, 3), Cell(mae, 2),
                      Cell(brackets ? "yes" : "no"),
                      Cell(argmin_kept ? "yes" : "no"),
                      Cell(speedup, 1)});
    };

    if (side == "cache") {
        uint64_t refs = options.getU64("refs", 600000, 1);
        core::AdaptiveCacheModel model;
        sample::SampledCacheStudy study = sample::runSampledCacheStudy(
            model, apps, refs, params, 8, jobs, session.hooks());
        telemetry = study.telemetry;
        core::CacheStudy full;
        if (validate)
            full = core::runCacheStudy(model, apps, refs, 8, jobs);
        for (size_t a = 0; a < apps.size(); ++a) {
            size_t best = study.selection.per_app_best[a];
            const sample::SampledCachePerf &sp = study.perf[a][best];
            double mae = 0.0;
            bool argmin_kept = true;
            double full_best = 0.0;
            uint64_t simulated = 0;
            for (size_t c = 0; c < study.perf[a].size(); ++c)
                simulated += study.perf[a][c].simulated_refs;
            if (validate) {
                size_t fb = full.selection.per_app_best[a];
                argmin_kept = best == fb;
                full_best = full.perf[a][best].tpi_ns;
                for (size_t c = 0; c < study.perf[a].size(); ++c)
                    mae += std::abs(study.perf[a][c].perf.tpi_ns -
                                    full.perf[a][c].tpi_ns) /
                           full.perf[a][c].tpi_ns;
                mae = 100.0 * mae /
                      static_cast<double>(study.perf[a].size());
            }
            double speedup =
                static_cast<double>(refs * study.perf[a].size()) /
                static_cast<double>(simulated);
            report(apps[a].name,
                   std::to_string(8 * (best + 1)) + "KB",
                   sp.perf.tpi_ns, sp.tpi_lo_ns, sp.tpi_hi_ns, full_best,
                   mae, argmin_kept, speedup);
        }
    } else {
        uint64_t instrs = options.getU64("instrs", 400000, 1);
        core::AdaptiveIqModel model;
        sample::SampledIqStudy study = sample::runSampledIqStudy(
            model, apps, instrs, params, jobs, session.hooks());
        telemetry = study.telemetry;
        core::IqStudy full;
        if (validate)
            full = core::runIqStudy(model, apps, instrs, jobs);
        for (size_t a = 0; a < apps.size(); ++a) {
            size_t best = study.selection.per_app_best[a];
            const sample::SampledIqPerf &sp = study.perf[a][best];
            double mae = 0.0;
            bool argmin_kept = true;
            double full_best = 0.0;
            uint64_t simulated = 0;
            for (size_t c = 0; c < study.perf[a].size(); ++c)
                simulated += study.perf[a][c].simulated_instrs;
            if (validate) {
                size_t fb = full.selection.per_app_best[a];
                argmin_kept = best == fb;
                full_best = full.perf[a][best].tpi_ns;
                for (size_t c = 0; c < study.perf[a].size(); ++c)
                    mae += std::abs(study.perf[a][c].perf.tpi_ns -
                                    full.perf[a][c].tpi_ns) /
                           full.perf[a][c].tpi_ns;
                mae = 100.0 * mae /
                      static_cast<double>(study.perf[a].size());
            }
            double speedup =
                static_cast<double>(instrs * study.perf[a].size()) /
                static_cast<double>(simulated);
            report(apps[a].name, std::to_string(sp.perf.entries),
                   sp.perf.tpi_ns, sp.tpi_lo_ns, sp.tpi_hi_ns, full_best,
                   mae, argmin_kept, speedup);
        }
    }
    table.renderAscii(out);
    if (check)
        out << (failures ? "check: FAIL (" + std::to_string(failures) +
                               " app(s) out of tolerance)\n"
                         : "check: ok\n");
    if (int rc = writeTelemetry(options, telemetry, err))
        return rc;
    if (int rc = writeObsOutputs(session, telemetry, err))
        return rc;
    return check && failures ? 1 : 0;
}

int
cmdGenTrace(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.size() < 2) {
        err << "capsim: gen-trace needs an application and a path\n";
        return 2;
    }
    std::string side = options.get("study", "cache");
    if (side != "cache" && side != "iq") {
        err << "capsim: unknown --study " << side << '\n';
        return 2;
    }
    bool ok = false;
    auto apps = selectApps(options.positional[0], side == "cache", err, ok);
    if (!ok || apps.size() != 1) {
        if (ok)
            err << "capsim: gen-trace needs a single application\n";
        return 2;
    }
    if (side == "iq") {
        uint64_t instrs = options.getU64("instrs", 100000, 1);
        ooo::InstructionStream stream(apps[0].ilp, apps[0].seed);
        uint64_t written =
            ooo::writeUopTraceFile(options.positional[1], stream, instrs);
        out << "wrote " << written << " uops of " << apps[0].name
            << " to " << options.positional[1] << '\n';
        return 0;
    }
    uint64_t refs = options.getU64("refs", 100000, 1);
    trace::SyntheticTraceSource source(apps[0].cache, apps[0].seed, refs);
    uint64_t written =
        trace::writeTraceFile(options.positional[1], source, refs);
    out << "wrote " << written << " records of " << apps[0].name
        << " to " << options.positional[1] << '\n';
    return 0;
}

int
cmdAnalyze(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: analyze needs a trace file\n";
        return 2;
    }
    uint64_t limit = options.getU64("limit", 0);
    uint64_t block = options.getU64("block", trace::kBlockBytes, 1);

    trace::FileTraceSource source(options.positional[0]);
    trace::TraceCharacter character =
        trace::analyzeTrace(source, limit, block);

    TableWriter table("Trace character: " + options.positional[0]);
    table.setHeader({"quantity", "value"});
    table.addRow({Cell("references"), Cell(character.refs)});
    table.addRow({Cell("write fraction"),
                  Cell(character.writeFraction(), 3)});
    table.addRow({Cell("footprint (blocks)"),
                  Cell(character.footprint_blocks)});
    table.addRow({Cell("footprint (KB)"),
                  Cell(character.footprint_blocks * block / 1024)});
    table.addRow({Cell("cold references"), Cell(character.cold_refs)});
    table.renderAscii(out);

    TableWriter curve("Fully-associative LRU miss-ratio curve");
    curve.setHeader({"capacity", "miss_ratio"});
    for (uint64_t kb : {4ull, 8ull, 16ull, 32ull, 64ull, 128ull, 256ull}) {
        curve.addRow({Cell(std::to_string(kb) + "KB"),
                      Cell(character.missRatioAtBytes(kib(kb)), 4)});
    }
    curve.renderAscii(out);
    return 0;
}

int
cmdServe(const Options &options, std::ostream &out, std::ostream &err)
{
    serve::ServerConfig config;
    config.queue_capacity =
        static_cast<size_t>(options.getU64("queue", 16));
    config.cache_capacity =
        static_cast<size_t>(options.getU64("cache", 4096));
    config.spill_path = options.get("spill");
    config.jobs = static_cast<int>(
        options.getU64("jobs", 0, 0, std::numeric_limits<int>::max()));
    config.heartbeats = options.flags.count("heartbeats") > 0;
    config.heartbeat_period_s =
        options.getDouble("heartbeat-period", 1.0);
    if (config.queue_capacity == 0 || config.heartbeat_period_s <= 0.0) {
        err << "capsim: invalid serve parameters\n";
        return 2;
    }

    std::string socket_path = options.get("socket");
    bool stdio = options.flags.count("stdio") > 0;
    if (socket_path.empty() == !stdio) {
        err << "capsim: serve needs exactly one of --socket PATH or "
               "--stdio\n";
        return 2;
    }

    if (stdio) {
        serve::StudyServer server(config);
        return serve::serveStdio(server, std::cin, out);
    }
    // Before the server starts its threads, so that they inherit the
    // block and only serveSocket()'s poll takes a stop signal.
    const serve::StopSignalBlock stop_block;
    serve::StudyServer server(config);
    err << "capsim: serving on " << socket_path << "\n";
    return serve::serveSocket(server, socket_path, err);
}

int
cmdClient(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: client needs a study file\n";
        return 2;
    }
    serve::ClientOptions copts;
    copts.socket_path = options.get("socket");
    copts.study_path = options.positional[0];
    copts.events_path = options.get("events");
    copts.request_shutdown = options.flags.count("shutdown") > 0;
    if (copts.socket_path.empty()) {
        err << "capsim: client needs --socket PATH\n";
        return 2;
    }
    return serve::runClient(copts, out, err);
}

int
dispatch(const std::string &command, const Options &options,
         std::ostream &out, std::ostream &err)
{
    if (command == "help" || command == "--help")
        return cmdHelp(out);
    if (command == "apps")
        return cmdApps(out);
    if (command == "timing")
        return cmdTiming(out);
    if (command == "cache-sweep")
        return cmdCacheSweep(options, out, err);
    if (command == "iq-sweep")
        return cmdIqSweep(options, out, err);
    if (command == "interval-run")
        return cmdIntervalRun(options, out, err);
    if (command == "sample-profile")
        return cmdSampleProfile(options, out, err);
    if (command == "sample-run")
        return cmdSampleRun(options, out, err);
    if (command == "analyze-trace")
        return cmdAnalyzeTrace(options, out, err);
    if (command == "gen-trace")
        return cmdGenTrace(options, out, err);
    if (command == "analyze")
        return cmdAnalyze(options, out, err);
    if (command == "serve")
        return cmdServe(options, out, err);
    if (command == "client")
        return cmdClient(options, out, err);

    err << "capsim: unknown command '" << command << "'\n"
        << "known commands: apps, timing, cache-sweep, iq-sweep, "
           "sample-profile,\n"
           "  sample-run, interval-run, analyze-trace, gen-trace, "
           "analyze, serve,\n"
           "  client, help\n"
           "(try 'capsim help')\n";
    return kUnknownCommandExit;
}

} // namespace

int
runCommand(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    if (args.empty())
        return cmdHelp(out);
    const std::string &command = args[0];
    Options options =
        parseArgs(std::vector<std::string>(args.begin() + 1, args.end()));
    try {
        return dispatch(command, options, out, err);
    } catch (const UsageError &error) {
        err << "capsim: " << error.what() << "\n";
        return 2;
    }
}

} // namespace cap::cli
