#include "cli.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string_view>

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
#include "util/json.h"
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

uint64_t
Options::getU64(const std::string &key, uint64_t fallback, uint64_t min,
                uint64_t max) const
{
    auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    uint64_t value = 0;
    if (!json::parseU64(it->second, value) || value < min || value > max)
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
    double value = 0.0;
    if (!json::parseNumber(it->second, value))
        throw UsageError("--" + key +
                         " must be a finite unsigned number, got '" +
                         it->second + "'");
    return value;
}

void
Options::only(const std::vector<std::string> &known) const
{
    for (const auto &[key, value] : flags) {
        if (std::find(known.begin(), known.end(), key) == known.end())
            throw UsageError("unknown flag --" + key);
    }
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
           "A study's flags are its job keys (docs/SERVER.md) with '-' for\n"
           "'_' (--probe-period sets \"probe_period\"); an <app|all> takes\n"
           "'all' or one or more names.  A flag a command does not read is\n"
           "a usage error (exit 2).\n"
           "\n"
           "commands:\n"
           "  apps                         list the 22-application suite\n"
           "  timing                       print the clock tables\n"
           "  cache-sweep <app|all> [app ...]\n"
           "                               TPI vs L1/L2 boundary\n"
           "      [--refs N]               references per run\n"
           "      [--jobs N]               worker threads (0 = all cores)\n"
           "      [--sample[=k,ivl[,wrm]]] estimate cells from cluster\n"
           "                               representatives (sampled mode)\n"
           "      [--mem SPEC]             miss backend: flat (default)\n"
           "                               or dram[:k=v,..] -- banked\n"
           "                               DRAM + MSHRs (docs/MEMORY.md)\n"
           "      [--telemetry-json PATH]  write execution telemetry\n"
           "  iq-sweep <app|all> [app ...]\n"
           "                               TPI vs instruction-queue size\n"
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
           "      [--refs N | --instrs N]  run length (cache | iq)\n"
           "      [--interval N] [--clusters K] [--warmup N]\n"
           "      [--cold-prefix N]        exact cold-start span (cache)\n"
           "  sample-run <app|all> [app ...]\n"
           "                               sampled sweep, optionally\n"
           "                               validated against the full run\n"
           "      [--study cache|iq]       which side to run\n"
           "      [--refs N | --instrs N]  run length (cache | iq)\n"
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

/** The --jobs flag of a study: absent/1 = serial, 0 = every hardware
 *  thread. */
int
jobsFlag(const Options &options)
{
    const int jobs = static_cast<int>(
        options.getU64("jobs", 1, 0, std::numeric_limits<int>::max()));
    return jobs == 0 ? defaultJobs() : jobs;
}

/** --study: true for the cache side (the default), false for iq. */
bool
cacheSide(const Options &options)
{
    const std::string side = options.get("study", "cache");
    if (side != "cache" && side != "iq")
        throw UsageError("--study must be 'cache' or 'iq'");
    return side == "cache";
}

/**
 * The spec of study verb @p verb: its applications are the positional
 * arguments in the job grammar ("all" or names), and its fields are
 * read from their flags (serve::jobFromFlags).  Each verb names the
 * fields it reads and the flags it reads itself; any other flag is a
 * usage error naming it.
 */
serve::JobSpec
studySpec(const std::string &verb, const Options &options)
{
    using serve::JobKind;
    serve::JobSpec spec;
    std::vector<std::string_view> keys;
    // The observation flags (ObsSession).
    std::vector<std::string> flags = {"trace", "chrome-trace",
                                      "metrics-json", "host-profile",
                                      "progress"};
    if (verb == "cache-sweep" || verb == "iq-sweep") {
        const bool cache = verb == "cache-sweep";
        spec.kind = cache ? JobKind::CacheSweep : JobKind::IqSweep;
        keys = {cache ? "refs" : "instrs", "sample", "mem"};
        flags.insert(flags.end(), {"jobs", "telemetry-json"});
    } else if (verb == "interval-run") {
        spec.kind = JobKind::IntervalRun;
        keys = {"instrs", "entries", "interval", "probe_period",
                "confidence", "probe_max", "phase_threshold", "trigger",
                "mem"};
        flags.insert(flags.end(), {"compare-triggers", "telemetry-json"});
    } else if (verb == "sample-profile" || verb == "sample-run") {
        // --study picks a cache or an IQ study (and so what "all"
        // expands to), run for 600000 references or 400000
        // instructions unless --refs / --instrs say otherwise.
        const bool cache = cacheSide(options);
        spec.kind = cache ? JobKind::CacheSweep : JobKind::IqSweep;
        spec.sampled = verb == "sample-run";
        spec.refs = 600000;
        spec.instrs = 400000;
        keys = {cache ? "refs" : "instrs", "sample.interval",
                "sample.clusters", "sample.warmup", "sample.cold_prefix",
                "mem"};
        flags.push_back("study");
        if (spec.sampled)
            flags.insert(flags.end(),
                         {"jobs", "validate", "check", "mae-max", "oracle",
                          "trace-file", "telemetry-json"});
    } else {
        throw UsageError("'" + verb + "' is not a study verb");
    }
    for (std::string_view key : keys)
        flags.push_back(serve::flagName(key));
    options.only(flags);
    if (options.positional.empty())
        throw UsageError(verb + " needs an application");
    spec.apps = options.positional;
    std::string error;
    if (!serve::jobFromFlags(options.flags, keys, spec, error))
        throw UsageError(error);
    return spec;
}

/** The suite profiles of @p spec's applications. */
std::vector<trace::AppProfile>
profilesOf(const serve::JobSpec &spec)
{
    std::vector<trace::AppProfile> apps;
    for (const std::string &name : spec.apps)
        apps.push_back(trace::findApp(name));
    return apps;
}

/** The IQ-side verbs take --mem only for symmetry with the cache side. */
void
noteMemIgnored(const serve::JobSpec &spec, std::ostream &err)
{
    if (spec.mem.isDram())
        err << "capsim: note: the IQ-side machine models no memory "
               "hierarchy; --mem=dram is accepted but has no effect "
               "here (docs/MEMORY.md)\n";
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
 * and the --telemetry-json PATH of the verbs that have telemetry.
 * With none of the flags given, hooks() is inert and the run pays
 * nothing for the instrumentation.  The host-profile and progress
 * sinks observe host time only, never simulated state, so results
 * are bit-identical with them on or off (docs/MODEL.md section 11).
 */
struct ObsSession
{
    obs::DecisionTrace trace;
    obs::CounterRegistry registry;
    std::string telemetry_path;
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
    session.telemetry_path = options.get("telemetry-json");
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
    const std::pair<const std::string &,
                    std::function<void(std::ostream &)>>
        sinks[] = {
            {session.telemetry_path,
             [&](std::ostream &os) { telemetry.writeJson(os); }},
            {session.jsonl_path,
             [&](std::ostream &os) { session.trace.writeJsonl(os); }},
            {session.chrome_path,
             [&](std::ostream &os) { session.trace.writeChromeTrace(os); }},
            {session.metrics_path,
             [&](std::ostream &os) {
                 telemetry.writeJson(os, &session.registry);
             }},
        };
    for (const auto &[path, write] : sinks) {
        if (path.empty())
            continue;
        std::ofstream file(path);
        if (!file) {
            err << "capsim: cannot write '" << path << "'\n";
            return 2;
        }
        write(file);
    }
    return writeHostProfile(session, err);
}

int
cmdSweep(const std::string &verb, const Options &options,
         std::ostream &out, std::ostream &err)
{
    const serve::JobSpec spec = studySpec(verb, options);
    const int jobs = jobsFlag(options);
    const bool cache = spec.kind == serve::JobKind::CacheSweep;
    if (!cache)
        noteMemIgnored(spec, err);
    ObsSession session = obsSessionFromFlags(options, err);
    const std::vector<trace::AppProfile> apps = profilesOf(spec);
    core::RunTelemetry telemetry;
    if (cache) {
        core::AdaptiveCacheModel model;
        model.setMemConfig(spec.mem);
        if (spec.sampled) {
            sample::SampledCacheStudy study = sample::runSampledCacheStudy(
                model, apps, spec.refs, spec.sample, 8, jobs,
                session.hooks());
            serve::renderSampledCacheSweep(out, spec.apps, study.perf,
                                           spec.refs);
            telemetry = std::move(study.telemetry);
        } else {
            core::CacheStudy study = core::runCacheStudy(
                model, apps, spec.refs, 8, jobs, session.hooks());
            serve::renderCacheSweep(out, spec.apps, study.perf, spec.refs);
            telemetry = std::move(study.telemetry);
        }
    } else if (spec.sampled) {
        sample::SampledIqStudy study = sample::runSampledIqStudy(
            core::AdaptiveIqModel(), apps, spec.instrs, spec.sample, jobs,
            session.hooks());
        serve::renderSampledIqSweep(out, spec.apps, study.perf,
                                    spec.instrs);
        telemetry = std::move(study.telemetry);
    } else {
        core::IqStudy study = core::runIqStudy(
            core::AdaptiveIqModel(), apps, spec.instrs, jobs,
            session.hooks());
        serve::renderIqSweep(out, spec.apps, study.perf, spec.instrs);
        telemetry = std::move(study.telemetry);
    }
    return writeObsOutputs(session, telemetry, err);
}

int
cmdIntervalRun(const Options &options, std::ostream &out,
               std::ostream &err)
{
    const serve::JobSpec spec = studySpec("interval-run", options);
    noteMemIgnored(spec, err);
    const trace::AppProfile &app = trace::findApp(spec.apps[0]);
    const core::IntervalPolicyParams &params = spec.params;
    core::AdaptiveIqModel model;

    if (options.flags.count("compare-triggers")) {
        // Period vs phase vs hybrid vs oracle on the same run;
        // gap_closed_% = how much of the period-to-oracle TPI gap the
        // mode recovers (the EXPERIMENTS.md phase-trigger table).
        auto runMode = [&](core::IntervalTrigger t) {
            core::IntervalPolicyParams p = params;
            p.trigger = t;
            core::IntervalAdaptiveIq controller(model, p);
            return controller.run(app, spec.instrs, spec.entries);
        };
        core::IntervalRunResult period =
            runMode(core::IntervalTrigger::Period);
        core::IntervalRunResult phase =
            runMode(core::IntervalTrigger::PhaseChange);
        core::IntervalRunResult hybrid =
            runMode(core::IntervalTrigger::Hybrid);
        core::IntervalRunResult oracle = core::runIntervalOracle(
            model, app, spec.instrs, core::AdaptiveIqModel::studySizes(),
            params.interval_instrs, true, params.switch_penalty_cycles);

        double gap = period.tpi() - oracle.tpi();
        TableWriter table("trigger comparison, " + app.name + ", " +
                          std::to_string(spec.instrs) + " instructions");
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
        controller.run(app, spec.instrs, spec.entries, session.hooks());

    serve::IntervalSummary summary =
        serve::summarizeIntervalRun(result, spec.entries);
    serve::renderIntervalRun(out, app.name, spec.instrs,
                             params.trigger !=
                                 core::IntervalTrigger::Period,
                             summary);
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
    options.only({"app", "lane", "first", "last", "stride"});
    std::string app_filter = options.get("app");
    std::string lane_filter = options.get("lane");
    uint64_t first = options.getU64("first", 0);
    uint64_t last =
        options.getU64("last", std::numeric_limits<uint64_t>::max());
    uint64_t stride = options.getU64("stride", 1, 1);

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

    // --- One table per event kind: its selected events in the
    // interval range, a row each.  The per-interval series (Figure
    // 12/13 style, every stride-th interval) is always printed, the
    // others only when the trace has such events; reconfigurations
    // carry no interval.
    auto eventTable = [&](obs::EventKind kind, const std::string &title,
                          const std::vector<std::string> &header,
                          auto row) {
        const bool series = kind == obs::EventKind::Interval;
        if (!series && trace.countKind(kind) == 0)
            return;
        TableWriter table(title);
        table.setHeader(header);
        for (const obs::TraceEvent &event : trace.events()) {
            const bool in_range =
                kind == obs::EventKind::Reconfig ||
                (event.interval >= first && event.interval <= last &&
                 (!series || (event.interval - first) % stride == 0));
            if (event.kind == kind && selected(event) && in_range)
                table.addRow(row(event));
        }
        table.renderAscii(out);
    };
    auto orDash = [](bool absent, const Cell &cell) {
        return absent ? Cell("-") : cell;
    };
    eventTable(obs::EventKind::Interval,
               "Per-interval series (Figure 12/13 style)",
               {"interval", "lane", "config", "retired", "ipc", "tpi_ns",
                "ewma_tpi_ns"},
               [&](const obs::TraceEvent &e) -> std::vector<Cell> {
                   return {Cell(e.interval), Cell(e.lane), Cell(e.config),
                           Cell(e.retired), Cell(e.ipc, 3),
                           Cell(e.tpi_ns, 4),
                           orDash(e.ewma_tpi_ns < 0.0,
                                  Cell(e.ewma_tpi_ns, 4))};
               });
    eventTable(obs::EventKind::Decision, "Controller decisions",
               {"interval", "lane", "decision", "candidate", "chosen",
                "confidence", "ewma_home", "ewma_candidate"},
               [&](const obs::TraceEvent &e) -> std::vector<Cell> {
                   return {Cell(e.interval), Cell(e.lane),
                           Cell(e.decision), Cell(e.candidate),
                           Cell(e.chosen), Cell(e.confidence),
                           orDash(e.ewma_home_tpi_ns < 0.0,
                                  Cell(e.ewma_home_tpi_ns, 4)),
                           orDash(e.ewma_candidate_tpi_ns < 0.0,
                                  Cell(e.ewma_candidate_tpi_ns, 4))};
               });
    eventTable(obs::EventKind::Representative, "Sampled representatives",
               {"lane", "interval", "cluster", "weight", "warmup",
                "retired", "tpi_ns"},
               [](const obs::TraceEvent &e) -> std::vector<Cell> {
                   return {Cell(e.lane), Cell(e.interval), Cell(e.cluster),
                           Cell(e.weight), Cell(e.warmup), Cell(e.retired),
                           Cell(e.tpi_ns, 4)};
               });
    eventTable(obs::EventKind::Phase, "Phase timeline (online detector)",
               {"interval", "lane", "at_us", "from", "to", "kind",
                "config"},
               [&](const obs::TraceEvent &e) -> std::vector<Cell> {
                   return {Cell(e.interval), Cell(e.lane),
                           Cell(e.start_ns / 1000.0, 3),
                           orDash(e.from_config < 0, Cell(e.from_config)),
                           Cell(e.to_config), Cell(e.decision),
                           Cell(e.config)};
               });
    eventTable(obs::EventKind::Reconfig, "Reconfigurations",
               {"lane", "at_us", "from", "to", "drain_cycles",
                "penalty_ns"},
               [](const obs::TraceEvent &e) -> std::vector<Cell> {
                   return {Cell(e.lane), Cell(e.start_ns / 1000.0, 3),
                           Cell(e.from_config), Cell(e.to_config),
                           Cell(e.drain_cycles), Cell(e.penalty_ns, 3)};
               });
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
    const serve::JobSpec spec = studySpec("sample-profile", options);
    if (spec.apps.size() != 1)
        throw UsageError("sample-profile needs a single application");
    if (spec.mem.isDram()) {
        err << "capsim: note: the sampling plan depends only on the "
               "profile; --mem has no effect on sample-profile\n";
    }
    // --host-profile attributes the profile -> cluster pipeline;
    // sample-profile has no telemetry, so only that sink applies.
    ObsSession session = obsSessionFromFlags(options, err);

    const trace::AppProfile &app = trace::findApp(spec.apps[0]);
    if (spec.kind == serve::JobKind::CacheSweep) {
        core::AdaptiveCacheModel model;
        sample::CacheSampler sampler(model, app, spec.refs, spec.sample);
        printSamplePlan(out, "cache", app.name, spec.refs,
                        sampler.plan());
    } else {
        core::AdaptiveIqModel model;
        sample::IqSampler sampler(model, app, spec.instrs, spec.sample);
        printSamplePlan(out, "iq", app.name, spec.instrs, sampler.plan());
    }
    return writeHostProfile(session, err);
}

int
cmdSampleRun(const Options &options, std::ostream &out, std::ostream &err)
{
    // The cache side's dram check is the sampled cache sweep's.
    const serve::JobSpec spec = studySpec("sample-run", options);
    const std::string side =
        spec.kind == serve::JobKind::CacheSweep ? "cache" : "iq";
    const std::vector<trace::AppProfile> apps = profilesOf(spec);
    const sample::SampleParams &params = spec.sample;
    const uint64_t refs = spec.refs;
    const uint64_t instrs = spec.instrs;
    const int jobs = jobsFlag(options);
    bool validate = options.flags.count("validate") > 0;
    bool check = options.flags.count("check") > 0;
    double mae_max = options.getDouble("mae-max", 2.0);
    if (check && !validate) {
        err << "capsim: --check requires --validate\n";
        return 2;
    }
    noteMemIgnored(spec, err);
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

    // One row per application: the sampled study's best column, with
    // --validate also its error against the @p full sweep.
    auto report = [&](const auto &study, const auto &full, uint64_t length,
                      auto simulated, auto label) {
        telemetry = study.telemetry;
        for (size_t a = 0; a < apps.size(); ++a) {
            const auto &cols = study.perf[a];
            const size_t best = study.selection.per_app_best[a];
            double mae = 0.0;
            uint64_t simulated_total = 0;
            for (size_t c = 0; c < cols.size(); ++c) {
                simulated_total += simulated(cols[c]);
                if (validate)
                    mae += std::abs(cols[c].perf.tpi_ns -
                                    full.perf[a][c].tpi_ns) /
                           full.perf[a][c].tpi_ns;
            }
            const auto &sp = cols[best];
            const double speedup =
                static_cast<double>(length * cols.size()) /
                static_cast<double>(simulated_total);
            if (!validate) {
                table.addRow({Cell(apps[a].name), Cell(label(sp, best)),
                              Cell(sp.perf.tpi_ns, 3),
                              Cell(sp.tpi_lo_ns, 3), Cell(sp.tpi_hi_ns, 3),
                              Cell(speedup, 1)});
                continue;
            }
            mae = 100.0 * mae / static_cast<double>(cols.size());
            const double full_best = full.perf[a][best].tpi_ns;
            const bool brackets =
                sp.tpi_lo_ns <= full_best && full_best <= sp.tpi_hi_ns;
            if (mae > mae_max || !brackets)
                ++failures;
            table.addRow(
                {Cell(apps[a].name), Cell(label(sp, best)),
                 Cell(sp.perf.tpi_ns, 3), Cell(mae, 2),
                 Cell(brackets ? "yes" : "no"),
                 Cell(best == full.selection.per_app_best[a] ? "yes" : "no"),
                 Cell(speedup, 1)});
        }
    };

    if (side == "cache") {
        core::AdaptiveCacheModel model;
        sample::SampledCacheStudy study = sample::runSampledCacheStudy(
            model, apps, refs, params, 8, jobs, session.hooks());
        report(study,
               validate ? core::runCacheStudy(model, apps, refs, 8, jobs)
                        : core::CacheStudy{},
               refs,
               [](const sample::SampledCachePerf &p) {
                   return p.simulated_refs;
               },
               [](const sample::SampledCachePerf &, size_t best) {
                   return std::to_string(8 * (best + 1)) + "KB";
               });
    } else {
        core::AdaptiveIqModel model;
        sample::SampledIqStudy study = sample::runSampledIqStudy(
            model, apps, instrs, params, jobs, session.hooks());
        report(study,
               validate ? core::runIqStudy(model, apps, instrs, jobs)
                        : core::IqStudy{},
               instrs,
               [](const sample::SampledIqPerf &p) {
                   return p.simulated_instrs;
               },
               [](const sample::SampledIqPerf &p, size_t) {
                   return std::to_string(p.perf.entries);
               });
    }
    table.renderAscii(out);
    if (check)
        out << (failures ? "check: FAIL (" + std::to_string(failures) +
                               " app(s) out of tolerance)\n"
                         : "check: ok\n");
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
    const bool cache = cacheSide(options);
    options.only({"study", cache ? "refs" : "instrs"});
    std::vector<std::string> apps = {options.positional[0]};
    std::string error;
    if (!serve::resolveApps(cache ? serve::JobKind::CacheSweep
                                  : serve::JobKind::IqSweep,
                            apps, error))
        throw UsageError(error);
    if (apps.size() != 1)
        throw UsageError("gen-trace needs a single application");
    const trace::AppProfile &app = trace::findApp(apps[0]);
    if (!cache) {
        uint64_t instrs = options.getU64("instrs", 100000, 1);
        ooo::InstructionStream stream(app.ilp, app.seed);
        uint64_t written =
            ooo::writeUopTraceFile(options.positional[1], stream, instrs);
        out << "wrote " << written << " uops of " << app.name << " to "
            << options.positional[1] << '\n';
        return 0;
    }
    uint64_t refs = options.getU64("refs", 100000, 1);
    trace::SyntheticTraceSource source(app.cache, app.seed, refs);
    uint64_t written =
        trace::writeTraceFile(options.positional[1], source, refs);
    out << "wrote " << written << " records of " << app.name << " to "
        << options.positional[1] << '\n';
    return 0;
}

int
cmdAnalyze(const Options &options, std::ostream &out, std::ostream &err)
{
    if (options.positional.empty()) {
        err << "capsim: analyze needs a trace file\n";
        return 2;
    }
    options.only({"limit", "block"});
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
    options.only({"socket", "stdio", "jobs", "queue", "cache", "spill",
                  "heartbeats", "heartbeat-period"});
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
    options.only({"socket", "events", "shutdown"});
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
    if (command == "apps" || command == "timing") {
        options.only({});
        return command == "apps" ? cmdApps(out) : cmdTiming(out);
    }
    if (command == "cache-sweep" || command == "iq-sweep")
        return cmdSweep(command, options, out, err);
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

serve::JobSpec
studySpec(const std::vector<std::string> &args)
{
    if (args.empty())
        throw UsageError("no study verb");
    return studySpec(
        args[0],
        parseArgs(std::vector<std::string>(args.begin() + 1, args.end())));
}

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
