#include "job.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <sstream>

#include "core/experiment.h"
#include "sample/study.h"
#include "trace/workloads.h"
#include "util/status.h"

namespace cap::serve {

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
    case JobKind::CacheSweep: return "cache-sweep";
    case JobKind::IqSweep: return "iq-sweep";
    case JobKind::IntervalRun: return "interval-run";
    }
    panic("unknown job kind %d", static_cast<int>(kind));
}

std::string
JobSpec::label() const
{
    std::string label = "serve:";
    if (sampled)
        label += "sampled-";
    label += jobKindName(kind);
    return label;
}

namespace {

/** json::Value::readU64() into a non-negative int field. */
bool
readInt(const json::Value &job, const std::string &key, int &out,
        std::string &error)
{
    uint64_t value = static_cast<uint64_t>(out);
    if (!job.readU64(key, value, error))
        return false;
    if (value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        error = "\"" + key + "\" is out of range";
        return false;
    }
    out = static_cast<int>(value);
    return true;
}

/** Resolve the "apps" member ("all", a name, or an array of names). */
bool
resolveApps(const json::Value &job, JobKind kind,
            std::vector<std::string> &apps, std::string &error)
{
    std::vector<std::string> requested;
    const json::Value *field = job.find("apps");
    if (!field) {
        error = "job needs an \"apps\" field (\"all\", a name, or a "
                "list of names)";
        return false;
    }
    if (field->isString()) {
        requested.push_back(field->string);
    } else if (field->isArray()) {
        for (const json::Value &entry : field->array) {
            if (!entry.isString()) {
                error = "\"apps\" entries must be strings";
                return false;
            }
            requested.push_back(entry.string);
        }
    } else {
        error = "\"apps\" must be a string or an array of strings";
        return false;
    }
    if (requested.empty()) {
        error = "\"apps\" must name at least one application";
        return false;
    }

    apps.clear();
    for (const std::string &name : requested) {
        if (name == "all") {
            // Same expansion as the offline verbs: the cache study
            // excludes go, the IQ study runs the full suite.
            const auto expanded = kind == JobKind::CacheSweep
                                      ? trace::cacheStudyApps()
                                      : trace::iqStudyApps();
            for (const trace::AppProfile &app : expanded)
                apps.push_back(app.name);
            continue;
        }
        bool known = false;
        for (const trace::AppProfile &app : trace::workloadSuite()) {
            if (app.name == name) {
                known = true;
                break;
            }
        }
        if (!known) {
            error = "unknown application '" + name + "'";
            return false;
        }
        apps.push_back(name);
    }
    return true;
}

} // namespace

bool
jobFromJson(const json::Value &job, JobSpec &spec, std::string &error)
{
    if (!job.isObject()) {
        error = "job must be an object";
        return false;
    }
    std::string kind = job.stringOr("kind");
    if (kind == "cache-sweep") {
        spec.kind = JobKind::CacheSweep;
    } else if (kind == "iq-sweep") {
        spec.kind = JobKind::IqSweep;
    } else if (kind == "interval-run") {
        spec.kind = JobKind::IntervalRun;
    } else {
        error = kind.empty()
                    ? "job needs a \"kind\" (cache-sweep, iq-sweep, or "
                      "interval-run)"
                    : "unknown job kind '" + kind + "'";
        return false;
    }

    if (!resolveApps(job, spec.kind, spec.apps, error))
        return false;

    spec.sampled = job.boolOr("sampled", false);
    spec.refs = 150000;
    spec.instrs = 120000;
    if (!job.readU64("refs", spec.refs, error) ||
        !job.readU64("instrs", spec.instrs, error))
        return false;
    double deadline_ms = job.numberOr("deadline_ms", 0.0);
    spec.deadline_s = deadline_ms > 0.0 ? deadline_ms / 1000.0 : 0.0;
    if (spec.refs == 0 || spec.instrs == 0) {
        error = "\"refs\" and \"instrs\" must be positive";
        return false;
    }

    if (const json::Value *mem = job.find("mem")) {
        if (!mem->isString()) {
            error = "\"mem\" must be a spec string "
                    "(\"flat\" or \"dram[:k=v,..]\")";
            return false;
        }
        if (!mem::parseMemSpec(mem->string, spec.mem, error))
            return false;
    }
    if (spec.mem.isDram() && spec.sampled) {
        error = "sampled mode supports mem=flat only (sampled "
                "reconstruction assumes a position-independent miss "
                "cost)";
        return false;
    }

    if (const json::Value *sample = job.find("sample")) {
        if (!sample->isObject()) {
            error = "\"sample\" must be an object";
            return false;
        }
        uint64_t clusters = spec.sample.clusters;
        if (!sample->readU64("clusters", clusters, error) ||
            !sample->readU64("interval", spec.sample.interval_len,
                             error) ||
            !sample->readU64("warmup", spec.sample.warmup_len, error) ||
            !sample->readU64("cold_prefix", spec.sample.cold_prefix_len,
                             error))
            return false;
        spec.sample.clusters = static_cast<size_t>(clusters);
        if (spec.sample.clusters == 0 || spec.sample.interval_len == 0) {
            error = "sample clusters and interval must be positive";
            return false;
        }
    }

    if (spec.kind == JobKind::IntervalRun) {
        if (spec.sampled) {
            error = "interval-run has no sampled mode";
            return false;
        }
        if (spec.apps.size() != 1) {
            error = "interval-run needs a single application";
            return false;
        }
        spec.entries = 32;
        if (!readInt(job, "entries", spec.entries, error))
            return false;
        std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
        if (std::find(sizes.begin(), sizes.end(), spec.entries) ==
            sizes.end()) {
            error = "entries " + std::to_string(spec.entries) +
                    " is not a study configuration";
            return false;
        }
        core::IntervalPolicyParams &p = spec.params;
        if (!job.readU64("interval", p.interval_instrs, error) ||
            !readInt(job, "probe_period", p.probe_period, error) ||
            !readInt(job, "confidence", p.confidence_needed, error) ||
            !readInt(job, "probe_max", p.probe_period_max, error))
            return false;
        p.phase_distance_threshold = job.numberOr(
            "phase_threshold", p.phase_distance_threshold);
        std::string trigger = job.stringOr("trigger", "period");
        if (trigger == "period") {
            p.trigger = core::IntervalTrigger::Period;
        } else if (trigger == "phase") {
            p.trigger = core::IntervalTrigger::PhaseChange;
        } else if (trigger == "hybrid") {
            p.trigger = core::IntervalTrigger::Hybrid;
        } else {
            error = "trigger must be period, phase, or hybrid";
            return false;
        }
        if (p.interval_instrs == 0 || p.probe_period < 2 ||
            p.confidence_needed < 1 ||
            p.probe_period_max < p.probe_period ||
            p.phase_distance_threshold <= 0.0) {
            error = "invalid interval-controller parameters";
            return false;
        }
    }
    return true;
}

uint64_t
cellKey(const JobSpec &spec, const trace::AppProfile &app)
{
    KeyBuilder key;
    key.add("profile", hashAppProfile(app));
    key.add("kind", std::string(jobKindName(spec.kind)));
    switch (spec.kind) {
    case JobKind::CacheSweep:
        key.add("refs", spec.refs);
        key.add("boundaries", static_cast<uint64_t>(8));
        // The miss backend changes the simulated result, so it is
        // part of the content hash -- but only when dram, so every
        // pre-dram cache entry (and spill file) still matches the
        // flat requests it was computed for.
        if (spec.mem.isDram()) {
            const mem::DramParams &d = spec.mem.dram;
            key.add("mem", spec.mem.canonical());
            key.add("mem.banks", static_cast<uint64_t>(d.banks));
            key.add("mem.row_bytes", d.row_bytes);
            key.addBits("mem.row_hit_ns", d.row_hit_ns);
            key.addBits("mem.row_miss_ns", d.row_miss_ns);
            key.addBits("mem.row_conflict_ns", d.row_conflict_ns);
            key.addBits("mem.burst_ns", d.burst_ns);
            key.add("mem.mshr", static_cast<uint64_t>(d.mshr_entries));
            key.add("mem.policy", static_cast<int64_t>(d.page_policy));
        }
        break;
    case JobKind::IqSweep: {
        key.add("instrs", spec.instrs);
        std::string sizes;
        for (int entries : core::AdaptiveIqModel::studySizes())
            sizes += std::to_string(entries) + ",";
        key.add("sizes", sizes);
        break;
    }
    case JobKind::IntervalRun: {
        const core::IntervalPolicyParams &p = spec.params;
        key.add("instrs", spec.instrs);
        key.add("entries", spec.entries);
        key.addBits("ewma_alpha", p.ewma_alpha);
        key.addBits("switch_margin", p.switch_margin);
        key.add("confidence", p.confidence_needed);
        key.add("probe_period", p.probe_period);
        key.add("interval_instrs", p.interval_instrs);
        key.add("use_confidence", p.use_confidence);
        key.add("switch_penalty",
                static_cast<uint64_t>(p.switch_penalty_cycles));
        key.add("trigger", static_cast<int64_t>(p.trigger));
        key.add("probe_max", p.probe_period_max);
        key.addBits("phase_threshold", p.phase_distance_threshold);
        key.add("max_phases", static_cast<uint64_t>(p.max_phases));
        break;
    }
    }
    if (spec.sampled) {
        const sample::SampleParams &s = spec.sample;
        key.add("sampled", true);
        key.add("sample.interval", s.interval_len);
        key.add("sample.clusters", static_cast<uint64_t>(s.clusters));
        key.add("sample.warmup", s.warmup_len);
        key.add("sample.cold_prefix", s.cold_prefix_len);
        key.add("sample.max_sweeps", s.max_sweeps);
        key.addBits("sample.confidence_z", s.confidence_z);
        key.add("sample.cluster_seed", s.cluster_seed);
        key.add("sample.variance_probes", s.variance_probes);
    }
    return key.hash();
}

// ---------------------------------------------------------------------
// Row codecs.
// ---------------------------------------------------------------------

namespace {

bool
bitsField(const json::Value &obj, const char *name, double &out)
{
    const json::Value *v = obj.find(name);
    return v && v->isString() && json::doubleFromBits(v->string, out);
}

bool
u64Field(const json::Value &obj, const char *name, uint64_t &out)
{
    const json::Value *v = obj.find(name);
    return v && v->isString() && json::parseU64(v->string, out);
}

bool
intField(const json::Value &obj, const char *name, int &out)
{
    const json::Value *v = obj.find(name);
    if (!v || !v->isNumber())
        return false;
    out = static_cast<int>(v->number);
    return true;
}

/** Parse {"kind": <kind>, "cols": [...]}; returns the cols array. */
const json::Value *
rowCols(const std::string &text, const char *kind)
{
    static thread_local json::Value parsed;
    std::string error;
    if (!json::parse(text, parsed, error) || !parsed.isObject())
        return nullptr;
    if (parsed.stringOr("kind") != kind)
        return nullptr;
    const json::Value *cols = parsed.find("cols");
    return cols && cols->isArray() && !cols->array.empty() ? cols
                                                          : nullptr;
}

void
writeCachePerf(json::Writer &w, const core::CachePerf &p)
{
    w.beginObject()
        .key("l1").value(static_cast<int64_t>(p.l1_increments))
        .key("refs").value(std::to_string(p.refs))
        .key("instrs").value(std::to_string(p.instructions))
        .key("l1_miss").value(json::doubleBits(p.l1_miss_ratio))
        .key("global_miss").value(json::doubleBits(p.global_miss_ratio))
        .key("tpi_ns").value(json::doubleBits(p.tpi_ns))
        .key("tpi_miss_ns").value(json::doubleBits(p.tpi_miss_ns))
        .endObject();
}

bool
readCachePerf(const json::Value &col, core::CachePerf &p)
{
    return intField(col, "l1", p.l1_increments) &&
           u64Field(col, "refs", p.refs) &&
           u64Field(col, "instrs", p.instructions) &&
           bitsField(col, "l1_miss", p.l1_miss_ratio) &&
           bitsField(col, "global_miss", p.global_miss_ratio) &&
           bitsField(col, "tpi_ns", p.tpi_ns) &&
           bitsField(col, "tpi_miss_ns", p.tpi_miss_ns);
}

void
writeIqPerf(json::Writer &w, const core::IqPerf &p)
{
    w.beginObject()
        .key("entries").value(static_cast<int64_t>(p.entries))
        .key("instrs").value(std::to_string(p.instructions))
        .key("cycles").value(std::to_string(static_cast<uint64_t>(p.cycles)))
        .key("ipc").value(json::doubleBits(p.ipc))
        .key("tpi_ns").value(json::doubleBits(p.tpi_ns))
        .endObject();
}

bool
readIqPerf(const json::Value &col, core::IqPerf &p)
{
    uint64_t cycles = 0;
    if (!(intField(col, "entries", p.entries) &&
          u64Field(col, "instrs", p.instructions) &&
          u64Field(col, "cycles", cycles) &&
          bitsField(col, "ipc", p.ipc) &&
          bitsField(col, "tpi_ns", p.tpi_ns)))
        return false;
    p.cycles = cycles;
    return true;
}

} // namespace

std::string
encodeCacheRow(const std::vector<core::CachePerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("cache-row").key("cols")
        .beginArray();
    for (const core::CachePerf &p : row)
        writeCachePerf(w, p);
    w.endArray().endObject();
    return os.str();
}

bool
decodeCacheRow(const std::string &text, std::vector<core::CachePerf> &row)
{
    const json::Value *cols = rowCols(text, "cache-row");
    if (!cols)
        return false;
    row.clear();
    for (const json::Value &col : cols->array) {
        core::CachePerf p;
        if (!readCachePerf(col, p))
            return false;
        row.push_back(p);
    }
    return true;
}

std::string
encodeSampledCacheRow(const std::vector<sample::SampledCachePerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("sampled-cache-row").key("cols")
        .beginArray();
    for (const sample::SampledCachePerf &p : row) {
        w.beginObject()
            .key("l1").value(static_cast<int64_t>(p.perf.l1_increments))
            .key("refs").value(std::to_string(p.perf.refs))
            .key("instrs").value(std::to_string(p.perf.instructions))
            .key("l1_miss").value(json::doubleBits(p.perf.l1_miss_ratio))
            .key("global_miss")
            .value(json::doubleBits(p.perf.global_miss_ratio))
            .key("tpi_ns").value(json::doubleBits(p.perf.tpi_ns))
            .key("tpi_miss_ns")
            .value(json::doubleBits(p.perf.tpi_miss_ns))
            .key("lo").value(json::doubleBits(p.tpi_lo_ns))
            .key("hi").value(json::doubleBits(p.tpi_hi_ns))
            .key("simulated").value(std::to_string(p.simulated_refs))
            .endObject();
    }
    w.endArray().endObject();
    return os.str();
}

bool
decodeSampledCacheRow(const std::string &text,
                      std::vector<sample::SampledCachePerf> &row)
{
    const json::Value *cols = rowCols(text, "sampled-cache-row");
    if (!cols)
        return false;
    row.clear();
    for (const json::Value &col : cols->array) {
        sample::SampledCachePerf p;
        if (!(readCachePerf(col, p.perf) &&
              bitsField(col, "lo", p.tpi_lo_ns) &&
              bitsField(col, "hi", p.tpi_hi_ns) &&
              u64Field(col, "simulated", p.simulated_refs)))
            return false;
        row.push_back(p);
    }
    return true;
}

std::string
encodeIqRow(const std::vector<core::IqPerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("iq-row").key("cols").beginArray();
    for (const core::IqPerf &p : row)
        writeIqPerf(w, p);
    w.endArray().endObject();
    return os.str();
}

bool
decodeIqRow(const std::string &text, std::vector<core::IqPerf> &row)
{
    const json::Value *cols = rowCols(text, "iq-row");
    if (!cols)
        return false;
    row.clear();
    for (const json::Value &col : cols->array) {
        core::IqPerf p;
        if (!readIqPerf(col, p))
            return false;
        row.push_back(p);
    }
    return true;
}

std::string
encodeSampledIqRow(const std::vector<sample::SampledIqPerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("sampled-iq-row").key("cols")
        .beginArray();
    for (const sample::SampledIqPerf &p : row) {
        w.beginObject()
            .key("entries").value(static_cast<int64_t>(p.perf.entries))
            .key("instrs").value(std::to_string(p.perf.instructions))
            .key("cycles")
            .value(std::to_string(static_cast<uint64_t>(p.perf.cycles)))
            .key("ipc").value(json::doubleBits(p.perf.ipc))
            .key("tpi_ns").value(json::doubleBits(p.perf.tpi_ns))
            .key("lo").value(json::doubleBits(p.tpi_lo_ns))
            .key("hi").value(json::doubleBits(p.tpi_hi_ns))
            .key("simulated").value(std::to_string(p.simulated_instrs))
            .endObject();
    }
    w.endArray().endObject();
    return os.str();
}

bool
decodeSampledIqRow(const std::string &text,
                   std::vector<sample::SampledIqPerf> &row)
{
    const json::Value *cols = rowCols(text, "sampled-iq-row");
    if (!cols)
        return false;
    row.clear();
    for (const json::Value &col : cols->array) {
        sample::SampledIqPerf p;
        if (!(readIqPerf(col, p.perf) &&
              bitsField(col, "lo", p.tpi_lo_ns) &&
              bitsField(col, "hi", p.tpi_hi_ns) &&
              u64Field(col, "simulated", p.simulated_instrs)))
            return false;
        row.push_back(p);
    }
    return true;
}

std::string
encodeIntervalSummary(const IntervalSummary &summary)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject()
        .key("kind").value("interval-summary")
        .key("instrs").value(std::to_string(summary.instructions))
        .key("intervals").value(std::to_string(summary.intervals))
        .key("total_ns").value(json::doubleBits(summary.total_time_ns))
        .key("reconfigs").value(static_cast<int64_t>(summary.reconfigurations))
        .key("committed").value(static_cast<int64_t>(summary.committed_moves))
        .key("transitions")
        .value(static_cast<int64_t>(summary.phase_transitions))
        .key("snaps").value(static_cast<int64_t>(summary.phase_snaps))
        .key("final").value(static_cast<int64_t>(summary.final_config))
        .endObject();
    return os.str();
}

bool
decodeIntervalSummary(const std::string &text, IntervalSummary &summary)
{
    json::Value parsed;
    std::string error;
    if (!json::parse(text, parsed, error) || !parsed.isObject() ||
        parsed.stringOr("kind") != "interval-summary")
        return false;
    return u64Field(parsed, "instrs", summary.instructions) &&
           u64Field(parsed, "intervals", summary.intervals) &&
           bitsField(parsed, "total_ns", summary.total_time_ns) &&
           intField(parsed, "reconfigs", summary.reconfigurations) &&
           intField(parsed, "committed", summary.committed_moves) &&
           intField(parsed, "transitions", summary.phase_transitions) &&
           intField(parsed, "snaps", summary.phase_snaps) &&
           intField(parsed, "final", summary.final_config);
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

JobExecutor::JobExecutor(ResultCache &cache, int jobs)
    : cache_(cache), pool_(jobs <= 0 ? defaultJobs() : jobs)
{
}

template <typename Row>
JobOutcome
JobExecutor::runSweep(
    const JobSpec &spec, const std::function<Interrupt()> &interrupted,
    const std::function<void(const std::string &, bool)> &onCell,
    obs::ProgressMeter *progress,
    const std::function<Row(const trace::AppProfile &)> &simulate,
    const std::function<std::string(const Row &)> &encode,
    const std::function<bool(const std::string &, Row &)> &decode,
    const std::function<void(std::ostream &,
                             const std::vector<std::string> &,
                             const std::vector<Row> &)> &render)
{
    auto poll = [&] {
        return interrupted ? interrupted() : Interrupt::None;
    };
    JobOutcome outcome;
    std::vector<const trace::AppProfile *> profiles;
    for (const std::string &name : spec.apps)
        profiles.push_back(&trace::findApp(name));
    const size_t n = profiles.size();
    outcome.cells = n;

    std::vector<Row> rows(n);
    std::vector<uint64_t> keys(n);
    std::vector<size_t> missing;
    if (progress)
        progress->beginRun(spec.label(), n, pool_.threadCount());
    for (size_t i = 0; i < n; ++i) {
        keys[i] = cellKey(spec, *profiles[i]);
        std::string value;
        if (cache_.get(keys[i], value) && decode(value, rows[i])) {
            ++outcome.cell_hits;
            if (progress)
                progress->noteCellDone(0, 0);
            if (onCell)
                onCell(profiles[i]->name, true);
        } else {
            missing.push_back(i);
        }
    }

    // Simulate the misses: one cell per application, fanned across the
    // persistent pool.  Each cell runs a single-application study
    // serially inside its worker (no nested pool submission) and
    // writes only its own slot; cell independence (docs/MODEL.md
    // section 11) makes the row bit-identical to the same
    // application's row in any multi-application study.
    std::vector<char> done(missing.size(), 0);
    Interrupt stop = poll();
    if (stop == Interrupt::None && !missing.empty()) {
        parallelFor(pool_, missing.size(), [&](size_t m) {
            if (poll() != Interrupt::None)
                return;
            const size_t i = missing[m];
            auto start = std::chrono::steady_clock::now();
            rows[i] = simulate(*profiles[i]);
            uint64_t busy_ns = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
            done[m] = 1;
            if (progress)
                progress->noteCellDone(currentWorkerId(), busy_ns);
            if (onCell)
                onCell(profiles[i]->name, false);
        });
        stop = poll();
    }
    if (progress)
        progress->endRun();

    // Cache every completed cell, even on an interrupted job: a retry
    // resumes from where this run got to.
    for (size_t m = 0; m < missing.size(); ++m) {
        if (!done[m])
            continue;
        cache_.put(keys[missing[m]], encode(rows[missing[m]]));
        ++outcome.cell_misses;
    }
    if (stop != Interrupt::None) {
        outcome.status = stop == Interrupt::Cancelled
                             ? JobOutcome::Status::Cancelled
                             : JobOutcome::Status::Deadline;
        outcome.error = stop == Interrupt::Cancelled
                            ? "cancelled"
                            : "deadline exceeded";
        return outcome;
    }

    std::ostringstream out;
    std::vector<std::string> names;
    names.reserve(n);
    for (const trace::AppProfile *app : profiles)
        names.push_back(app->name);
    render(out, names, rows);
    outcome.output = out.str();
    return outcome;
}

JobOutcome
JobExecutor::runInterval(
    const JobSpec &spec, const std::function<Interrupt()> &interrupted,
    const std::function<void(const std::string &, bool)> &onCell,
    obs::ProgressMeter *progress)
{
    JobOutcome outcome;
    outcome.cells = 1;
    const trace::AppProfile &app = trace::findApp(spec.apps[0]);
    const uint64_t key = cellKey(spec, app);
    IntervalSummary summary;
    if (progress)
        progress->beginRun(spec.label(), 1, pool_.threadCount());

    std::string value;
    if (cache_.get(key, value) && decodeIntervalSummary(value, summary)) {
        ++outcome.cell_hits;
        if (progress)
            progress->noteCellDone(0, 0);
        if (onCell)
            onCell(app.name, true);
    } else {
        Interrupt stop =
            interrupted ? interrupted() : Interrupt::None;
        if (stop != Interrupt::None) {
            if (progress)
                progress->endRun();
            outcome.status = stop == Interrupt::Cancelled
                                 ? JobOutcome::Status::Cancelled
                                 : JobOutcome::Status::Deadline;
            outcome.error = stop == Interrupt::Cancelled
                                ? "cancelled"
                                : "deadline exceeded";
            return outcome;
        }
        auto start = std::chrono::steady_clock::now();
        core::IntervalAdaptiveIq controller(iq_model_, spec.params);
        core::IntervalRunResult result =
            controller.run(app, spec.instrs, spec.entries);
        summary = summarizeIntervalRun(result, spec.entries);
        uint64_t busy_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        cache_.put(key, encodeIntervalSummary(summary));
        ++outcome.cell_misses;
        if (progress)
            progress->noteCellDone(0, busy_ns);
        if (onCell)
            onCell(app.name, false);
    }
    if (progress)
        progress->endRun();

    std::ostringstream out;
    renderIntervalRun(out, app.name, spec.instrs,
                      spec.params.trigger !=
                          core::IntervalTrigger::Period,
                      summary);
    outcome.output = out.str();
    return outcome;
}

JobOutcome
JobExecutor::run(const JobSpec &spec,
                 const std::function<Interrupt()> &interrupted,
                 const std::function<void(const std::string &, bool)>
                     &onCell,
                 obs::ProgressMeter *progress)
{
    switch (spec.kind) {
    case JobKind::CacheSweep: {
        if (spec.sampled) {
            return runSweep<std::vector<sample::SampledCachePerf>>(
                spec, interrupted, onCell, progress,
                [&](const trace::AppProfile &app) {
                    return sample::runSampledCacheStudy(
                               cache_model_, {app}, spec.refs, spec.sample)
                        .perf[0];
                },
                encodeSampledCacheRow, decodeSampledCacheRow,
                [&](std::ostream &os,
                    const std::vector<std::string> &names,
                    const std::vector<std::vector<sample::SampledCachePerf>>
                        &perf) {
                    renderSampledCacheSweep(os, names, perf, spec.refs);
                });
        }
        // A dram job gets a job-local model carrying its memory
        // config; flat jobs keep using the shared flat model, so their
        // cells stay bit-identical to pre-dram serves.
        std::optional<core::AdaptiveCacheModel> dram_model;
        if (spec.mem.isDram()) {
            dram_model.emplace();
            dram_model->setMemConfig(spec.mem);
        }
        const core::AdaptiveCacheModel &model =
            dram_model ? *dram_model : cache_model_;
        return runSweep<std::vector<core::CachePerf>>(
            spec, interrupted, onCell, progress,
            [&](const trace::AppProfile &app) {
                return core::runCacheStudy(model, {app}, spec.refs).perf[0];
            },
            encodeCacheRow, decodeCacheRow,
            [&](std::ostream &os, const std::vector<std::string> &names,
                const std::vector<std::vector<core::CachePerf>> &perf) {
                renderCacheSweep(os, names, perf, spec.refs);
            });
    }
    case JobKind::IqSweep:
        if (spec.sampled) {
            return runSweep<std::vector<sample::SampledIqPerf>>(
                spec, interrupted, onCell, progress,
                [&](const trace::AppProfile &app) {
                    return sample::runSampledIqStudy(
                               iq_model_, {app}, spec.instrs,
                               spec.sample)
                        .perf[0];
                },
                encodeSampledIqRow, decodeSampledIqRow,
                [&](std::ostream &os,
                    const std::vector<std::string> &names,
                    const std::vector<std::vector<sample::SampledIqPerf>>
                        &perf) {
                    renderSampledIqSweep(os, names, perf, spec.instrs);
                });
        }
        return runSweep<std::vector<core::IqPerf>>(
            spec, interrupted, onCell, progress,
            [&](const trace::AppProfile &app) {
                return core::runIqStudy(iq_model_, {app}, spec.instrs)
                    .perf[0];
            },
            encodeIqRow, decodeIqRow,
            [&](std::ostream &os, const std::vector<std::string> &names,
                const std::vector<std::vector<core::IqPerf>> &perf) {
                renderIqSweep(os, names, perf, spec.instrs);
            });
    case JobKind::IntervalRun:
        return runInterval(spec, interrupted, onCell, progress);
    }
    panic("unknown job kind %d", static_cast<int>(spec.kind));
}

} // namespace cap::serve
