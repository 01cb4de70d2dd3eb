#include "job.h"

#include <charconv>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <string_view>

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

// ---------------------------------------------------------------------
// Row codecs.
// ---------------------------------------------------------------------

namespace {

/**
 * One forward scan over an encoded value that accepts only the text its
 * encoder writes.  Each call consumes a fixed literal, or a literal and
 * the value after it, and returns false at the first byte that differs.
 * A value reads as the encoders write its type: an int bare
 * (Writer::value(int64_t)), a uint64_t as a quoted decimal within
 * json::parseU64's limits (1 to 20 digits, no overflow), and a double as
 * its quoted bit pattern (json::doubleBits).
 */
class RowScanner
{
  public:
    explicit RowScanner(const std::string &text)
        : pos_(text.data()), end_(text.data() + text.size())
    {
    }

    bool
    literal(std::string_view text)
    {
        if (!std::string_view(pos_, end_ - pos_).starts_with(text))
            return false;
        pos_ += text.size();
        return true;
    }

    bool
    field(std::string_view name, int &out)
    {
        if (!literal(name))
            return false;
        const auto [next, ec] = std::from_chars(pos_, end_, out);
        pos_ = next;
        return ec == std::errc();
    }

    bool
    field(std::string_view name, uint64_t &out)
    {
        if (!literal(name) || !literal("\""))
            return false;
        const char *digits = pos_;
        const auto [next, ec] = std::from_chars(digits, end_, out);
        pos_ = next;
        return ec == std::errc() && next - digits <= 20 && literal("\"");
    }

    bool
    field(std::string_view name, double &out)
    {
        uint64_t bits = 0;
        if (!field(name, bits))
            return false;
        std::memcpy(&out, &bits, sizeof(out));
        return true;
    }

    bool atEnd() const { return pos_ == end_; }

  private:
    const char *pos_;
    const char *end_;
};

/**
 * Decode a row: @p head (`{"kind":"<kind>","cols":[`), then one or
 * more columns, each read by @p scanCol through its closing brace,
 * then `]}` and nothing after it.
 */
template <typename Col, typename ScanCol>
bool
scanRow(const std::string &text, std::string_view head,
        std::vector<Col> &row, ScanCol scanCol)
{
    RowScanner in(text);
    if (!in.literal(head))
        return false;
    row.clear();
    do {
        if (!scanCol(in, row.emplace_back()))
            return false;
    } while (in.literal(","));
    return in.literal("]}") && in.atEnd();
}

/** A cache column's members, inside its object. */
json::Writer &
writeCachePerf(json::Writer &w, const core::CachePerf &p)
{
    return w.key("l1").value(static_cast<int64_t>(p.l1_increments))
        .key("refs").value(std::to_string(p.refs))
        .key("instrs").value(std::to_string(p.instructions))
        .key("l1_miss").value(json::doubleBits(p.l1_miss_ratio))
        .key("global_miss").value(json::doubleBits(p.global_miss_ratio))
        .key("tpi_ns").value(json::doubleBits(p.tpi_ns))
        .key("tpi_miss_ns").value(json::doubleBits(p.tpi_miss_ns));
}

/** writeCachePerf's members, from the opening brace up to its close. */
bool
scanCachePerf(RowScanner &in, core::CachePerf &p)
{
    return in.field("{\"l1\":", p.l1_increments) &&
           in.field(",\"refs\":", p.refs) &&
           in.field(",\"instrs\":", p.instructions) &&
           in.field(",\"l1_miss\":", p.l1_miss_ratio) &&
           in.field(",\"global_miss\":", p.global_miss_ratio) &&
           in.field(",\"tpi_ns\":", p.tpi_ns) &&
           in.field(",\"tpi_miss_ns\":", p.tpi_miss_ns);
}

/** An IQ column's members, inside its object. */
json::Writer &
writeIqPerf(json::Writer &w, const core::IqPerf &p)
{
    return w.key("entries").value(static_cast<int64_t>(p.entries))
        .key("instrs").value(std::to_string(p.instructions))
        .key("cycles").value(std::to_string(static_cast<uint64_t>(p.cycles)))
        .key("ipc").value(json::doubleBits(p.ipc))
        .key("tpi_ns").value(json::doubleBits(p.tpi_ns));
}

/** writeIqPerf's members, from the opening brace up to its close. */
bool
scanIqPerf(RowScanner &in, core::IqPerf &p)
{
    return in.field("{\"entries\":", p.entries) &&
           in.field(",\"instrs\":", p.instructions) &&
           in.field(",\"cycles\":", p.cycles) &&
           in.field(",\"ipc\":", p.ipc) &&
           in.field(",\"tpi_ns\":", p.tpi_ns);
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
        writeCachePerf(w.beginObject(), p).endObject();
    w.endArray().endObject();
    return os.str();
}

bool
decodeCacheRow(const std::string &text, std::vector<core::CachePerf> &row)
{
    return scanRow(text, "{\"kind\":\"cache-row\",\"cols\":[", row,
                   [](RowScanner &in, core::CachePerf &p) {
                       return scanCachePerf(in, p) && in.literal("}");
                   });
}

std::string
encodeSampledCacheRow(const std::vector<sample::SampledCachePerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("sampled-cache-row").key("cols")
        .beginArray();
    for (const sample::SampledCachePerf &p : row) {
        writeCachePerf(w.beginObject(), p.perf)
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
    return scanRow(text, "{\"kind\":\"sampled-cache-row\",\"cols\":[", row,
                   [](RowScanner &in, sample::SampledCachePerf &p) {
                       return scanCachePerf(in, p.perf) &&
                              in.field(",\"lo\":", p.tpi_lo_ns) &&
                              in.field(",\"hi\":", p.tpi_hi_ns) &&
                              in.field(",\"simulated\":", p.simulated_refs) &&
                              in.literal("}");
                   });
}

std::string
encodeIqRow(const std::vector<core::IqPerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("iq-row").key("cols").beginArray();
    for (const core::IqPerf &p : row)
        writeIqPerf(w.beginObject(), p).endObject();
    w.endArray().endObject();
    return os.str();
}

bool
decodeIqRow(const std::string &text, std::vector<core::IqPerf> &row)
{
    return scanRow(text, "{\"kind\":\"iq-row\",\"cols\":[", row,
                   [](RowScanner &in, core::IqPerf &p) {
                       return scanIqPerf(in, p) && in.literal("}");
                   });
}

std::string
encodeSampledIqRow(const std::vector<sample::SampledIqPerf> &row)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().key("kind").value("sampled-iq-row").key("cols")
        .beginArray();
    for (const sample::SampledIqPerf &p : row) {
        writeIqPerf(w.beginObject(), p.perf)
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
    return scanRow(text, "{\"kind\":\"sampled-iq-row\",\"cols\":[", row,
                   [](RowScanner &in, sample::SampledIqPerf &p) {
                       return scanIqPerf(in, p.perf) &&
                              in.field(",\"lo\":", p.tpi_lo_ns) &&
                              in.field(",\"hi\":", p.tpi_hi_ns) &&
                              in.field(",\"simulated\":",
                                       p.simulated_instrs) &&
                              in.literal("}");
                   });
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
    RowScanner in(text);
    return in.field("{\"kind\":\"interval-summary\",\"instrs\":",
                    summary.instructions) &&
           in.field(",\"intervals\":", summary.intervals) &&
           in.field(",\"total_ns\":", summary.total_time_ns) &&
           in.field(",\"reconfigs\":", summary.reconfigurations) &&
           in.field(",\"committed\":", summary.committed_moves) &&
           in.field(",\"transitions\":", summary.phase_transitions) &&
           in.field(",\"snaps\":", summary.phase_snaps) &&
           in.field(",\"final\":", summary.final_config) &&
           in.literal("}") && in.atEnd();
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
    const std::vector<uint64_t> keys = cellKeys(spec, profiles);
    std::vector<size_t> missing;
    if (progress)
        progress->beginRun(spec.label(), n, pool_.threadCount());
    for (size_t i = 0; i < n; ++i) {
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

namespace {

/** @p render, a sweep renderer, at run length @p length. */
template <typename Row>
auto
renderAt(void (*render)(std::ostream &, const std::vector<std::string> &,
                        const std::vector<Row> &, uint64_t),
         uint64_t length)
{
    return [=](std::ostream &os, const std::vector<std::string> &names,
               const std::vector<Row> &rows) {
        render(os, names, rows, length);
    };
}

} // namespace

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
                renderAt(renderSampledCacheSweep, spec.refs));
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
            renderAt(renderCacheSweep, spec.refs));
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
                renderAt(renderSampledIqSweep, spec.instrs));
        }
        return runSweep<std::vector<core::IqPerf>>(
            spec, interrupted, onCell, progress,
            [&](const trace::AppProfile &app) {
                return core::runIqStudy(iq_model_, {app}, spec.instrs)
                    .perf[0];
            },
            encodeIqRow, decodeIqRow, renderAt(renderIqSweep, spec.instrs));
    case JobKind::IntervalRun:
        return runSweep<IntervalSummary>(
            spec, interrupted, onCell, progress,
            [&](const trace::AppProfile &app) {
                core::IntervalAdaptiveIq controller(iq_model_, spec.params);
                return summarizeIntervalRun(
                    controller.run(app, spec.instrs, spec.entries),
                    spec.entries);
            },
            encodeIntervalSummary, decodeIntervalSummary,
            [&](std::ostream &os, const std::vector<std::string> &names,
                const std::vector<IntervalSummary> &summary) {
                renderIntervalRun(os, names[0], spec.instrs,
                                  spec.params.trigger !=
                                      core::IntervalTrigger::Period,
                                  summary[0]);
            });
    }
    panic("unknown job kind %d", static_cast<int>(spec.kind));
}

} // namespace cap::serve
