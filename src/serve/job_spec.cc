/**
 * @file
 * The study spec's one table (forEachField): every JobSpec field with
 * its job key, and so its flag; its type, read by read(), and range;
 * and its cell-key entry.  jobFromJson, jobFromFlags and JobKey all
 * read it, and both front ends end in finishJob's checks.
 */

#include "job.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <type_traits>

#include "trace/workloads.h"

namespace cap::serve {

namespace {

constexpr unsigned
kindBit(JobKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

constexpr unsigned kCache = kindBit(JobKind::CacheSweep);
constexpr unsigned kIq = kindBit(JobKind::IqSweep);
constexpr unsigned kRun = kindBit(JobKind::IntervalRun);
constexpr unsigned kAll = kCache | kIq | kRun;

/** When a keyed field enters the cell keys of its kinds. */
enum class When { Always, Sampled, Dram };

/** One field of the table. */
struct Row
{
    /** Job key ("sample.clusters": the "clusters" of "sample"), or
     *  nullptr for a field no request sets.  Its flag: flagName(). */
    const char *key;
    /** Name in the cell key, or nullptr for a field not keyed. */
    const char *cell = nullptr;
    /** The kinds whose cell keys carry the field, and when. */
    unsigned kinds = 0;
    When when = When::Always;
    /** A count that must be at least 1. */
    bool positive = false;
};

/** JobSpec::deadline_s as a job gives it: milliseconds, none unless
 *  positive. */
template <typename D>
struct Millis
{
    D &seconds;
};

/** The cache study's boundaries (runCacheStudy's max_l1_increments)
 *  and the IQ study's queue sizes: constants of their kinds' keys. */
constexpr uint64_t kCacheBoundaries = 8;

const std::string &
iqStudySizes()
{
    static const std::string sizes = [] {
        std::string text;
        for (int entries : core::AdaptiveIqModel::studySizes())
            text += std::to_string(entries) + ",";
        return text;
    }();
    return sizes;
}

/** The table: @p visit(row, member) for every field of the JobSpec
 *  @p s, const or not, and for the constants keyed beside them. */
template <typename Spec, typename Visit>
void
forEachField(Spec &s, Visit &&visit)
{
    using enum When;
    auto &m = s.sample;
    auto &d = s.mem.dram;
    auto &p = s.params;
    // Row{job key, cell key, kinds, when, positive}, member.
    visit(Row{"kind", "kind", kAll}, s.kind);
    visit(Row{"apps"}, s.apps); // each cell is keyed by its profile
    visit(Row{"sampled", "sampled", kAll, Sampled}, s.sampled);
    visit(Row{"refs", "refs", kCache, Always, true}, s.refs);
    visit(Row{"instrs", "instrs", kIq | kRun, Always, true}, s.instrs);
    visit(Row{"sample.interval", "sample.interval", kAll, Sampled, true},
          m.interval_len);
    visit(Row{"sample.clusters", "sample.clusters", kAll, Sampled, true},
          m.clusters);
    visit(Row{"sample.warmup", "sample.warmup", kAll, Sampled},
          m.warmup_len);
    visit(Row{"sample.cold_prefix", "sample.cold_prefix", kAll, Sampled},
          m.cold_prefix_len);
    visit(Row{nullptr, "sample.max_sweeps", kAll, Sampled}, m.max_sweeps);
    visit(Row{nullptr, "sample.confidence_z", kAll, Sampled},
          m.confidence_z);
    visit(Row{nullptr, "sample.cluster_seed", kAll, Sampled},
          m.cluster_seed);
    visit(Row{nullptr, "sample.variance_probes", kAll, Sampled},
          m.variance_probes);
    // The miss backend, keyed only when dram, so that flat cells keep
    // the keys they had before the dram backend existed.
    visit(Row{"mem", "mem", kCache, Dram}, s.mem);
    visit(Row{nullptr, "mem.banks", kCache, Dram}, d.banks);
    visit(Row{nullptr, "mem.row_bytes", kCache, Dram}, d.row_bytes);
    visit(Row{nullptr, "mem.row_hit_ns", kCache, Dram}, d.row_hit_ns);
    visit(Row{nullptr, "mem.row_miss_ns", kCache, Dram}, d.row_miss_ns);
    visit(Row{nullptr, "mem.row_conflict_ns", kCache, Dram},
          d.row_conflict_ns);
    visit(Row{nullptr, "mem.burst_ns", kCache, Dram}, d.burst_ns);
    visit(Row{nullptr, "mem.mshr", kCache, Dram}, d.mshr_entries);
    visit(Row{nullptr, "mem.policy", kCache, Dram}, d.page_policy);
    visit(Row{"entries", "entries", kRun}, s.entries);
    visit(Row{"interval", "interval_instrs", kRun}, p.interval_instrs);
    visit(Row{"probe_period", "probe_period", kRun}, p.probe_period);
    visit(Row{"confidence", "confidence", kRun}, p.confidence_needed);
    visit(Row{"probe_max", "probe_max", kRun}, p.probe_period_max);
    visit(Row{"phase_threshold", "phase_threshold", kRun},
          p.phase_distance_threshold);
    visit(Row{"trigger", "trigger", kRun}, p.trigger);
    visit(Row{nullptr, "ewma_alpha", kRun}, p.ewma_alpha);
    visit(Row{nullptr, "switch_margin", kRun}, p.switch_margin);
    visit(Row{nullptr, "use_confidence", kRun}, p.use_confidence);
    visit(Row{nullptr, "switch_penalty", kRun}, p.switch_penalty_cycles);
    visit(Row{nullptr, "max_phases", kRun}, p.max_phases);
    visit(Row{"deadline_ms"}, Millis{s.deadline_s}); // not keyed
    visit(Row{nullptr, "boundaries", kCache}, kCacheBoundaries);
    visit(Row{nullptr, "sizes", kIq}, iqStudySizes());
}

/** Converts to any type: an initializer for any aggregate member. */
struct AnyMember
{
    template <typename T>
    operator T() const;
};

/** The number of members of the aggregate @p T. */
template <typename T, typename... Members>
constexpr size_t
memberCount()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return memberCount<T, Members..., AnyMember>();
    else
        return sizeof...(Members);
}

// A field added to one of these aggregates needs its row above (a job
// key, a cell-key entry, both, or neither like deadline_s); then its
// count here.
static_assert(memberCount<JobSpec>() == 10);
static_assert(memberCount<sample::SampleParams>() == 8);
static_assert(memberCount<mem::MemConfig>() == 2);
static_assert(memberCount<mem::DramParams>() == 8);
static_assert(memberCount<core::IntervalPolicyParams>() == 11);

/** A field's value as a request gives it -- a job's JSON value or a
 *  flag's text -- and the field's name as that request spells it.
 *  Each read() of one returns "" or the error. */
struct Given
{
    const json::Value *json = nullptr;
    const std::string *text = nullptr;
    std::string name;

    /** The value as a string; nullptr when it is not one. */
    const std::string *
    string() const
    {
        return text ? text : json->isString() ? &json->string : nullptr;
    }
};

/** A count: an integer in [0, 2^64) or a decimal string, within the
 *  member's type. */
template <typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>) &&
             (!std::is_const_v<T>)
std::string
read(const Given &g, T &out, bool positive)
{
    uint64_t value = 0;
    if (!(g.text ? json::parseU64(*g.text, value) : g.json->asU64(value)))
        return g.name + " must be an integer in [0, 2^64)";
    if (positive && value == 0)
        return g.name + " must be positive";
    if (value > static_cast<uint64_t>(std::numeric_limits<T>::max()))
        return g.name + " is out of range";
    out = static_cast<T>(value);
    return "";
}

std::string
read(const Given &g, double &out, bool)
{
    double value = 0.0;
    if (g.text ? !json::parseNumber(*g.text, value) : !g.json->isNumber())
        return g.name + (g.text ? " must be a finite unsigned number"
                                : " must be a number");
    out = g.text ? value : g.json->number;
    return "";
}

std::string
read(const Given &g, Millis<double> out, bool)
{
    double ms = 0.0;
    std::string error = read(g, ms, false);
    out.seconds = ms > 0.0 ? ms / 1000.0 : 0.0;
    return error;
}

std::string
read(const Given &g, bool &out, bool)
{
    if (g.text || g.json->type != json::Value::Type::Bool)
        return g.name + " must be true or false";
    out = g.json->boolean;
    return "";
}

std::string
read(const Given &g, JobKind &out, bool)
{
    const std::string *name = g.string();
    for (JobKind kind :
         {JobKind::CacheSweep, JobKind::IqSweep, JobKind::IntervalRun}) {
        if (name && *name == jobKindName(kind)) {
            out = kind;
            return "";
        }
    }
    return name ? "unknown job kind '" + *name + "'"
                : g.name + " must be cache-sweep, iq-sweep, or "
                           "interval-run";
}

std::string
read(const Given &g, core::IntervalTrigger &out, bool)
{
    const std::pair<const char *, core::IntervalTrigger> triggers[] = {
        {"period", core::IntervalTrigger::Period},
        {"phase", core::IntervalTrigger::PhaseChange},
        {"hybrid", core::IntervalTrigger::Hybrid}};
    const std::string *name = g.string();
    for (const auto &[text, trigger] : triggers) {
        if (name && *name == text) {
            out = trigger;
            return "";
        }
    }
    return g.name + " must be period, phase, or hybrid";
}

std::string
read(const Given &g, mem::MemConfig &out, bool)
{
    const std::string *spec = g.string();
    std::string error;
    if (!spec)
        return g.name + " must be a spec string (\"flat\" or "
                        "\"dram[:k=v,..]\")";
    return mem::parseMemSpec(*spec, out, error) ? "" : error;
}

/** "all", a name, or (in a job) an array of names; resolveApps()
 *  expands them once the kind is known. */
std::string
read(const Given &g, std::vector<std::string> &out, bool)
{
    out.clear();
    if (const std::string *name = g.string()) {
        out.push_back(*name);
    } else if (g.json->isArray()) {
        for (const json::Value &entry : g.json->array) {
            if (!entry.isString())
                return g.name + " entries must be strings";
            out.push_back(entry.string);
        }
    } else {
        return g.name + " must be a string or an array of strings";
    }
    return out.empty() ? g.name + " must name at least one application"
                       : "";
}

/** How a request names a field in an error. */
enum class Syntax { Json, Flags };

std::string
nameOf(std::string_view key, Syntax syntax)
{
    return syntax == Syntax::Flags
               ? "--" + flagName(key)
               : "\"" + std::string(key.substr(key.rfind('.') + 1)) +
                     "\"";
}

/**
 * What both front ends check once every field is read: the
 * applications resolved, then the rules that tie fields together.
 */
bool
finishJob(JobSpec &spec, Syntax syntax, std::string &error)
{
    if (!resolveApps(spec.kind, spec.apps, error))
        return false;
    if (spec.kind == JobKind::CacheSweep && spec.sampled &&
        spec.mem.isDram()) {
        error = std::string("sampled mode supports ") +
                (syntax == Syntax::Flags ? "--" : "") +
                "mem=flat only (sampled reconstruction assumes a "
                "position-independent miss cost)";
        return false;
    }
    if (spec.kind != JobKind::IntervalRun)
        return true;
    const core::IntervalPolicyParams &p = spec.params;
    const std::vector<int> sizes = core::AdaptiveIqModel::studySizes();
    if (spec.sampled) {
        error = "interval-run has no sampled mode";
    } else if (spec.apps.size() != 1) {
        error = "interval-run needs a single application";
    } else if (std::find(sizes.begin(), sizes.end(), spec.entries) ==
               sizes.end()) {
        error = nameOf("entries", syntax) + " " +
                std::to_string(spec.entries) +
                " is not a study configuration";
    } else if (const char *knob =
                   p.interval_instrs == 0              ? "interval"
                   : p.probe_period < 2                ? "probe_period"
                   : p.confidence_needed < 1           ? "confidence"
                   : p.probe_period_max < p.probe_period ? "probe_max"
                   : !(p.phase_distance_threshold > 0.0)
                       ? "phase_threshold"
                       : nullptr) {
        error = "invalid interval-controller parameters: " +
                nameOf(knob, syntax);
    }
    return error.empty();
}

/** False with @p error naming the first member of @p object that is
 *  not a job key once @p prefix is put before it. */
bool
onlyJobKeys(const json::Value &object, const std::string &prefix,
            const char *what, std::string &error)
{
    // The table's keys, "sample" (the object of the "sample." keys) and
    // the retired "one_pass", which is still accepted, and ignored.
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> keys{"sample", "one_pass"};
        const JobSpec defaults;
        forEachField(defaults, [&](const Row &row, const auto &) {
            if (row.key)
                keys.push_back(row.key);
        });
        return keys;
    }();
    for (const auto &[name, member] : object.object) {
        if (name.find('.') != std::string::npos ||
            std::find(keys.begin(), keys.end(), prefix + name) ==
                keys.end()) {
            error = std::string("unknown ") + what + " key \"" + name +
                    "\"";
            return false;
        }
    }
    return true;
}

/** The member of @p job at @p key ("sample.clusters" looks inside
 *  "sample"), or nullptr. */
const json::Value *
memberAt(const json::Value &job, std::string_view key)
{
    const size_t dot = key.find('.');
    const json::Value *outer = job.find(std::string(key.substr(0, dot)));
    if (!outer || dot == std::string_view::npos)
        return outer;
    return outer->find(std::string(key.substr(dot + 1)));
}

/** Whether @p row's field is part of @p spec's cell keys. */
bool
keyed(const Row &row, const JobSpec &spec)
{
    return row.cell && (row.kinds & kindBit(spec.kind)) &&
           (row.when == When::Always ||
            (row.when == When::Sampled && spec.sampled) ||
            (row.when == When::Dram && spec.mem.isDram()));
}

/** A keyed member's text: a kind's name, a memory config's canonical
 *  spec, a double's bit pattern, or a number in decimal. */
template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T> ||
             std::is_same_v<T, mem::MemConfig> ||
             std::is_same_v<T, std::string>
std::string
keyText(const T &value)
{
    if constexpr (std::is_same_v<T, JobKind>)
        return jobKindName(value);
    else if constexpr (std::is_same_v<T, mem::MemConfig>)
        return value.canonical();
    else if constexpr (std::is_same_v<T, std::string>)
        return value;
    else if constexpr (std::is_floating_point_v<T>)
        return json::doubleBits(value);
    else if constexpr (std::is_enum_v<T>)
        return std::to_string(static_cast<int64_t>(value));
    else
        return std::to_string(value);
}

/**
 * hashAppProfile(@p app).  The suite's profiles never change, so the
 * hashes of its own objects come from a table built on first use; any
 * other object (a copy, a re-seeded variant) is hashed on the spot.
 */
uint64_t
profileHash(const trace::AppProfile &app)
{
    const std::vector<trace::AppProfile> &suite = trace::workloadSuite();
    static const std::vector<uint64_t> hashes = [&suite] {
        std::vector<uint64_t> table;
        for (const trace::AppProfile &profile : suite)
            table.push_back(hashAppProfile(profile));
        return table;
    }();
    for (size_t i = 0; i < suite.size(); ++i) {
        if (&suite[i] == &app)
            return hashes[i];
    }
    return hashAppProfile(app);
}

} // namespace

std::string
flagName(std::string_view key)
{
    std::string flag(key.substr(key.rfind('.') + 1));
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

bool
resolveApps(JobKind kind, std::vector<std::string> &apps,
            std::string &error)
{
    const std::vector<trace::AppProfile> &suite = trace::workloadSuite();
    std::vector<std::string> resolved;
    for (const std::string &name : apps) {
        if (name == "all") {
            for (const trace::AppProfile &app :
                 kind == JobKind::CacheSweep ? trace::cacheStudyApps()
                                             : trace::iqStudyApps())
                resolved.push_back(app.name);
        } else if (std::any_of(suite.begin(), suite.end(),
                               [&](const trace::AppProfile &app) {
                                   return app.name == name;
                               })) {
            resolved.push_back(name);
        } else {
            error = "unknown application '" + name + "'";
            return false;
        }
    }
    apps = std::move(resolved);
    return true;
}

bool
jobFromJson(const json::Value &job, JobSpec &spec, std::string &error)
{
    if (!job.isObject()) {
        error = "job must be an object";
        return false;
    }
    const json::Value *sample = job.find("sample");
    if (sample && !sample->isObject()) {
        error = "\"sample\" must be an object";
        return false;
    }
    // A misspelt key must not fall back to a default silently.
    if (!onlyJobKeys(job, "", "job", error) ||
        (sample && !onlyJobKeys(*sample, "sample.", "sample", error)))
        return false;
    if (!job.find("kind")) {
        error = "job needs a \"kind\" (cache-sweep, iq-sweep, or "
                "interval-run)";
        return false;
    }
    if (!job.find("apps")) {
        error = "job needs an \"apps\" field (\"all\", a name, or a "
                "list of names)";
        return false;
    }
    spec = JobSpec{};
    error.clear();
    forEachField(spec, [&](const Row &row, auto &&member) {
        if constexpr (requires { read(Given{}, member, false); }) {
            const json::Value *value =
                row.key && error.empty() ? memberAt(job, row.key) : nullptr;
            if (value)
                error = read(Given{value, nullptr,
                                   nameOf(row.key, Syntax::Json)},
                             member, row.positive);
        }
    });
    return error.empty() && finishJob(spec, Syntax::Json, error);
}

bool
jobFromFlags(const std::map<std::string, std::string> &flags,
             const std::vector<std::string_view> &keys, JobSpec &spec,
             std::string &error)
{
    // Each given field: its text and the flag it came from.
    std::map<std::string_view, std::pair<std::string, std::string>> given;
    for (std::string_view key : keys) {
        auto flag = flags.find(flagName(key));
        if (flag == flags.end())
            continue;
        if (key != "sample") {
            given[key] = {flag->second, "--" + flag->first};
            continue;
        }
        // --sample[=k[,interval[,warmup]]]: a sampled study, with those
        // sample knobs over their defaults.
        spec.sampled = true;
        const std::string &text = flag->second;
        const char *parts[] = {"sample.clusters", "sample.interval",
                               "sample.warmup"};
        for (size_t start = 0, part = 0; !text.empty(); ++part) {
            if (part == std::size(parts)) {
                error = "--sample takes at most k,interval,warmup";
                return false;
            }
            const size_t comma = text.find(',', start);
            given[parts[part]] = {text.substr(start, comma - start),
                                  "--sample"};
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }
    error.clear();
    forEachField(spec, [&](const Row &row, auto &&member) {
        if constexpr (requires { read(Given{}, member, false); }) {
            auto it = row.key && error.empty() ? given.find(row.key)
                                               : given.end();
            if (it != given.end())
                error = read(Given{nullptr, &it->second.first,
                                   it->second.second},
                             member, row.positive);
        }
    });
    return error.empty() && finishJob(spec, Syntax::Flags, error);
}

std::vector<uint64_t>
cellKeys(const JobSpec &spec,
         const std::vector<const trace::AppProfile *> &apps)
{
    KeyBuilder job;
    forEachField(spec, [&](const Row &row, const auto &member) {
        if constexpr (requires { keyText(member); }) {
            if (keyed(row, spec))
                job.add(row.cell, keyText(member));
        }
    });
    // Each cell's key is the job's canonical text with the cell's
    // profile hash sorted into it.
    const auto [head, tail] = job.canonicalAround("profile");
    const uint64_t head_hash = fnv1a(head);
    std::vector<uint64_t> keys;
    for (const trace::AppProfile *app : apps) {
        const std::string profile =
            "profile=" + std::to_string(profileHash(*app)) + ";";
        keys.push_back(fnv1a(tail, fnv1a(profile, head_hash)));
    }
    return keys;
}

uint64_t
cellKey(const JobSpec &spec, const trace::AppProfile &app)
{
    return cellKeys(spec, {&app})[0];
}

} // namespace cap::serve
