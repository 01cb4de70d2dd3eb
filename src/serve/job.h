/**
 * @file
 * Server jobs: the parsed request, the per-application cell keys, the
 * row codecs, and the executor that turns a job into the offline
 * verb's exact output bytes.
 *
 * A job decomposes into one cell per application -- the (app x config)
 * sweep row.  Cells of a study are independent simulations seeded from
 * the application profile (docs/MODEL.md section 11), so a row
 * computed for a single-application study is bit-identical to the same
 * application's row in a multi-application study; that independence is
 * what makes per-application caching sound.  The executor resolves
 * each cell against the ResultCache, simulates only the misses (fanned
 * across its persistent ThreadPool), inserts the new rows, and renders
 * the assembled matrix through serve/render -- the same code path the
 * offline verbs print through.
 *
 * Row values are canonical JSON with every 64-bit field (and every
 * double, as its bit pattern) serialized as a decimal string, so a
 * row survives the cache -> spill -> reload -> render round trip
 * bit-exactly.  A decoder reads exactly the text its encoder writes,
 * in one forward scan; any other text (reordered members, whitespace,
 * a fractional or out-of-range number, trailing bytes) decodes false,
 * which the executor treats as a miss and re-simulates.
 */

#ifndef CAPSIM_SERVE_JOB_H
#define CAPSIM_SERVE_JOB_H

#include <functional>
#include <string>
#include <vector>

#include "core/adaptive_cache.h"
#include "core/adaptive_iq.h"
#include "core/interval_controller.h"
#include "mem/mem_model.h"
#include "obs/progress.h"
#include "sample/sampler.h"
#include "serve/render.h"
#include "serve/result_cache.h"
#include "util/json.h"
#include "util/parallel.h"

namespace cap::serve {

enum class JobKind { CacheSweep, IqSweep, IntervalRun };

const char *jobKindName(JobKind kind);

/** A validated study request (the "job" object of a submit). */
struct JobSpec
{
    JobKind kind = JobKind::CacheSweep;
    /** Sampled estimation instead of the full sweep (sweep kinds). */
    bool sampled = false;
    /** Resolved application names ("all" already expanded). */
    std::vector<std::string> apps;
    /** References per cell (cache sweep). */
    uint64_t refs = 150000;
    /** Instructions per cell (IQ sweep / interval run). */
    uint64_t instrs = 120000;
    /** Sampling knobs (sweep kinds, when sampled). */
    sample::SampleParams sample;
    /** Miss backend (cache sweep; "mem" spec string).  Part of the
     *  cell key when dram -- a cached flat row must never answer a
     *  dram query.  The IQ kinds model no memory and ignore it. */
    mem::MemConfig mem;
    /** Controller tunables (interval-run). */
    core::IntervalPolicyParams params;
    /** Initial queue size (interval-run). */
    int entries = 32;
    /** Per-job deadline, seconds from enqueue; 0 = none. */
    double deadline_s = 0.0;

    /** Progress label, e.g. "serve:cache-sweep". */
    std::string label() const;
};

/**
 * Parse and validate a job object (field defaults mirror the offline
 * verbs, so an empty job body reproduces the offline defaults).
 * Returns false with @p error set for unknown kinds, unknown keys (in
 * the job or its "sample" object), unknown applications, or
 * out-of-range controller parameters.
 */
bool jobFromJson(const json::Value &job, JobSpec &spec,
                 std::string &error);

/**
 * Content-hash key of @p app's cell under @p spec: profile hash,
 * study kind, run length, configuration vector, and sampling knobs
 * when sampled, plus the memory config under dram.  The worker
 * count is excluded: results are bit-identical for every `jobs`.
 * The profile hash of a trace::workloadSuite() element comes from a
 * table built on first use; any other profile object is hashed on the
 * spot, so a copy keys like the suite object it copies.
 */
uint64_t cellKey(const JobSpec &spec, const trace::AppProfile &app);

/** Row codecs (canonical JSON, bit-exact doubles). */
std::string encodeCacheRow(const std::vector<core::CachePerf> &row);
bool decodeCacheRow(const std::string &text,
                    std::vector<core::CachePerf> &row);
std::string
encodeSampledCacheRow(const std::vector<sample::SampledCachePerf> &row);
bool decodeSampledCacheRow(const std::string &text,
                           std::vector<sample::SampledCachePerf> &row);
std::string encodeIqRow(const std::vector<core::IqPerf> &row);
bool decodeIqRow(const std::string &text,
                 std::vector<core::IqPerf> &row);
std::string
encodeSampledIqRow(const std::vector<sample::SampledIqPerf> &row);
bool decodeSampledIqRow(const std::string &text,
                        std::vector<sample::SampledIqPerf> &row);
std::string encodeIntervalSummary(const IntervalSummary &summary);
bool decodeIntervalSummary(const std::string &text,
                           IntervalSummary &summary);

/** Terminal state of one executed job. */
struct JobOutcome
{
    enum class Status { Ok, Cancelled, Deadline, Error };

    Status status = Status::Ok;
    std::string error;
    /** Rendered result text, byte-identical to the offline verb. */
    std::string output;
    uint64_t cells = 0;
    uint64_t cell_hits = 0;
    uint64_t cell_misses = 0;

    bool ok() const { return status == Status::Ok; }
};

/** Why a poll callback interrupted a running job. */
enum class Interrupt { None, Cancelled, Deadline };

/**
 * Executes jobs against a ResultCache on a persistent ThreadPool.
 * Owned and driven by the server's single executor thread; the models
 * and the pool are built once and reused across every job (shared
 * read-only state -- profiles come from trace::workloadSuite(), the
 * process-wide library, resolved once at job validation).
 */
class JobExecutor
{
  public:
    /** @param jobs Pool width; <= 0 selects defaultJobs(). */
    JobExecutor(ResultCache &cache, int jobs);

    /**
     * Run @p spec to completion (or interruption).
     * @param interrupted Polled between cells (and inside the fan-out)
     *        to abort on cancellation or deadline expiry.
     * @param onCell Invoked once per cell as it resolves -- from pool
     *        worker threads for simulated cells -- with the application
     *        name and whether the cell was served from cache.  Must be
     *        thread-safe; may be empty.
     * @param progress Optional heartbeat meter (beginRun/endRun are
     *        driven here, one run per job, one cell per application).
     */
    JobOutcome run(const JobSpec &spec,
                   const std::function<Interrupt()> &interrupted,
                   const std::function<void(const std::string &, bool)>
                       &onCell,
                   obs::ProgressMeter *progress);

    int jobs() const { return pool_.threadCount(); }

  private:
    template <typename Row>
    JobOutcome runSweep(
        const JobSpec &spec,
        const std::function<Interrupt()> &interrupted,
        const std::function<void(const std::string &, bool)> &onCell,
        obs::ProgressMeter *progress,
        const std::function<Row(const trace::AppProfile &)> &simulate,
        const std::function<std::string(const Row &)> &encode,
        const std::function<bool(const std::string &, Row &)> &decode,
        const std::function<void(std::ostream &,
                                 const std::vector<std::string> &,
                                 const std::vector<Row> &)> &render);

    JobOutcome runInterval(
        const JobSpec &spec,
        const std::function<Interrupt()> &interrupted,
        const std::function<void(const std::string &, bool)> &onCell,
        obs::ProgressMeter *progress);

    ResultCache &cache_;
    ThreadPool pool_;
    core::AdaptiveCacheModel cache_model_;
    core::AdaptiveIqModel iq_model_;
};

} // namespace cap::serve

#endif // CAPSIM_SERVE_JOB_H
