#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace cap::mem {

/** Which memory backend serves L2 misses. Flat is the historical
 *  fixed-latency edge (CacheMachine::kL2MissNs per miss) and the
 *  differential-test reference; Dram is the banked row-buffer model
 *  with MSHR-based non-blocking misses. */
enum class MemKind { Flat, Dram };

/** Row-buffer management policy. Open keeps the row latched after an
 *  access (hits are cheap, conflicts pay precharge+activate); Closed
 *  precharges eagerly, so every access pays activate+read but never a
 *  conflict. */
enum class PagePolicy { Open, Closed };

/** Timing knobs for the banked DRAM backend. The defaults are chosen
 *  so that a fully row-conflicting, bank-serial workload degrades
 *  toward (and past) the historical 30 ns flat edge while streaming
 *  row hits run about twice as fast. */
struct DramParams {
    /** Number of independent banks (row IDs interleave across them). */
    uint32_t banks = 8;
    /** Row-buffer size in bytes; consecutive addresses share a row. */
    uint64_t row_bytes = 2048;
    /** Access that hits the open row: column access + transfer. */
    Nanoseconds row_hit_ns = 15.0;
    /** Access to an idle (precharged) bank: activate + column; the
     *  default matches the historical flat edge (kL2MissNs). */
    Nanoseconds row_miss_ns = 2.0 * row_hit_ns;
    /** Access that must close another row first: precharge +
     *  activate + column. */
    Nanoseconds row_conflict_ns = 3.0 * row_hit_ns;
    /** Channel occupancy per transfer; back-to-back accesses to
     *  different banks still serialize on this. */
    Nanoseconds burst_ns = 4.0;
    /** MSHR file size: maximum outstanding primary misses. */
    uint32_t mshr_entries = 8;
    /** Row-buffer management policy. */
    PagePolicy page_policy = PagePolicy::Open;

    bool operator==(const DramParams &) const = default;
};

/** Full memory configuration as selected by `--mem=...`. */
struct MemConfig {
    MemKind kind = MemKind::Flat;
    DramParams dram;

    bool isDram() const { return kind == MemKind::Dram; }

    bool operator==(const MemConfig &) const = default;

    /** Canonical spec string (parseable by parseMemSpec); "flat" or
     *  "dram:banks=..,row=..,...". Used for labels and job specs. */
    std::string canonical() const;
};

/** Parse a `--mem` spec: "flat", "dram", or "dram:" followed by
 *  comma-separated knobs (banks, row, hit, miss, conflict, burst,
 *  mshr, policy=open|closed). Returns false and fills @p error on a
 *  malformed spec; @p config is untouched on failure. */
bool parseMemSpec(const std::string &spec, MemConfig &config,
                  std::string &error);

/** Aggregate DRAM-side statistics for one backend instance. */
struct DramStats {
    uint64_t accesses = 0;
    uint64_t row_hits = 0;
    uint64_t row_misses = 0;
    uint64_t row_conflicts = 0;
    /** Sum of pure service latencies (completion - issue); each term
     *  is at least row_hit_ns, the model's latency floor. */
    Nanoseconds service_ns = 0.0;
    /** Sum of queueing waits (issue - arrival) lost to busy banks and
     *  channel contention. */
    Nanoseconds queue_ns = 0.0;
};

/** Aggregate MSHR-side statistics. allocs + merges equals the number
 *  of misses presented to the backend. */
struct MshrStats {
    uint64_t allocs = 0;
    uint64_t merges = 0;
    uint64_t full_stalls = 0;
    /** Pipeline stall charged across all misses (what the perf models
     *  add to compute time in place of misses * kL2MissNs). */
    Nanoseconds stall_ns = 0.0;
};

/** Banked DRAM timing backend with a bounded MSHR file.
 *
 *  Deterministic and trace-ordered: the caller walks the reference
 *  stream maintaining a running pipeline clock `now_ns` and presents
 *  each L2 miss in order; onMiss() returns the stall to charge the
 *  pipeline. Overlap is modeled by the MSHR file: a primary miss
 *  charges its total wait divided by the number of misses then in
 *  flight (memory-level parallelism discount), a secondary miss to a
 *  block already in flight merges and charges only the remaining
 *  wait, and when the file is full the pipeline stalls until the
 *  earliest outstanding miss completes. */
class DramBackend {
public:
    explicit DramBackend(const DramParams &params);

    /** Present one L2 miss for @p addr at pipeline time @p now_ns;
     *  returns the stall (>= 0) to charge the pipeline. */
    Nanoseconds onMiss(Addr addr, Nanoseconds now_ns);

    /** Forget all bank/MSHR state and statistics. */
    void reset();

    const DramParams &params() const { return params_; }
    const DramStats &dramStats() const { return dram_; }
    const MshrStats &mshrStats() const { return mshr_; }

private:
    struct Bank {
        uint64_t open_row = 0;
        bool row_valid = false;
        Nanoseconds busy_until = 0.0;
    };
    struct Entry {
        Addr block = 0;
        Nanoseconds completion = 0.0;
        bool valid = false;
    };

    /** Issue one DRAM access and return its completion time. */
    Nanoseconds serviceAccess(Addr addr, Nanoseconds ready_ns);

    DramParams params_;
    std::vector<Bank> banks_;
    std::vector<Entry> mshrs_;
    Nanoseconds channel_free_ = 0.0;
    DramStats dram_;
    MshrStats mshr_;
};

} // namespace cap::mem
