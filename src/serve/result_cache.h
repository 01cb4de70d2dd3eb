/**
 * @file
 * Content-hash result cache for the study server.
 *
 * Keys are 64-bit FNV-1a hashes of a *canonical* serialization of
 * everything that determines a cell's bits: the full application
 * profile (every generator parameter, the seed), the study kind, the
 * configuration vector, the run length, and -- for sampled studies --
 * the sampling knobs.  Execution knobs that provably do not change
 * the result are excluded: `--jobs N` is bit-identical to the serial
 * run (docs/MODEL.md section 11), so a row computed one way serves
 * requests phrased the other way.  KeyBuilder sorts its fields by name before hashing,
 * making the hash invariant to the order call sites append fields in.
 *
 * Values are opaque strings (the server stores canonical JSON rows
 * with bit-exact doubles; see job.h).  Storage is a bounded in-memory
 * LRU backed by an optional append-only JSONL spill file: evicted
 * entries stay reachable through the spill index, and a restarted
 * server re-loads the index on construction.  Every spill line carries
 * an FNV checksum of its value; truncated or corrupted lines are
 * rejected at load (counted in stats().poisoned), never served.
 *
 * Thread model: NOT thread-safe.  The server touches the cache only
 * from its single executor thread (docs/SERVER.md).
 */

#ifndef CAPSIM_SERVE_RESULT_CACHE_H
#define CAPSIM_SERVE_RESULT_CACHE_H

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/profile.h"

namespace cap::serve {

/** 64-bit FNV-1a over @p len bytes, continuing from @p seed. */
uint64_t fnv1a(const void *data, size_t len,
               uint64_t seed = 1469598103934665603ull);

/** fnv1a over a string's bytes. */
uint64_t fnv1a(const std::string &text,
               uint64_t seed = 1469598103934665603ull);

/**
 * Canonical cache-key builder: append (field, value) pairs in any
 * order; hash() sorts by field name and hashes the sorted
 * `field=value;` sequence.  Doubles go in as bit patterns
 * (addBits), so keys never depend on printf rounding.
 */
class KeyBuilder
{
  public:
    KeyBuilder &add(const std::string &field, const std::string &value);
    KeyBuilder &add(const std::string &field, uint64_t value);
    KeyBuilder &add(const std::string &field, int64_t value);
    KeyBuilder &add(const std::string &field, int value)
    {
        return add(field, static_cast<int64_t>(value));
    }
    KeyBuilder &add(const std::string &field, bool value)
    {
        return add(field, static_cast<uint64_t>(value ? 1 : 0));
    }
    /** Append a double as its 64-bit pattern (bit-exact). */
    KeyBuilder &addBits(const std::string &field, double value);

    /** The canonical (sorted) serialization; exposed for tests. */
    std::string canonical() const;

    /** canonical() split where a field named @p field, which this
     *  builder lacks, would sort: the text before it and after it. */
    std::pair<std::string, std::string>
    canonicalAround(const std::string &field) const;

    /** FNV-1a of canonical(). */
    uint64_t hash() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Content hash of a complete application profile: name, suite, seed,
 * and every cache-side and ILP-side generator parameter.  Two
 * profiles hash equal iff the synthetic streams they seed are
 * identical, so this is the workload component of every cell key.
 */
uint64_t hashAppProfile(const trace::AppProfile &app);

/** Cumulative health counters of a ResultCache. */
struct ResultCacheStats
{
    uint64_t hits = 0;
    /** Hits served from the spill index after eviction/restart. */
    uint64_t spill_hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Lines appended to the spill file. */
    uint64_t spilled = 0;
    /** Well-formed lines loaded from a pre-existing spill file. */
    uint64_t spill_loaded = 0;
    /** Truncated/corrupt spill lines rejected at load. */
    uint64_t poisoned = 0;
};

/** Bounded LRU of (key -> value string) with optional JSONL spill. */
class ResultCache
{
  public:
    /**
     * @param capacity In-memory entry bound (>= 1 enforced).
     * @param spill_path Append-only JSONL spill file; empty disables
     *        spilling.  An existing file is indexed on construction.
     */
    explicit ResultCache(size_t capacity, std::string spill_path = "");

    /** Fetch @p key; true and fills @p value on a hit (LRU touch). */
    bool get(uint64_t key, std::string &value);

    /** True when @p key is resident (memory or spill); no LRU touch,
     *  no stats update. */
    bool contains(uint64_t key) const;

    /** Insert/refresh @p key; spills the value when spilling is on
     *  and the key has not been spilled before. */
    void put(uint64_t key, const std::string &value);

    size_t size() const { return index_.size(); }
    size_t capacity() const { return capacity_; }
    const ResultCacheStats &stats() const { return stats_; }

    /**
     * Parse one spill line into (key, value); false for malformed
     * lines or checksum mismatches.  Exposed for the poisoned-entry
     * tests.
     */
    static bool parseSpillLine(const std::string &line, uint64_t &key,
                               std::string &value);

    /** Serialize one spill line (no trailing newline). */
    static std::string formatSpillLine(uint64_t key,
                                       const std::string &value);

  private:
    void loadSpill();
    void appendSpill(uint64_t key, const std::string &value);

    size_t capacity_;
    std::string spill_path_;
    /** MRU-first (key, value) list. */
    std::list<std::pair<uint64_t, std::string>> lru_;
    std::unordered_map<uint64_t,
                       std::list<std::pair<uint64_t, std::string>>::iterator>
        index_;
    /** Everything ever spilled (or loaded from the spill file). */
    std::unordered_map<uint64_t, std::string> spill_index_;
    ResultCacheStats stats_;
};

} // namespace cap::serve

#endif // CAPSIM_SERVE_RESULT_CACHE_H
