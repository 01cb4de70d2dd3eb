#include "concert.h"

#include <algorithm>

#include "cache/exclusive_hierarchy.h"
#include "trace/stream.h"
#include "util/status.h"

namespace cap::core {

std::string
ConcertConfig::label() const
{
    return std::to_string(8 * cache_boundary) + "KB/" +
           std::to_string(tlb_entries) + "tlb/" +
           std::to_string(bpred_entries) + "bp";
}

std::vector<std::vector<double>>
ConcertStudy::tpiMatrix() const
{
    std::vector<std::vector<double>> matrix;
    for (const auto &row : perf) {
        std::vector<double> values;
        for (const ConcertPerf &p : row)
            values.push_back(p.tpi_ns);
        matrix.push_back(std::move(values));
    }
    return matrix;
}

double
ConcertStudy::singleStructureAdaptiveMeanTpi(int which) const
{
    capAssert(which >= 0 && which <= 2, "structure index out of range");
    const ConcertConfig &conv = configs[selection.best_conventional];
    double mean = 0.0;
    for (const auto &row : perf) {
        double best = 0.0;
        bool first = true;
        for (const ConcertPerf &p : row) {
            const ConcertConfig &c = p.config;
            bool admissible =
                (which == 0 || c.cache_boundary == conv.cache_boundary) &&
                (which == 1 || c.tlb_entries == conv.tlb_entries) &&
                (which == 2 || c.bpred_entries == conv.bpred_entries);
            if (!admissible)
                continue;
            if (first || p.tpi_ns < best) {
                best = p.tpi_ns;
                first = false;
            }
        }
        capAssert(!first, "no admissible configuration");
        mean += best;
    }
    return mean / static_cast<double>(perf.size());
}

namespace {

/** Raw per-structure measurements for one application. */
struct AppMeasurements
{
    /** Cache stats per boundary (index 0 = boundary 1). */
    std::vector<cache::CacheStats> cache_stats;
    /** Dram-mode miss stall per boundary (physical ns; unused flat). */
    std::vector<Nanoseconds> dram_stall_ns;
    /** TLB miss ratio per study size. */
    std::vector<double> tlb_miss;
    /** Mispredict ratio per study size. */
    std::vector<double> bpred_miss;
};

} // namespace

ConcertStudy
runConcertStudy(const std::vector<trace::AppProfile> &apps, uint64_t refs,
                const mem::MemConfig &mem)
{
    capAssert(!apps.empty(), "concert study needs applications");
    capAssert(refs > 0, "concert study needs references");

    AdaptiveCacheModel cache_model;
    AdaptiveTlbModel tlb_model;
    AdaptiveBpredModel bpred_model;
    std::vector<int> tlb_sizes = AdaptiveTlbModel::studySizes();
    std::vector<int> bpred_sizes = AdaptiveBpredModel::studySizes();
    constexpr int kMaxBoundary = 8;

    ConcertStudy study;
    study.apps = apps;
    for (int k = 1; k <= kMaxBoundary; ++k) {
        for (int t : tlb_sizes) {
            for (int b : bpred_sizes)
                study.configs.push_back({k, t, b});
        }
    }

    // L2 access time is configuration-independent in physical ns.
    CacheBoundaryTiming ref_timing = cache_model.boundaryTiming(1);
    double l2_access_ns =
        static_cast<double>(ref_timing.l2_hit_cycles) * ref_timing.cycle_ns;

    for (const trace::AppProfile &app : apps) {
        // --- Per-structure measurements (independent of the joint
        // clock, so measured once each). ---
        AppMeasurements m;
        for (int k = 1; k <= kMaxBoundary; ++k) {
            // Walk at this boundary's native clock so a dram backend
            // sees realistic miss spacings; the measured stall is
            // physical ns, reused at every joint clock.
            cache::ExclusiveHierarchy hierarchy(cache_model.geometry(), k);
            trace::SyntheticTraceSource source(app.cache, app.seed, refs);
            MissClock clock(mem);
            clock.pace(cache_model.boundaryTiming(k),
                       app.cache.refs_per_instr);
            walkTrace(source, hierarchy, clock, refs);
            m.dram_stall_ns.push_back(clock.takeStall());
            m.cache_stats.push_back(hierarchy.stats());
        }
        uint64_t tlb_accesses = refs / 4;
        for (int t : tlb_sizes)
            m.tlb_miss.push_back(
                tlb_model.evaluate(app, t, tlb_accesses).miss_ratio);
        BpredBehavior branch_behavior = bpredBehaviorFor(app.name);
        uint64_t branches = static_cast<uint64_t>(
            static_cast<double>(refs) / app.cache.refs_per_instr *
            branch_behavior.branch_fraction / 4.0);
        branches = std::max<uint64_t>(branches, 10000);
        for (int b : bpred_sizes)
            m.bpred_miss.push_back(
                bpred_model.evaluate(app, b, branches).mispredict_ratio);

        // --- Compose TPI for every joint configuration. ---
        std::vector<ConcertPerf> row;
        for (const ConcertConfig &config : study.configs) {
            size_t ti = static_cast<size_t>(
                std::find(tlb_sizes.begin(), tlb_sizes.end(),
                          config.tlb_entries) -
                tlb_sizes.begin());
            size_t bi = static_cast<size_t>(
                std::find(bpred_sizes.begin(), bpred_sizes.end(),
                          config.bpred_entries) -
                bpred_sizes.begin());
            const cache::CacheStats &stats =
                m.cache_stats[static_cast<size_t>(config.cache_boundary) -
                              1];

            // Worst-case joint clock.
            Nanoseconds cycle = std::max(
                {cache_model.boundaryTiming(config.cache_boundary)
                     .cycle_ns,
                 tlb_model.lookupNs(config.tlb_entries),
                 bpred_model.lookupNs(config.bpred_entries)});

            double instrs = static_cast<double>(stats.refs) /
                            app.cache.refs_per_instr;
            double refs_d = static_cast<double>(stats.refs);

            ConcertPerf perf;
            perf.config = config;
            perf.cycle_ns = cycle;
            perf.base_ns = cycle / CacheMachine::kBaseIpc;
            double l2_hit_cycles =
                static_cast<double>(missCycles(l2_access_ns, cycle));
            double miss_cycles = static_cast<double>(
                missCycles(CacheMachine::kL2MissNs, cycle));
            if (mem.isDram()) {
                perf.cache_miss_ns =
                    (cycle * static_cast<double>(stats.l2_hits) *
                         l2_hit_cycles +
                     m.dram_stall_ns[static_cast<size_t>(
                                         config.cache_boundary) -
                                     1]) /
                    instrs;
            } else {
                perf.cache_miss_ns =
                    cycle *
                    (static_cast<double>(stats.l2_hits) * l2_hit_cycles +
                     static_cast<double>(stats.misses) * miss_cycles) /
                    instrs;
            }
            double walk_cycles = static_cast<double>(
                missCycles(AdaptiveTlbModel::kWalkNs, cycle));
            perf.tlb_walk_ns = cycle * walk_cycles * m.tlb_miss[ti] *
                               refs_d / instrs;
            perf.mispredict_ns =
                cycle * AdaptiveBpredModel::kMispredictPenaltyCycles *
                m.bpred_miss[bi] * branch_behavior.branch_fraction;
            perf.tpi_ns = perf.base_ns + perf.cache_miss_ns +
                          perf.tlb_walk_ns + perf.mispredict_ns;
            row.push_back(perf);
        }
        study.perf.push_back(std::move(row));
    }

    study.selection = selectConfigurations(study.tpiMatrix());
    return study;
}

} // namespace cap::core
