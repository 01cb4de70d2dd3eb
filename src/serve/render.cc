#include "render.h"

#include "util/table.h"

namespace cap::serve {

namespace {

std::vector<std::string>
cacheConfigs()
{
    std::vector<std::string> configs;
    for (int k = 1; k <= 8; ++k)
        configs.push_back(std::to_string(8 * k) + "KB");
    return configs;
}

std::vector<std::string>
iqConfigs()
{
    std::vector<std::string> configs;
    for (int entries : core::AdaptiveIqModel::studySizes())
        configs.push_back(std::to_string(entries));
    return configs;
}

/** A column's TPI: a sampled column's estimate, or a full one's. */
template <typename Col>
double
tpiOf(const Col &col)
{
    if constexpr (requires { col.perf; })
        return col.perf.tpi_ns;
    else
        return col.tpi_ns;
}

/**
 * A sweep table titled @p title: one row per application, its TPI
 * under each of @p configs and the label of its lowest-TPI column.  A
 * sampled sweep's table is followed by its cost: the @p simulated
 * @p unit summed, against the full run's, @p length per cell.
 */
template <typename Col>
void
renderSweep(std::ostream &out, const std::string &title,
            const std::vector<std::string> &configs,
            const std::vector<std::string> &app_names,
            const std::vector<std::vector<Col>> &perf,
            uint64_t Col::*simulated = nullptr, uint64_t length = 0,
            const char *unit = "")
{
    TableWriter table(title);
    std::vector<std::string> header{"app"};
    header.insert(header.end(), configs.begin(), configs.end());
    header.push_back("best");
    table.setHeader(header);
    uint64_t simulated_total = 0;
    for (size_t a = 0; a < app_names.size(); ++a) {
        std::vector<Cell> row{Cell(app_names[a])};
        const auto &sweep = perf[a];
        size_t best = 0;
        for (size_t i = 0; i < sweep.size(); ++i) {
            row.emplace_back(tpiOf(sweep[i]), 3);
            if (tpiOf(sweep[i]) < tpiOf(sweep[best]))
                best = i;
            if (simulated)
                simulated_total += sweep[i].*simulated;
        }
        row.emplace_back(configs[best]);
        table.addRow(row);
    }
    table.renderAscii(out);
    if (!simulated)
        return;
    const uint64_t full = length * app_names.size() * configs.size();
    out << "sampled: " << simulated_total << " " << unit
        << " simulated of " << full << " ("
        << Cell(static_cast<double>(full) /
                    static_cast<double>(simulated_total),
                1)
               .str()
        << "x fewer)\n";
}

} // namespace

void
renderCacheSweep(std::ostream &out,
                 const std::vector<std::string> &app_names,
                 const std::vector<std::vector<core::CachePerf>> &perf,
                 uint64_t refs)
{
    renderSweep(out,
                "avg TPI (ns) vs L1 size, " + std::to_string(refs) +
                    " refs per run",
                cacheConfigs(), app_names, perf);
}

void
renderSampledCacheSweep(
    std::ostream &out, const std::vector<std::string> &app_names,
    const std::vector<std::vector<sample::SampledCachePerf>> &perf,
    uint64_t refs)
{
    renderSweep(out,
                "sampled avg TPI (ns) vs L1 size, " + std::to_string(refs) +
                    " refs per run",
                cacheConfigs(), app_names, perf,
                &sample::SampledCachePerf::simulated_refs, refs, "refs");
}

void
renderIqSweep(std::ostream &out,
              const std::vector<std::string> &app_names,
              const std::vector<std::vector<core::IqPerf>> &perf,
              uint64_t instrs)
{
    renderSweep(out,
                "avg TPI (ns) vs queue size, " + std::to_string(instrs) +
                    " instructions per run",
                iqConfigs(), app_names, perf);
}

void
renderSampledIqSweep(
    std::ostream &out, const std::vector<std::string> &app_names,
    const std::vector<std::vector<sample::SampledIqPerf>> &perf,
    uint64_t instrs)
{
    renderSweep(out,
                "sampled avg TPI (ns) vs queue size, " +
                    std::to_string(instrs) + " instructions per run",
                iqConfigs(), app_names, perf,
                &sample::SampledIqPerf::simulated_instrs, instrs, "instrs");
}

IntervalSummary
summarizeIntervalRun(const core::IntervalRunResult &result,
                     int initial_entries)
{
    IntervalSummary summary;
    summary.instructions = result.instructions;
    summary.intervals =
        static_cast<uint64_t>(result.config_trace.size());
    summary.total_time_ns = result.total_time_ns;
    summary.reconfigurations = result.reconfigurations;
    summary.committed_moves = result.committed_moves;
    summary.phase_transitions = result.phase_transitions;
    summary.phase_snaps = result.phase_snaps;
    summary.final_config = result.config_trace.empty()
                               ? initial_entries
                               : result.config_trace.back();
    return summary;
}

void
renderIntervalRun(std::ostream &out, const std::string &app_name,
                  uint64_t instrs, bool show_phase_rows,
                  const IntervalSummary &summary)
{
    TableWriter table("interval controller, " + app_name + ", " +
                      std::to_string(instrs) + " instructions");
    table.setHeader({"quantity", "value"});
    table.addRow({Cell("instructions"), Cell(summary.instructions)});
    table.addRow({Cell("intervals"), Cell(summary.intervals)});
    table.addRow({Cell("avg TPI (ns)"), Cell(summary.tpi(), 4)});
    table.addRow({Cell("total time (us)"),
                  Cell(summary.total_time_ns / 1000.0, 3)});
    table.addRow(
        {Cell("reconfigurations"), Cell(summary.reconfigurations)});
    table.addRow(
        {Cell("committed moves"), Cell(summary.committed_moves)});
    if (show_phase_rows) {
        table.addRow({Cell("phase transitions"),
                      Cell(summary.phase_transitions)});
        table.addRow({Cell("phase snaps"), Cell(summary.phase_snaps)});
    }
    table.addRow({Cell("final config"), Cell(summary.final_config)});
    table.renderAscii(out);
}

} // namespace cap::serve
