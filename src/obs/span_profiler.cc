#include "obs/span_profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>

#include "util/parallel.h"
#include "util/status.h"
#include "util/table.h"

namespace cap::obs {

namespace {

std::atomic<SpanProfiler *> g_active{nullptr};

uint64_t steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

SpanProfiler::SpanProfiler() = default;

SpanProfiler::~SpanProfiler()
{
    SpanProfiler *self = this;
    g_active.compare_exchange_strong(self, nullptr,
                                     std::memory_order_acq_rel);
}

void SpanProfiler::arm()
{
    if (armed_)
        return;
    // Every lane exists before the first span: pool workers look up
    // their own lanes concurrently, so the vector must never reallocate
    // under them.  A profiler that is never armed allocates nothing.
    if (lanes_.empty())
        lanes_.resize(kMaxLanes);
    epoch_ns_ = steadyNowNs();
    armed_ = true;
    g_active.store(this, std::memory_order_release);
}

void SpanProfiler::disarm()
{
    if (!armed_)
        return;
    armed_ = false;
    SpanProfiler *self = this;
    g_active.compare_exchange_strong(self, nullptr,
                                     std::memory_order_acq_rel);
}

SpanProfiler *SpanProfiler::active()
{
    return g_active.load(std::memory_order_relaxed);
}

uint64_t SpanProfiler::nowNs() const
{
    if (epoch_ns_ == 0)
        return 0;
    return steadyNowNs() - epoch_ns_;
}

SpanProfiler::Lane &SpanProfiler::laneRef(int i)
{
    capAssert(!lanes_.empty(), "span on a SpanProfiler never armed");
    if (i < 0)
        i = 0;
    if (i >= kMaxLanes)
        i = kMaxLanes - 1;
    return lanes_[static_cast<size_t>(i)];
}

void SpanProfiler::beginSpan(int lane, const char *name)
{
    Lane &l = laneRef(lane);
    l.open.push_back(OpenFrame{name, nowNs(), 0});
}

void SpanProfiler::endSpan(int lane)
{
    Lane &l = laneRef(lane);
    if (l.open.empty())
        return;
    const OpenFrame frame = l.open.back();
    l.open.pop_back();
    const uint64_t end_ns = nowNs();
    const uint64_t dur =
        end_ns > frame.start_ns ? end_ns - frame.start_ns : 0;
    SpanRecord rec;
    rec.name = frame.name;
    rec.depth = static_cast<int>(l.open.size());
    rec.start_ns = frame.start_ns;
    rec.dur_ns = dur;
    rec.self_ns = dur > frame.child_ns ? dur - frame.child_ns : 0;
    l.records.push_back(rec);
    if (!l.open.empty())
        l.open.back().child_ns += dur;
}

const std::vector<SpanRecord> &SpanProfiler::lane(int i) const
{
    static const std::vector<SpanRecord> empty;
    if (i < 0 || static_cast<size_t>(i) >= lanes_.size())
        return empty;
    return lanes_[static_cast<size_t>(i)].records;
}

int SpanProfiler::laneCount() const
{
    int count = 0;
    for (size_t i = 0; i < lanes_.size(); ++i)
        if (!lanes_[i].records.empty())
            count = static_cast<int>(i) + 1;
    return count;
}

size_t SpanProfiler::spanCount() const
{
    size_t n = 0;
    for (const Lane &l : lanes_)
        n += l.records.size();
    return n;
}

std::vector<StageRow> SpanProfiler::stageTable() const
{
    // std::map keys by name so the aggregation order is independent
    // of which lane recorded a stage first.
    std::map<std::string, StageRow> by_name;
    for (const Lane &l : lanes_) {
        for (const SpanRecord &rec : l.records) {
            StageRow &row = by_name[rec.name];
            row.name = rec.name;
            row.calls += 1;
            row.total_s += static_cast<double>(rec.dur_ns) * 1e-9;
            row.self_s += static_cast<double>(rec.self_ns) * 1e-9;
        }
    }
    double self_sum = 0.0;
    for (const auto &[name, row] : by_name)
        self_sum += row.self_s;
    std::vector<StageRow> rows;
    rows.reserve(by_name.size());
    for (auto &[name, row] : by_name) {
        row.share_pct =
            self_sum > 0.0 ? 100.0 * row.self_s / self_sum : 0.0;
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const StageRow &a, const StageRow &b) {
                  if (a.self_s != b.self_s)
                      return a.self_s > b.self_s;
                  return a.name < b.name;
              });
    return rows;
}

void SpanProfiler::writeStageTable(std::ostream &os) const
{
    const std::vector<StageRow> rows = stageTable();
    TableWriter table("host profile -- stage attribution");
    table.setHeader({"stage", "calls", "total_s", "self_s", "share_%"});
    for (const StageRow &row : rows) {
        table.addRow({Cell(row.name), Cell(row.calls), Cell(row.total_s, 6),
                      Cell(row.self_s, 6), Cell(row.share_pct, 1)});
    }
    table.renderAscii(os);
}

void SpanProfiler::writeChromeTrace(std::ostream &os) const
{
    os << "[";
    bool first = true;
    auto emit = [&](const std::string &line) {
        if (!first)
            os << ",";
        os << "\n" << line;
        first = false;
    };
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"capsim host\"}}");
    for (size_t i = 0; i < lanes_.size(); ++i) {
        if (lanes_[i].records.empty())
            continue;
        emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " +
             std::to_string(i) + "\"}}");
    }
    for (size_t i = 0; i < lanes_.size(); ++i) {
        for (const SpanRecord &rec : lanes_[i].records) {
            // trace_event ts/dur are microseconds; keep sub-us
            // resolution with fractional values.
            std::ostringstream line;
            line << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << i
                 << ",\"name\":\"" << rec.name << "\",\"ts\":"
                 << std::fixed << std::setprecision(3)
                 << static_cast<double>(rec.start_ns) * 1e-3
                 << ",\"dur\":" << static_cast<double>(rec.dur_ns) * 1e-3
                 << ",\"args\":{\"depth\":" << rec.depth << "}}";
            emit(line.str());
        }
    }
    os << "\n]\n";
}

ScopedSpan::ScopedSpan(const char *name)
    : profiler_(SpanProfiler::active())
{
    if (profiler_ == nullptr)
        return;
    lane_ = currentWorkerId();
    profiler_->beginSpan(lane_, name);
}

ScopedSpan::~ScopedSpan()
{
    if (profiler_ == nullptr)
        return;
    profiler_->endSpan(lane_);
}

} // namespace cap::obs
