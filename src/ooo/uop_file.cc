#include "uop_file.h"

#include <cinttypes>

#include "util/status.h"

namespace cap::ooo {

UopFileSource::UopFileSource(const std::string &path) : path_(path)
{
    file_.reset(std::fopen(path.c_str(), "r"));
    if (!file_)
        fatal("cannot open uop trace file '%s'", path.c_str());
}

bool
UopFileSource::next(MicroOp &op)
{
    char line[256];
    while (std::fgets(line, sizeof(line), file_.get())) {
        ++line_;
        const char *p = line;
        while (*p == ' ' || *p == '\t')
            ++p;
        if (*p == '\0' || *p == '\n' || *p == '#')
            continue;

        // Read 64-bit fields so that a value of 2^32 or more fails the
        // range checks below instead of wrapping into range.
        unsigned long long d1 = 0;
        unsigned long long d2 = 0;
        unsigned long long latency = 0;
        if (std::sscanf(p, "%llu %llu %llu", &d1, &d2, &latency) != 3) {
            warn("%s:%llu: malformed uop record '%s' (skipped)",
                 path_.c_str(), static_cast<unsigned long long>(line_), p);
            ++skipped_;
            continue;
        }
        if (d1 > kMaxDepDistance || d2 > kMaxDepDistance) {
            warn("%s:%llu: dependency distance %llu exceeds %u (skipped)",
                 path_.c_str(), static_cast<unsigned long long>(line_),
                 d1 > d2 ? d1 : d2, kMaxDepDistance);
            ++skipped_;
            continue;
        }
        if (latency == 0) {
            warn("%s:%llu: zero latency (skipped)", path_.c_str(),
                 static_cast<unsigned long long>(line_));
            ++skipped_;
            continue;
        }
        if (latency > kMaxLatency) {
            warn("%s:%llu: latency %llu exceeds %u (skipped)", path_.c_str(),
                 static_cast<unsigned long long>(line_), latency,
                 kMaxLatency);
            ++skipped_;
            continue;
        }
        // Clamp distances that reach before the first instruction,
        // matching the synthetic generator.
        uint64_t max_dist = produced_;
        op.src1_dist = static_cast<uint32_t>(
            d1 > max_dist ? max_dist : d1);
        op.src2_dist = static_cast<uint32_t>(
            d2 > max_dist ? max_dist : d2);
        op.latency = static_cast<uint32_t>(latency);
        ++produced_;
        return true;
    }
    return false;
}

uint64_t
UopFileSource::nextBatch(MicroOp *out, uint64_t max)
{
    uint64_t n = 0;
    while (n < max && UopFileSource::next(out[n]))
        ++n;
    return n;
}

UopFileSource::Cursor
UopFileSource::saveCursor() const
{
    Cursor cursor;
    cursor.offset = std::ftell(file_.get());
    if (cursor.offset < 0)
        fatal("cannot tell position of uop trace file '%s'", path_.c_str());
    cursor.line = line_;
    cursor.produced = produced_;
    cursor.skipped = skipped_;
    return cursor;
}

void
UopFileSource::restoreCursor(const Cursor &cursor)
{
    if (std::fseek(file_.get(), static_cast<long>(cursor.offset),
                   SEEK_SET) != 0)
        fatal("cannot seek uop trace file '%s'", path_.c_str());
    line_ = cursor.line;
    produced_ = cursor.produced;
    skipped_ = cursor.skipped;
}

uint64_t
writeUopTraceFile(const std::string &path, OpSource &source, uint64_t limit)
{
    capAssert(limit > 0, "refusing to write an empty uop trace");
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        fatal("cannot create uop trace file '%s'", path.c_str());

    std::fprintf(out, "# CAPsim uop trace: <src1_dist> <src2_dist> "
                      "<latency>; dist 0 = no source\n");
    MicroOp batch[256];
    uint64_t written = 0;
    while (written < limit) {
        uint64_t want = limit - written;
        if (want > 256)
            want = 256;
        uint64_t got = source.nextBatch(batch, want);
        for (uint64_t i = 0; i < got; ++i)
            std::fprintf(out, "%" PRIu32 " %" PRIu32 " %" PRIu32 "\n",
                         batch[i].src1_dist, batch[i].src2_dist,
                         batch[i].latency);
        written += got;
        if (got < want)
            break;
    }
    std::fclose(out);
    return written;
}

} // namespace cap::ooo
