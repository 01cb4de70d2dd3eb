/**
 * @file
 * Micro-op trace file input/output, the instruction-side counterpart
 * of trace/file_trace.h.
 *
 * The format is one dynamic instruction per line,
 *
 *   <src1_dist> <src2_dist> <latency>
 *
 * where a dependency distance of 0 means "no source operand" and a
 * non-zero distance d names the d-th most recent prior instruction as
 * the producer.  Lines starting with '#' and blank lines are ignored;
 * records with a distance above ooo::kMaxDepDistance, a latency of 0
 * or a latency above ooo::kMaxLatency are skipped with a warning
 * naming the file and line (a 0-cycle latency would let a dependent
 * issue in its producer's cycle, which the core model's wakeup rule
 * forbids; a window lane's cycle ring spans the longest latency in
 * flight, so an unbounded one would exhaust memory).  Distances that
 * reach past the start of the trace are clamped to the current
 * position, matching the synthetic generator's clamp.
 */

#ifndef CAPSIM_OOO_UOP_FILE_H
#define CAPSIM_OOO_UOP_FILE_H

#include <cstdio>
#include <memory>
#include <string>

#include "ooo/op_source.h"
#include "trace/file_trace.h"

namespace cap::ooo {

/** Reads micro-ops from a uop-format ASCII file. */
class UopFileSource : public OpSource
{
  public:
    /** Opens @p path; fatal() if it cannot be read. */
    explicit UopFileSource(const std::string &path);

    /** Read the next op; false at end of file. */
    bool next(MicroOp &op);

    /** Batched read; returns short (eventually 0) at EOF. */
    uint64_t nextBatch(MicroOp *out, uint64_t max) override;

    /** Absolute index of the next op (ops produced so far). */
    uint64_t position() const override { return produced_; }

    /** Ops returned so far. */
    uint64_t produced() const { return produced_; }

    /** Lines skipped (comments, malformed or invalid records). */
    uint64_t skipped() const { return skipped_; }

    /**
     * Read positions reuse trace::FileTraceSource::Cursor (offset +
     * line/record accounting) so the sampling planner stores one
     * cursor type for both study sides.
     */
    using Cursor = trace::FileTraceSource::Cursor;

    /** Snapshot the read position. */
    Cursor saveCursor() const;

    /** Restore a position saved from the same file; fatal on seek
     *  failure. */
    void restoreCursor(const Cursor &cursor);

  private:
    struct FileCloser
    {
        void operator()(std::FILE *f) const
        {
            if (f)
                std::fclose(f);
        }
    };

    std::string path_;
    std::unique_ptr<std::FILE, FileCloser> file_;
    uint64_t line_ = 0;
    uint64_t produced_ = 0;
    uint64_t skipped_ = 0;
};

/**
 * Write up to @p limit ops from @p source to @p path in the same
 * format.
 * @return Number of ops written.
 */
uint64_t writeUopTraceFile(const std::string &path, OpSource &source,
                           uint64_t limit);

} // namespace cap::ooo

#endif // CAPSIM_OOO_UOP_FILE_H
