/**
 * @file
 * Abstract micro-op supply for the out-of-order core models.
 *
 * Both the synthetic generator (ooo::InstructionStream) and the uop
 * trace-file reader (ooo::UopFileSource) implement this interface, so
 * CoreModel, fastProfile and WindowSweeper are agnostic to where the
 * instruction stream comes from -- mirroring how the cache side feeds
 * either trace::AddressStream or trace::FileTraceSource records into
 * the hierarchy.  OpTap sits between a source and its reader to share
 * the ops with a second consumer.
 *
 * Contract:
 *  - nextBatch() fills up to @p max ops and returns how many were
 *    produced.  The synthetic generator always produces the full
 *    batch; a file source returns short (eventually 0) at EOF.
 *  - position() is the absolute index of the *next* op the source
 *    will produce, i.e. the number of ops produced so far adjusted
 *    for any cursor seek.  Dependency distances are expressed
 *    relative to this index and are always <= position() (sources
 *    clamp), so instruction 0 never names a negative producer.
 */

#ifndef CAPSIM_OOO_OP_SOURCE_H
#define CAPSIM_OOO_OP_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "uop.h"
#include "util/status.h"

namespace cap::ooo {

class OpSource
{
  public:
    virtual ~OpSource() = default;

    /** Produce up to @p max ops into @p out; returns the count (0 at
     *  end of a finite source). */
    virtual uint64_t nextBatch(MicroOp *out, uint64_t max) = 0;

    /** Absolute index of the next op nextBatch() will produce. */
    virtual uint64_t position() const = 0;
};

/**
 * Passes a source's ops through and keeps every op it delivers until
 * take() hands it on, so a second consumer can fold the ops a first
 * one fetched, in program order, without generating them again.  Its
 * storage stays within about twice the ops delivered but not taken.
 */
class OpTap : public OpSource
{
  public:
    explicit OpTap(OpSource &source) : source_(source) {}

    uint64_t
    nextBatch(MicroOp *out, uint64_t max) override
    {
        // Compact once the taken prefix is as long as the kept ops,
        // so each op moves O(1) times.
        if (head_ > 0 && head_ >= kept_.size() - head_) {
            kept_.erase(kept_.begin(),
                        kept_.begin() + static_cast<ptrdiff_t>(head_));
            head_ = 0;
        }
        uint64_t got = source_.nextBatch(out, max);
        kept_.insert(kept_.end(), out, out + got);
        return got;
    }

    uint64_t position() const override { return source_.position(); }

    /** The oldest @p count kept ops, in program order; valid until the
     *  next nextBatch().  They must have been delivered already. */
    const MicroOp *
    take(uint64_t count)
    {
        capAssert(count <= kept_.size() - head_,
                  "op tap asked for ops its source has not delivered");
        const MicroOp *ops = kept_.data() + head_;
        head_ += count;
        return ops;
    }

  private:
    OpSource &source_;
    std::vector<MicroOp> kept_;
    size_t head_ = 0;
};

} // namespace cap::ooo

#endif // CAPSIM_OOO_OP_SOURCE_H
