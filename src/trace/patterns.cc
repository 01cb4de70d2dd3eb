#include "patterns.h"

#include <cmath>
#include <numeric>

#include "util/status.h"

namespace cap::trace {

ZipfResident::ZipfResident(Region region, uint64_t block_bytes, double s,
                           uint64_t shuffle_seed)
    : region_(region), block_bytes_(block_bytes), s_(s)
{
    capAssert(block_bytes > 0, "block size must be positive");
    uint64_t n = region.blocks(block_bytes);
    capAssert(n > 0, "ZipfResident region smaller than one block");
    capAssert(n <= UINT32_MAX, "region too large for shuffle table");
    zipf_norm_ = Rng::zipfNorm(n, s);
    // At s = 1 (Rng::zipfAt's own test) the plain draw inverts with one
    // exp(), which costs less inside the trace than a table draw.
    if (s > 0.0 && std::abs(s - 1.0) >= 1e-9)
        ranks_ = InverseTable::zipf(n, s);
    shuffle_.resize(n);
    std::iota(shuffle_.begin(), shuffle_.end(), 0);
    // Fisher-Yates with a dedicated generator so the spatial layout is
    // a fixed property of the workload, not of trace position.
    Rng shuffle_rng(shuffle_seed);
    for (uint64_t i = n - 1; i > 0; --i) {
        uint64_t j = shuffle_rng.below(i + 1);
        std::swap(shuffle_[i], shuffle_[j]);
    }
}

Addr
ZipfResident::next(Rng &rng)
{
    uint64_t rank = ranks_ ? ranks_->draw(rng)
                           : rng.zipf(shuffle_.size(), s_, zipf_norm_);
    uint64_t block = shuffle_[rank];
    uint64_t offset = rng.below(block_bytes_);
    return region_.base + block * block_bytes_ + offset;
}

CyclicSweep::CyclicSweep(Region region, uint64_t stride_bytes)
    : region_(region), stride_bytes_(stride_bytes)
{
    capAssert(stride_bytes > 0, "sweep stride must be positive");
    capAssert(region.size_bytes >= stride_bytes,
              "sweep region smaller than one stride");
}

Addr
CyclicSweep::next(Rng &rng)
{
    (void)rng;
    Addr addr = region_.base + offset_;
    offset_ += stride_bytes_;
    if (offset_ + stride_bytes_ > region_.size_bytes)
        offset_ = 0;
    return addr;
}

void
CyclicSweep::saveCursor(std::vector<uint64_t> &out) const
{
    out.push_back(offset_);
}

size_t
CyclicSweep::restoreCursor(const uint64_t *words)
{
    capAssert(words[0] < region_.size_bytes,
              "sweep cursor beyond its region");
    offset_ = words[0];
    return 1;
}

Stream::Stream(Region region, uint64_t block_bytes, int touches_per_block)
    : region_(region),
      block_bytes_(block_bytes),
      touches_per_block_(touches_per_block)
{
    capAssert(block_bytes > 0, "block size must be positive");
    capAssert(touches_per_block > 0, "need at least one touch per block");
    capAssert(region.blocks(block_bytes) > 0, "stream region too small");
}

Addr
Stream::next(Rng &rng)
{
    uint64_t offset = rng.below(block_bytes_);
    Addr addr = region_.base + block_index_ * block_bytes_ + offset;
    if (++touches_done_ >= touches_per_block_) {
        touches_done_ = 0;
        if (++block_index_ >= region_.blocks(block_bytes_))
            block_index_ = 0;
    }
    return addr;
}

void
Stream::saveCursor(std::vector<uint64_t> &out) const
{
    out.push_back(block_index_);
    out.push_back(static_cast<uint64_t>(touches_done_));
}

size_t
Stream::restoreCursor(const uint64_t *words)
{
    capAssert(words[0] < region_.blocks(block_bytes_),
              "stream cursor beyond its region");
    capAssert(words[1] < static_cast<uint64_t>(touches_per_block_),
              "stream touch count out of range");
    block_index_ = words[0];
    touches_done_ = static_cast<int>(words[1]);
    return 2;
}

} // namespace cap::trace
