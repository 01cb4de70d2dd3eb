#include "value_predictor.h"

#include "util/status.h"

namespace cap::ooo {

StrideValuePredictor::StrideValuePredictor(int entries)
    : table_(static_cast<size_t>(entries))
{
    capAssert(entries >= 2 && isPowerOfTwo(static_cast<uint64_t>(entries)),
              "table entries must be a power of two");
}

size_t
StrideValuePredictor::indexOf(Addr pc) const
{
    return static_cast<size_t>((pc >> 2) & (table_.size() - 1));
}

bool
StrideValuePredictor::predictAndUpdate(const ValueRecord &record)
{
    ++stats_.lookups;
    Entry &entry = table_[indexOf(record.pc)];

    uint64_t predicted =
        entry.last_value + static_cast<uint64_t>(entry.stride);
    bool confident = entry.confidence >= 2;
    bool correct = predicted == record.value;
    if (confident) {
        ++stats_.predictions;
        if (correct)
            ++stats_.correct;
    }

    // Update: track the new stride; confidence follows correctness of
    // the *stride hypothesis* whether or not it was confident yet.
    // Subtract unsigned (modular), then convert: the signed difference
    // of two arbitrary 64-bit values can overflow.
    int64_t new_stride =
        static_cast<int64_t>(record.value - entry.last_value);
    if (correct) {
        if (entry.confidence < 3)
            ++entry.confidence;
    } else {
        entry.confidence = new_stride == entry.stride
                               ? entry.confidence
                               : static_cast<uint8_t>(0);
    }
    entry.stride = new_stride;
    entry.last_value = record.value;
    return confident && correct;
}

ValueStream::ValueStream(const ValueBehavior &behavior, uint64_t seed)
    : behavior_(behavior), rng_(seed)
{
    capAssert(behavior.static_sites >= 1, "need value sites");
    size_t n = static_cast<size_t>(behavior.static_sites);
    site_value_.assign(n, 0);
    site_stride_.assign(n, 0);
    site_predictable_.assign(n, 0);
    Rng setup = rng_.split();
    for (size_t site = 0; site < n; ++site) {
        site_predictable_[site] =
            setup.chance(behavior.predictable_fraction) ? 1 : 0;
        site_stride_[site] = setup.range(1, 64) * 8;
        site_value_[site] = setup.next();
    }
}

ValueRecord
ValueStream::next()
{
    uint64_t site =
        rng_.zipf(static_cast<uint64_t>(behavior_.static_sites),
                  behavior_.popularity_s);
    ValueRecord record;
    record.pc = 0x800000 + site * 4;
    if (site_predictable_[site]) {
        site_value_[site] += static_cast<uint64_t>(site_stride_[site]);
    } else {
        site_value_[site] = rng_.next();
    }
    record.value = site_value_[site];
    return record;
}

} // namespace cap::ooo
