#include "result_cache.h"

#include <algorithm>
#include <fstream>

#include "util/json.h"
#include "util/status.h"

namespace cap::serve {

uint64_t
fnv1a(const void *data, size_t len, uint64_t seed)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

uint64_t
fnv1a(const std::string &text, uint64_t seed)
{
    return fnv1a(text.data(), text.size(), seed);
}

KeyBuilder &
KeyBuilder::add(const std::string &field, const std::string &value)
{
    // Escape so a crafted value cannot collide with another field's
    // `field=value;` token stream.
    fields_.emplace_back(field, json::escape(value));
    return *this;
}

KeyBuilder &
KeyBuilder::add(const std::string &field, uint64_t value)
{
    fields_.emplace_back(field, std::to_string(value));
    return *this;
}

KeyBuilder &
KeyBuilder::add(const std::string &field, int64_t value)
{
    fields_.emplace_back(field, std::to_string(value));
    return *this;
}

KeyBuilder &
KeyBuilder::addBits(const std::string &field, double value)
{
    fields_.emplace_back(field, json::doubleBits(value));
    return *this;
}

std::string
KeyBuilder::canonical() const
{
    return canonicalAround("").second;
}

std::pair<std::string, std::string>
KeyBuilder::canonicalAround(const std::string &field) const
{
    std::vector<std::pair<std::string, std::string>> sorted = fields_;
    std::sort(sorted.begin(), sorted.end());
    std::pair<std::string, std::string> out;
    for (const auto &[name, value] : sorted) {
        std::string &text = name < field ? out.first : out.second;
        text += name;
        text += '=';
        text += value;
        text += ';';
    }
    return out;
}

uint64_t
KeyBuilder::hash() const
{
    return fnv1a(canonical());
}

uint64_t
hashAppProfile(const trace::AppProfile &app)
{
    KeyBuilder key;
    key.add("name", app.name);
    key.add("suite", static_cast<int64_t>(app.suite));
    key.add("seed", app.seed);
    key.add("in_cache_study", app.in_cache_study);

    auto addMix = [&key](const std::string &prefix,
                         const std::vector<trace::PatternSpec> &mix) {
        key.add(prefix + ".n", static_cast<uint64_t>(mix.size()));
        for (size_t i = 0; i < mix.size(); ++i) {
            std::string p = prefix + "[" + std::to_string(i) + "].";
            key.add(p + "kind", static_cast<int64_t>(mix[i].kind));
            key.addBits(p + "weight", mix[i].weight);
            key.add(p + "region_bytes", mix[i].region_bytes);
            key.addBits(p + "zipf_s", mix[i].zipf_s);
            key.add(p + "touches", mix[i].touches_per_block);
        }
    };
    addMix("cache.mix", app.cache.mix);
    key.addBits("cache.write_fraction", app.cache.write_fraction);
    key.addBits("cache.refs_per_instr", app.cache.refs_per_instr);
    key.add("cache.phases.n",
            static_cast<uint64_t>(app.cache.phases.size()));
    for (size_t p = 0; p < app.cache.phases.size(); ++p) {
        std::string prefix = "cache.phases[" + std::to_string(p) + "]";
        addMix(prefix + ".mix", app.cache.phases[p].mix);
        key.add(prefix + ".length_refs", app.cache.phases[p].length_refs);
    }

    key.add("ilp.phases.n",
            static_cast<uint64_t>(app.ilp.phases.size()));
    for (size_t i = 0; i < app.ilp.phases.size(); ++i) {
        const trace::IlpPhase &phase = app.ilp.phases[i];
        std::string p = "ilp.phases[" + std::to_string(i) + "].";
        key.add(p + "min_dep", static_cast<uint64_t>(phase.min_dep_distance));
        key.addBits(p + "mean_dep", phase.mean_dep_distance);
        key.addBits(p + "second_src_prob", phase.second_src_prob);
        key.addBits(p + "mean_dep2", phase.mean_dep_distance2);
        key.addBits(p + "long_lat_prob", phase.long_lat_prob);
        key.add(p + "long_lat_cycles", phase.long_lat_cycles);
        key.add(p + "short_lat_cycles", phase.short_lat_cycles);
    }
    key.add("ilp.schedule.n",
            static_cast<uint64_t>(app.ilp.schedule.size()));
    for (size_t i = 0; i < app.ilp.schedule.size(); ++i) {
        std::string p = "ilp.schedule[" + std::to_string(i) + "].";
        key.add(p + "phase", app.ilp.schedule[i].phase);
        key.add(p + "length_instrs", app.ilp.schedule[i].length_instrs);
    }
    return key.hash();
}

ResultCache::ResultCache(size_t capacity, std::string spill_path)
    : capacity_(std::max<size_t>(capacity, 1)),
      spill_path_(std::move(spill_path))
{
    if (!spill_path_.empty())
        loadSpill();
}

bool
ResultCache::get(uint64_t key, std::string &value)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        value = it->second->second;
        ++stats_.hits;
        return true;
    }
    auto spilled = spill_index_.find(key);
    if (spilled != spill_index_.end()) {
        value = spilled->second;
        ++stats_.hits;
        ++stats_.spill_hits;
        // Promote back into memory (no re-spill: already on disk).
        lru_.emplace_front(key, value);
        index_[key] = lru_.begin();
        while (index_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++stats_.evictions;
        }
        return true;
    }
    ++stats_.misses;
    return false;
}

bool
ResultCache::contains(uint64_t key) const
{
    return index_.count(key) > 0 || spill_index_.count(key) > 0;
}

void
ResultCache::put(uint64_t key, const std::string &value)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = value;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, value);
    index_[key] = lru_.begin();
    ++stats_.insertions;
    while (index_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
    if (!spill_path_.empty() && spill_index_.find(key) == spill_index_.end())
        appendSpill(key, value);
}

std::string
ResultCache::formatSpillLine(uint64_t key, const std::string &value)
{
    std::string line = "{\"key\":\"" + std::to_string(key) +
                       "\",\"crc\":\"" + std::to_string(fnv1a(value)) +
                       "\",\"value\":" + json::quote(value) + "}";
    return line;
}

bool
ResultCache::parseSpillLine(const std::string &line, uint64_t &key,
                            std::string &value)
{
    json::Value parsed;
    std::string error;
    if (!json::parse(line, parsed, error) || !parsed.isObject())
        return false;
    const json::Value *key_field = parsed.find("key");
    const json::Value *crc_field = parsed.find("crc");
    const json::Value *value_field = parsed.find("value");
    if (!key_field || !key_field->isString() || !crc_field ||
        !crc_field->isString() || !value_field ||
        !value_field->isString())
        return false;
    uint64_t crc = 0;
    if (!json::parseU64(key_field->string, key) ||
        !json::parseU64(crc_field->string, crc))
        return false;
    if (fnv1a(value_field->string) != crc)
        return false;
    value = value_field->string;
    return true;
}

void
ResultCache::loadSpill()
{
    std::ifstream file(spill_path_);
    if (!file)
        return;
    std::string line;
    while (std::getline(file, line)) {
        if (line.empty())
            continue;
        uint64_t key = 0;
        std::string value;
        if (!parseSpillLine(line, key, value)) {
            ++stats_.poisoned;
            continue;
        }
        // Last writer wins, matching append order.
        spill_index_[key] = std::move(value);
        ++stats_.spill_loaded;
    }
}

void
ResultCache::appendSpill(uint64_t key, const std::string &value)
{
    std::ofstream file(spill_path_, std::ios::app);
    if (!file)
        return;
    file << formatSpillLine(key, value) << '\n';
    if (file) {
        spill_index_[key] = value;
        ++stats_.spilled;
    }
}

} // namespace cap::serve
