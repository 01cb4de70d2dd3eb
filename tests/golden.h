/**
 * @file
 * Golden tables for the bit-pinning suites (MemGolden, PhaseGolden):
 * named values rendered exactly, doubles as IEEE bit patterns
 * (json::doubleBits).  On a deliberate model change the failure
 * message prints the new table to paste back.
 */

#ifndef CAPSIM_TESTS_GOLDEN_H
#define CAPSIM_TESTS_GOLDEN_H

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace cap::golden {

/** @p values joined with commas. */
inline std::string
joinInts(const std::vector<int> &values)
{
    std::string out;
    for (int v : values) {
        if (!out.empty())
            out += ',';
        out += std::to_string(v);
    }
    return out;
}

/** Named values rendered exactly: doubles as bit patterns. */
class Golden
{
  public:
    void
    add(const std::string &name, double value)
    {
        lines_.push_back(name + "=" + json::doubleBits(value));
    }

    void
    add(const std::string &name, uint64_t value)
    {
        lines_.push_back(name + "=" + std::to_string(value));
    }

    void
    add(const std::string &name, const std::string &value)
    {
        lines_.push_back(name + "=" + value);
    }

    /** FNV-1a over @p text (for long tables). */
    void
    digest(const std::string &name, const std::string &text)
    {
        uint64_t h = 1469598103934665603ull;
        for (char c : text) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        add(name, h);
    }

    /** digest() over the bit patterns of @p values, comma-terminated. */
    void
    digest(const std::string &name, const std::vector<double> &values)
    {
        std::string text;
        for (double v : values)
            text += json::doubleBits(v) + ",";
        digest(name, text);
    }

    void
    expect(const std::vector<std::string> &want) const
    {
        std::ostringstream table;
        for (const std::string &line : lines_)
            table << "        \"" << line << "\",\n";
        EXPECT_EQ(lines_, want) << "recorded table:\n" << table.str();
    }

  private:
    std::vector<std::string> lines_;
};

} // namespace cap::golden

#endif // CAPSIM_TESTS_GOLDEN_H
