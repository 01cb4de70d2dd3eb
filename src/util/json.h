/**
 * @file
 * Shared JSON helpers: one escaping routine, a compact streaming
 * writer, and a small recursive-descent parser.
 *
 * Every JSON emitter in the tree (Cell::jsonStr behind
 * TableWriter::renderJson, the decision-trace JSONL, the progress
 * heartbeats, the study-server protocol, the result-cache spill file)
 * escapes strings through json::escape(), so a string round-trips
 * identically no matter which emitter wrote it and which reader
 * parses it back.
 *
 * The Writer produces compact JSON ("{\"a\":1}") -- the wire format of
 * the server protocol and the heartbeat events.  The parser accepts
 * any single JSON value (the server protocol is one object per line)
 * with a fixed nesting-depth guard so untrusted input cannot recurse
 * the stack away.
 */

#ifndef CAPSIM_UTIL_JSON_H
#define CAPSIM_UTIL_JSON_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cap::json {

/**
 * Escape @p text for inclusion inside a JSON string literal: `"`,
 * `\`, newline and tab get two-character escapes, every other control
 * character becomes \u00xx.  (The canonical escaping rule shared by
 * all emitters; see file comment.)
 */
std::string escape(const std::string &text);

/** escape() wrapped in double quotes: a complete string literal. */
std::string quote(const std::string &text);

/**
 * Write `, "key": <raw>` -- the field idiom of the decision-trace and
 * metrics emitters.  @p raw must already be valid JSON (a Cell's
 * jsonStr(), a number, ...).
 */
void rawField(std::ostream &os, const char *key, const std::string &raw);

/**
 * Streaming compact-JSON writer.  Commas are inserted automatically;
 * misuse (a value where a key is required, unbalanced end calls) is a
 * programming error and asserts.
 *
 *   json::Writer w(os);
 *   w.beginObject().key("event").value("ack").key("id").value(7u)
 *    .endObject();          // {"event":"ack","id":7}
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Next member's name (objects only). */
    Writer &key(const std::string &name);

    Writer &value(const std::string &text);
    Writer &value(const char *text);
    Writer &value(bool flag);
    Writer &value(uint64_t n);
    Writer &value(int64_t n);
    Writer &value(int n) { return value(static_cast<int64_t>(n)); }
    /** Fixed-point double: snprintf("%.*f"); non-finite emits null. */
    Writer &value(double x, int precision);
    /** Emit @p raw verbatim (must be valid JSON). */
    Writer &rawValue(const std::string &raw);

  private:
    struct Frame
    {
        bool object = false;
        bool pending_key = false;
        size_t members = 0;
    };

    void preValue();

    std::ostream &os_;
    std::vector<Frame> stack_;
};

/** Parsed JSON value (object keys keep their order of appearance). */
struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }
    bool isNumber() const { return type == Type::Number; }

    /** Object member by name, or nullptr (first match wins). */
    const Value *find(const std::string &key) const;

    /** Member as a string; @p fallback when absent or not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback = "") const;

    /** Member as a double; @p fallback when absent or not a number. */
    double numberOr(const std::string &key, double fallback) const;

    /** This value as a u64 (see u64Or); false when it holds none. */
    bool asU64(uint64_t &out) const;

    /**
     * Member as a u64: a JSON number that is an integer in [0, 2^64)
     * (exact below 2^53) or a decimal string -- the spill/value format
     * stores 64-bit fields as strings so they survive the double
     * round-trip bit-exactly.  @p fallback when absent or anything
     * else (a fraction, a negative or out-of-range number, another
     * type).
     */
    uint64_t u64Or(const std::string &key, uint64_t fallback) const;

    /**
     * u64Or() for input that must not fall back silently: sets @p out
     * when @p key holds a u64, leaves it when @p key is absent, and
     * returns false with @p error naming the key when @p key holds
     * anything else.
     */
    bool readU64(const std::string &key, uint64_t &out,
                 std::string &error) const;

    /** Member as a bool; @p fallback when absent or not a bool. */
    bool boolOr(const std::string &key, bool fallback) const;
};

/**
 * Parse @p text as one JSON value (trailing whitespace allowed,
 * trailing garbage is an error).  On failure returns false and sets
 * @p error.  Nesting beyond 64 levels is rejected.
 */
bool parse(const std::string &text, Value &out, std::string &error);

/** Parse a full-string decimal u64; false on any non-digit residue. */
bool parseU64(const std::string &text, uint64_t &out);

/** Parse a full-string finite, unsigned decimal number (a digit or a
 *  point first, then an optional fraction and exponent); false on a
 *  sign, "inf", "nan", trailing bytes or a value out of double's
 *  range.  @p out is unspecified then. */
bool parseNumber(const std::string &text, double &out);

/** Serialize a double's bit pattern as a decimal string (bit-exact
 *  round-trip through text, independent of printf precision). */
std::string doubleBits(double x);

/** Inverse of doubleBits(); false when @p text is not a valid u64. */
bool doubleFromBits(const std::string &text, double &out);

} // namespace cap::json

#endif // CAPSIM_UTIL_JSON_H
