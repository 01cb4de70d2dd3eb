#include "json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "status.h"

namespace cap::json {

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char ch : text) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
quote(const std::string &text)
{
    return "\"" + escape(text) + "\"";
}

void
rawField(std::ostream &os, const char *key, const std::string &raw)
{
    os << ", \"" << key << "\": " << raw;
}

Writer &
Writer::beginObject()
{
    preValue();
    os_ << '{';
    stack_.push_back(Frame{true, false, 0});
    return *this;
}

Writer &
Writer::endObject()
{
    capAssert(!stack_.empty() && stack_.back().object,
              "endObject without matching beginObject");
    capAssert(!stack_.back().pending_key, "dangling key before endObject");
    os_ << '}';
    stack_.pop_back();
    return *this;
}

Writer &
Writer::beginArray()
{
    preValue();
    os_ << '[';
    stack_.push_back(Frame{false, false, 0});
    return *this;
}

Writer &
Writer::endArray()
{
    capAssert(!stack_.empty() && !stack_.back().object,
              "endArray without matching beginArray");
    os_ << ']';
    stack_.pop_back();
    return *this;
}

Writer &
Writer::key(const std::string &name)
{
    capAssert(!stack_.empty() && stack_.back().object,
              "key() outside an object");
    capAssert(!stack_.back().pending_key, "key() after key()");
    if (stack_.back().members)
        os_ << ',';
    os_ << quote(name) << ':';
    stack_.back().pending_key = true;
    return *this;
}

void
Writer::preValue()
{
    if (stack_.empty())
        return;
    Frame &top = stack_.back();
    if (top.object) {
        capAssert(top.pending_key, "object value without key()");
        top.pending_key = false;
    } else if (top.members) {
        os_ << ',';
    }
    ++top.members;
}

Writer &
Writer::value(const std::string &text)
{
    preValue();
    os_ << quote(text);
    return *this;
}

Writer &
Writer::value(const char *text)
{
    return value(std::string(text));
}

Writer &
Writer::value(bool flag)
{
    preValue();
    os_ << (flag ? "true" : "false");
    return *this;
}

Writer &
Writer::value(uint64_t n)
{
    preValue();
    os_ << n;
    return *this;
}

Writer &
Writer::value(int64_t n)
{
    preValue();
    os_ << n;
    return *this;
}

Writer &
Writer::value(double x, int precision)
{
    preValue();
    if (!std::isfinite(x)) {
        os_ << "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, x);
    os_ << buf;
    return *this;
}

Writer &
Writer::rawValue(const std::string &raw)
{
    preValue();
    os_ << raw;
    return *this;
}

const Value *
Value::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[name, member] : object) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

std::string
Value::stringOr(const std::string &key, const std::string &fallback) const
{
    const Value *v = find(key);
    return v && v->type == Type::String ? v->string : fallback;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return v && v->type == Type::Number ? v->number : fallback;
}

bool
Value::asU64(uint64_t &out) const
{
    if (type == Type::Number) {
        // Every integral double in [0, 2^64) converts exactly; any
        // other value would be truncated or undefined behaviour.
        if (!(number >= 0.0 && number < 0x1p64) ||
            std::trunc(number) != number)
            return false;
        out = static_cast<uint64_t>(number);
        return true;
    }
    return type == Type::String && parseU64(string, out);
}

uint64_t
Value::u64Or(const std::string &key, uint64_t fallback) const
{
    const Value *v = find(key);
    uint64_t out = 0;
    return v && v->asU64(out) ? out : fallback;
}

bool
Value::readU64(const std::string &key, uint64_t &out,
               std::string &error) const
{
    const Value *v = find(key);
    if (!v || v->asU64(out))
        return true;
    error = "\"" + key + "\" must be an integer in [0, 2^64)";
    return false;
}

bool
Value::boolOr(const std::string &key, bool fallback) const
{
    const Value *v = find(key);
    return v && v->type == Type::Bool ? v->boolean : fallback;
}

namespace {

constexpr int kMaxDepth = 64;

/** Cursor over the input; all parse* helpers leave pos at the first
 *  unconsumed byte and report errors by message. */
struct Cursor
{
    const std::string &text;
    size_t pos = 0;
    std::string error;

    bool fail(const std::string &message)
    {
        if (error.empty())
            error = message + " at offset " + std::to_string(pos);
        return false;
    }

    void skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool consume(char ch)
    {
        if (pos < text.size() && text[pos] == ch) {
            ++pos;
            return true;
        }
        return false;
    }
};

bool parseValue(Cursor &cur, Value &out, int depth);

bool
parseLiteral(Cursor &cur, const char *word, size_t len)
{
    if (cur.text.compare(cur.pos, len, word) != 0)
        return cur.fail("invalid literal");
    cur.pos += len;
    return true;
}

bool
parseString(Cursor &cur, std::string &out)
{
    if (!cur.consume('"'))
        return cur.fail("expected string");
    out.clear();
    while (cur.pos < cur.text.size()) {
        char ch = cur.text[cur.pos++];
        if (ch == '"')
            return true;
        if (ch != '\\') {
            out += ch;
            continue;
        }
        if (cur.pos >= cur.text.size())
            return cur.fail("truncated escape");
        char esc = cur.text[cur.pos++];
        switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
            if (cur.pos + 4 > cur.text.size())
                return cur.fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
                char hex = cur.text[cur.pos++];
                code <<= 4;
                if (hex >= '0' && hex <= '9')
                    code |= static_cast<unsigned>(hex - '0');
                else if (hex >= 'a' && hex <= 'f')
                    code |= static_cast<unsigned>(hex - 'a' + 10);
                else if (hex >= 'A' && hex <= 'F')
                    code |= static_cast<unsigned>(hex - 'A' + 10);
                else
                    return cur.fail("bad \\u digit");
            }
            // Our emitters only produce \u00xx (control bytes); decode
            // anything <= 0x7f as one byte, otherwise UTF-8 encode.
            if (code < 0x80) {
                out += static_cast<char>(code);
            } else if (code < 0x800) {
                out += static_cast<char>(0xc0 | (code >> 6));
                out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
                out += static_cast<char>(0xe0 | (code >> 12));
                out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
        }
        default:
            return cur.fail("bad escape character");
        }
    }
    return cur.fail("unterminated string");
}

bool
parseNumber(Cursor &cur, double &out)
{
    size_t start = cur.pos;
    if (cur.pos < cur.text.size() && cur.text[cur.pos] == '-')
        ++cur.pos;
    while (cur.pos < cur.text.size() &&
           (std::isdigit(static_cast<unsigned char>(cur.text[cur.pos])) ||
            cur.text[cur.pos] == '.' || cur.text[cur.pos] == 'e' ||
            cur.text[cur.pos] == 'E' || cur.text[cur.pos] == '+' ||
            cur.text[cur.pos] == '-'))
        ++cur.pos;
    if (cur.pos == start)
        return cur.fail("expected number");
    std::string token = cur.text.substr(start, cur.pos - start);
    char *end = nullptr;
    out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
        return cur.fail("malformed number");
    return true;
}

bool
parseValue(Cursor &cur, Value &out, int depth)
{
    if (depth > kMaxDepth)
        return cur.fail("nesting too deep");
    cur.skipSpace();
    if (cur.pos >= cur.text.size())
        return cur.fail("unexpected end of input");
    char ch = cur.text[cur.pos];
    if (ch == '{') {
        ++cur.pos;
        out.type = Value::Type::Object;
        cur.skipSpace();
        if (cur.consume('}'))
            return true;
        for (;;) {
            cur.skipSpace();
            std::string key;
            if (!parseString(cur, key))
                return false;
            cur.skipSpace();
            if (!cur.consume(':'))
                return cur.fail("expected ':'");
            Value member;
            if (!parseValue(cur, member, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            cur.skipSpace();
            if (cur.consume(','))
                continue;
            if (cur.consume('}'))
                return true;
            return cur.fail("expected ',' or '}'");
        }
    }
    if (ch == '[') {
        ++cur.pos;
        out.type = Value::Type::Array;
        cur.skipSpace();
        if (cur.consume(']'))
            return true;
        for (;;) {
            Value element;
            if (!parseValue(cur, element, depth + 1))
                return false;
            out.array.push_back(std::move(element));
            cur.skipSpace();
            if (cur.consume(','))
                continue;
            if (cur.consume(']'))
                return true;
            return cur.fail("expected ',' or ']'");
        }
    }
    if (ch == '"') {
        out.type = Value::Type::String;
        return parseString(cur, out.string);
    }
    if (ch == 't') {
        out.type = Value::Type::Bool;
        out.boolean = true;
        return parseLiteral(cur, "true", 4);
    }
    if (ch == 'f') {
        out.type = Value::Type::Bool;
        out.boolean = false;
        return parseLiteral(cur, "false", 5);
    }
    if (ch == 'n') {
        out.type = Value::Type::Null;
        return parseLiteral(cur, "null", 4);
    }
    out.type = Value::Type::Number;
    return parseNumber(cur, out.number);
}

} // namespace

bool
parse(const std::string &text, Value &out, std::string &error)
{
    Cursor cur{text, 0, {}};
    out = Value{};
    if (!parseValue(cur, out, 0)) {
        error = cur.error;
        return false;
    }
    cur.skipSpace();
    if (cur.pos != text.size()) {
        error = "trailing characters at offset " + std::to_string(cur.pos);
        return false;
    }
    return true;
}

bool
parseU64(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    uint64_t value = 0;
    for (char ch : text) {
        if (ch < '0' || ch > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(ch - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

bool
parseNumber(const std::string &text, double &out)
{
    // from_chars takes no '+' but does take '-', "inf" and "nan"; a
    // leading digit or point rules all three out.
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, out);
    return !text.empty() &&
           (std::isdigit(static_cast<unsigned char>(text[0])) ||
            text[0] == '.') &&
           ec == std::errc() && end == last;
}

std::string
doubleBits(double x)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(x), "double must be 64-bit");
    std::memcpy(&bits, &x, sizeof(bits));
    return std::to_string(bits);
}

bool
doubleFromBits(const std::string &text, double &out)
{
    uint64_t bits = 0;
    if (!parseU64(text, bits))
        return false;
    std::memcpy(&out, &bits, sizeof(out));
    return true;
}

} // namespace cap::json
