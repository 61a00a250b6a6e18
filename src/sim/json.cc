#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pm::sim::json {

namespace {

/** Parser cursor over the input line. */
struct Cursor
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &what)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " at byte %zu", pos);
        err = what + buf;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return atEnd() ? '\0' : text[pos]; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    bool
    consumeWord(const char *w)
    {
        std::size_t n = 0;
        while (w[n] != '\0')
            ++n;
        if (text.compare(pos, n, w) != 0)
            return false;
        pos += n;
        return true;
    }
};

/** Append code point `cp` to `out` as UTF-8. */
void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xe0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

bool
parseHex4(Cursor &c, std::uint32_t &out)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        if (c.atEnd())
            return false;
        const char ch = c.text[c.pos++];
        v <<= 4;
        if (ch >= '0' && ch <= '9')
            v |= static_cast<std::uint32_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            v |= static_cast<std::uint32_t>(ch - 'a' + 10);
        else if (ch >= 'A' && ch <= 'F')
            v |= static_cast<std::uint32_t>(ch - 'A' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

bool
parseString(Cursor &c, std::string &out)
{
    if (!c.consume('"'))
        return c.fail("expected '\"'");
    out.clear();
    for (;;) {
        if (c.atEnd())
            return c.fail("unterminated string");
        const char ch = c.text[c.pos++];
        if (ch == '"')
            return true;
        if (static_cast<unsigned char>(ch) < 0x20)
            return c.fail("raw control character in string");
        if (ch != '\\') {
            out += ch;
            continue;
        }
        if (c.atEnd())
            return c.fail("unterminated escape");
        const char esc = c.text[c.pos++];
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
            std::uint32_t cp = 0;
            if (!parseHex4(c, cp))
                return c.fail("bad \\u escape");
            // Surrogate pair: a high surrogate must be followed by
            // \uDC00..\uDFFF; combine the two into one code point.
            if (cp >= 0xd800 && cp <= 0xdbff) {
                std::uint32_t lo = 0;
                if (!c.consume('\\') || !c.consume('u') ||
                    !parseHex4(c, lo) || lo < 0xdc00 || lo > 0xdfff)
                    return c.fail("bad surrogate pair");
                cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                return c.fail("stray low surrogate");
            }
            appendUtf8(out, cp);
            break;
        }
        default:
            return c.fail("unknown escape");
        }
    }
}

bool parseValue(Cursor &c, Value &out, unsigned depth);

bool
parseNumber(Cursor &c, Value &out)
{
    const std::size_t start = c.pos;
    if (c.peek() == '-')
        ++c.pos;
    while (!c.atEnd()) {
        const char ch = c.peek();
        if ((ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' ||
            ch == 'E' || ch == '+' || ch == '-')
            ++c.pos;
        else
            break;
    }
    if (c.pos == start)
        return c.fail("expected number");
    const std::string tok = c.text.substr(start, c.pos - start);
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
        c.pos = start;
        return c.fail("bad number");
    }
    out = Value::makeNum(v);
    return true;
}

bool
parseValue(Cursor &c, Value &out, unsigned depth)
{
    if (depth > kMaxDepth)
        return c.fail("nesting too deep");
    c.skipWs();
    const char ch = c.peek();
    if (ch == '"') {
        std::string s;
        if (!parseString(c, s))
            return false;
        out = Value::makeStr(std::move(s));
        return true;
    }
    if (ch == '{') {
        ++c.pos;
        out = Value::makeObj();
        c.skipWs();
        if (c.consume('}'))
            return true;
        for (;;) {
            c.skipWs();
            std::string key;
            if (!parseString(c, key))
                return false;
            c.skipWs();
            if (!c.consume(':'))
                return c.fail("expected ':'");
            Value v;
            if (!parseValue(c, v, depth + 1))
                return false;
            out.object[std::move(key)] = std::move(v);
            c.skipWs();
            if (c.consume(','))
                continue;
            if (c.consume('}'))
                return true;
            return c.fail("expected ',' or '}'");
        }
    }
    if (ch == '[') {
        ++c.pos;
        out = Value::makeArr();
        c.skipWs();
        if (c.consume(']'))
            return true;
        for (;;) {
            Value v;
            if (!parseValue(c, v, depth + 1))
                return false;
            out.array.push_back(std::move(v));
            c.skipWs();
            if (c.consume(','))
                continue;
            if (c.consume(']'))
                return true;
            return c.fail("expected ',' or ']'");
        }
    }
    if (c.consumeWord("true")) {
        out = Value::makeBool(true);
        return true;
    }
    if (c.consumeWord("false")) {
        out = Value::makeBool(false);
        return true;
    }
    if (c.consumeWord("null")) {
        out = Value();
        return true;
    }
    return parseNumber(c, out);
}

void
dumpInto(const Value &v, std::string &out)
{
    switch (v.kind) {
    case Value::Kind::Null:
        out += "null";
        return;
    case Value::Kind::Bool:
        out += v.boolean ? "true" : "false";
        return;
    case Value::Kind::Num: {
        // Shortest round-trip digits in fixed notation: the plain
        // format would print 100000 as "1e+05". The longest output is
        // the smallest denormal, "-0." then 323 zeros and a digit.
        char buf[400];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v.number,
                                       std::chars_format::fixed);
        out.append(buf, res.ptr);
        return;
    }
    case Value::Kind::Str:
        out += '"';
        out += escape(v.string);
        out += '"';
        return;
    case Value::Kind::Arr: {
        out += '[';
        bool first = true;
        for (const Value &e : v.array) {
            if (!first)
                out += ',';
            first = false;
            dumpInto(e, out);
        }
        out += ']';
        return;
    }
    case Value::Kind::Obj: {
        out += '{';
        bool first = true;
        for (const auto &[key, val] : v.object) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += escape(key);
            out += "\":";
            dumpInto(val, out);
        }
        out += '}';
        return;
    }
    }
}

} // namespace

bool
parse(const std::string &text, Value &out, std::string &err)
{
    Cursor c{text, 0, {}};
    if (!parseValue(c, out, 0)) {
        err = c.err;
        return false;
    }
    c.skipWs();
    if (!c.atEnd()) {
        c.fail("trailing garbage");
        err = c.err;
        return false;
    }
    return true;
}

std::string
dump(const Value &v)
{
    std::string out;
    dumpInto(v, out);
    return out;
}

bool
writeFile(const std::string &path, const Value &v)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string text = dump(v) + "\n";
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && wrote;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

} // namespace pm::sim::json
