/**
 * @file
 * Minimal JSON, shared by the pmsimd wire protocol (line-delimited
 * frames over a local socket, svc/server.hh) and the benches'
 * BENCH_*.json files. It is the smallest complete implementation that
 * serves both — no external dependency, no iostreams, deterministic
 * output:
 *
 *  - object keys emit in sorted order (the storage is a std::map);
 *  - there is no whitespace;
 *  - numbers are the shortest decimal that parses back to the same
 *    double, in plain (never exponent) notation, so integers print
 *    as integers and 85.7 prints as 85.7.
 *
 * Robustness notes, since wire bytes arrive from outside the process:
 * the parser never recurses deeper than kMaxDepth (a hostile
 * "[[[[..." line cannot blow the stack), rejects trailing garbage,
 * and reports errors with a byte offset instead of aborting — a
 * malformed frame must cost the sender a diagnostic, never the
 * server.
 */

#ifndef PM_SIM_JSON_HH
#define PM_SIM_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pm::sim::json {

/** Parser recursion limit; deeper input is rejected, not followed. */
constexpr unsigned kMaxDepth = 64;

/** One JSON value; a tagged struct rather than a class hierarchy. */
struct Value
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    Value() = default;

    static Value
    makeBool(bool b)
    {
        Value v;
        v.kind = Kind::Bool;
        v.boolean = b;
        return v;
    }

    static Value
    makeNum(double n)
    {
        Value v;
        v.kind = Kind::Num;
        v.number = n;
        return v;
    }

    static Value
    makeStr(std::string s)
    {
        Value v;
        v.kind = Kind::Str;
        v.string = std::move(s);
        return v;
    }

    static Value
    makeArr()
    {
        Value v;
        v.kind = Kind::Arr;
        return v;
    }

    static Value
    makeObj()
    {
        Value v;
        v.kind = Kind::Obj;
        return v;
    }

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNum() const { return kind == Kind::Num; }
    bool isStr() const { return kind == Kind::Str; }
    bool isArr() const { return kind == Kind::Arr; }
    bool isObj() const { return kind == Kind::Obj; }

    /** Object field, or nullptr when absent / not an object. */
    const Value *
    find(const std::string &key) const
    {
        if (kind != Kind::Obj)
            return nullptr;
        const auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }

    /** Object field's string value, or `dflt` when absent/mistyped. */
    std::string
    str(const std::string &key, const std::string &dflt = "") const
    {
        const Value *v = find(key);
        return v != nullptr && v->isStr() ? v->string : dflt;
    }

    /** Object field's number, or `dflt` when absent/mistyped. */
    double
    num(const std::string &key, double dflt = 0.0) const
    {
        const Value *v = find(key);
        return v != nullptr && v->isNum() ? v->number : dflt;
    }

    /** Set an object field (makes this an object if it was null). */
    Value &
    set(const std::string &key, Value v)
    {
        kind = Kind::Obj;
        object[key] = std::move(v);
        return *this;
    }
};

/**
 * Parse one complete JSON document from `text`. Trailing whitespace
 * is allowed; any other trailing byte is an error. On failure `err`
 * names the problem and the byte offset.
 */
[[nodiscard]] bool parse(const std::string &text, Value &out,
                         std::string &err);

/** Serialize (no whitespace; object keys in sorted order). */
std::string dump(const Value &v);

/**
 * Write dump(v) and a newline to `path`, replacing the file. False
 * when the file cannot be opened or written.
 */
[[nodiscard]] bool writeFile(const std::string &path, const Value &v);

/** JSON string-escape `s` (no surrounding quotes). */
std::string escape(const std::string &s);

} // namespace pm::sim::json

#endif // PM_SIM_JSON_HH
