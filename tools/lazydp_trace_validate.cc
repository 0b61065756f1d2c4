/**
 * @file
 * lazydp_trace_validate — structural checker for telemetry artifacts.
 *
 * Two modes:
 *
 *  - Default: validate a Chrome-trace JSON file (--trace from
 *    lazydp_serve / lazydp_train). Checks the file is well-formed
 *    JSON, has a traceEvents array, every "X" (complete) event carries
 *    ts and a non-negative dur, any stray "B"/"E" duration events pair
 *    per (tid, name), and — with --require-cats — that every listed
 *    category appears at least once (comma-separated, e.g.
 *    "trainer,serve,tier"). Exit 0 on pass, 1 with a
 *    diagnostic on the first failure.
 *
 *  - --jsonl: validate a StatsSampler time series (--stats-out).
 *    Every line must parse as one JSON object; --min-lines gates the
 *    line count (CI uses 1 to assert the sampler scraped at all).
 *
 * The parser is a minimal recursive-descent JSON reader (no external
 * dependency; CI runs this in containers without python).
 */

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/logging.h"
#include "common/string_util.h"

using namespace lazydp;

namespace {

/** Parsed JSON value (only the shapes the trace format uses). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue *
    get(const std::string &key) const
    {
        const auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

/** Recursive-descent JSON parser over an in-memory buffer. Failure
 *  reporting is by position: fail() raises a fatal with byte offset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after top-level value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        fatal("JSON parse error at byte ", pos_, ": ", why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        switch (c) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': return parseString();
        case 't':
        case 'f': return parseBool();
        case 'n': return parseNull();
        default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            JsonValue key = parseString();
            expect(':');
            v.object.emplace(std::move(key.str), parseValue());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.type = JsonValue::Type::String;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                case '"': c = '"'; break;
                case '\\': c = '\\'; break;
                case '/': c = '/'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'n': c = '\n'; break;
                case 'r': c = '\r'; break;
                case 't': c = '\t'; break;
                case 'u':
                    // Trace names are ASCII; keep the escape verbatim
                    // rather than decoding UTF-16 surrogates.
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    v.str.append("\\u");
                    v.str.append(text_, pos_, 4);
                    pos_ += 4;
                    continue;
                default: fail("bad escape character");
                }
            }
            v.str.push_back(c);
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        JsonValue v;
        v.type = JsonValue::Type::Null;
        return v;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        try {
            v.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

std::string
joinSet(const std::set<std::string> &items, const char *sep)
{
    std::string out;
    for (const std::string &s : items) {
        if (!out.empty())
            out.append(sep);
        out.append(s);
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Trace-mode validation; fatal (exit 1) on the first violation. */
void
validateTrace(const std::string &path,
              const std::vector<std::string> &requiredCats)
{
    const std::string text = readFile(path);
    JsonParser parser(text);
    const JsonValue root = parser.parse();
    if (root.type != JsonValue::Type::Object)
        fatal(path, ": top level is not an object");
    const JsonValue *events = root.get("traceEvents");
    if (events == nullptr ||
        events->type != JsonValue::Type::Array)
        fatal(path, ": missing traceEvents array");

    std::set<std::string> cats;
    // Stray B/E events (the recorder emits only X/i/M, but the
    // validator enforces the format, not the producer): every "B" must
    // pair with an "E" per (tid, name) stack discipline.
    std::map<std::pair<double, std::string>, std::uint64_t> open;
    std::uint64_t spans = 0;
    std::uint64_t instants = 0;

    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        if (e.type != JsonValue::Type::Object)
            fatal(path, ": traceEvents[", i, "] is not an object");
        const JsonValue *ph = e.get("ph");
        if (ph == nullptr || ph->type != JsonValue::Type::String)
            fatal(path, ": traceEvents[", i, "] has no ph");
        const JsonValue *name = e.get("name");
        const std::string nm =
            name != nullptr ? name->str : std::string();
        if (ph->str == "M")
            continue; // metadata carries no cat/ts
        const JsonValue *cat = e.get("cat");
        if (cat != nullptr)
            cats.insert(cat->str);
        const JsonValue *ts = e.get("ts");
        if (ts == nullptr || ts->type != JsonValue::Type::Number)
            fatal(path, ": traceEvents[", i, "] (", nm,
                  ") has no numeric ts");
        if (ph->str == "X") {
            const JsonValue *dur = e.get("dur");
            if (dur == nullptr ||
                dur->type != JsonValue::Type::Number)
                fatal(path, ": complete event ", i, " (", nm,
                      ") has no dur");
            if (dur->number < 0.0)
                fatal(path, ": complete event ", i, " (", nm,
                      ") has negative dur");
            ++spans;
        } else if (ph->str == "i" || ph->str == "I") {
            ++instants;
        } else if (ph->str == "B" || ph->str == "E") {
            const JsonValue *tid = e.get("tid");
            const double t =
                tid != nullptr ? tid->number : -1.0;
            const auto key = std::make_pair(t, nm);
            if (ph->str == "B") {
                ++open[key];
            } else {
                if (open[key] == 0)
                    fatal(path, ": E event ", i, " (", nm,
                          ") without a matching B");
                --open[key];
            }
        }
    }
    for (const auto &kv : open)
        if (kv.second != 0)
            fatal(path, ": ", kv.second, " unclosed B event(s) for '",
                  kv.first.second, "'");
    for (const std::string &need : requiredCats)
        if (cats.find(need) == cats.end())
            fatal(path, ": required category '", need,
                  "' never appears (have: ", joinSet(cats, ","), ")");

    inform("trace ok: ", events->array.size(), " events (", spans,
           " spans, ", instants, " instants), categories: ",
           joinSet(cats, ","));
}

/** JSONL-mode validation for StatsSampler output. */
void
validateJsonl(const std::string &path, std::uint64_t minLines)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open ", path);
    std::string line;
    std::uint64_t lines = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++lines;
        JsonParser parser(line);
        const JsonValue v = parser.parse();
        if (v.type != JsonValue::Type::Object)
            fatal(path, ": line ", lines, " is not a JSON object");
    }
    if (lines < minLines)
        fatal(path, ": ", lines, " JSONL line(s), need >= ", minLines);
    inform("stats ok: ", lines, " scrape line(s)");
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        std::vector<FlagSpec>{
            {"require-cats", "comma-separated trace categories that "
                             "must each appear at least once"},
            {"jsonl", "validate a stats JSONL time series instead of "
                      "a Chrome trace"},
            {"min-lines", "jsonl mode: minimum line count (default "
                          "1)"},
            {"help", "print this help"},
        });
    if (args.getBool("help", false)) {
        std::fputs(
            args.helpText("lazydp_trace_validate",
                          "validate Chrome-trace / stats-JSONL "
                          "telemetry artifacts")
                .c_str(),
            stdout);
        return 0;
    }
    if (args.positional().size() != 1)
        fatal("usage: lazydp_trace_validate [--require-cats=a,b,...] "
              "[--jsonl [--min-lines=N]] <file>");
    const std::string path = args.positional()[0];

    if (args.getBool("jsonl", false)) {
        validateJsonl(path, args.getU64("min-lines", 1));
        return 0;
    }
    std::vector<std::string> cats;
    const std::string need = args.getString("require-cats", "");
    if (!need.empty())
        cats = split(need, ',');
    validateTrace(path, cats);
    return 0;
}
