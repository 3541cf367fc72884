#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <sstream>

namespace cachecraft {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Integral values (the common case: counters) print exactly.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

void
JsonWriter::sep()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!needComma_.empty()) {
        if (needComma_.back())
            os_ << ',';
        needComma_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    sep();
    os_ << '{';
    needComma_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    needComma_.pop_back();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    sep();
    os_ << '[';
    needComma_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    needComma_.pop_back();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    sep();
    os_ << '"' << jsonEscape(k) << "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    sep();
    os_ << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    sep();
    os_ << jsonNumber(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    sep();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    sep();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    sep();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    sep();
    os_ << json;
    return *this;
}

namespace {

/** Recursive-descent parser building a JsonValue DOM. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    run(std::string *error)
    {
        JsonValue v;
        if (value(0, v)) {
            skipWs();
            if (pos_ == text_.size())
                return v;
            fail("trailing characters");
        }
        if (error)
            *error = err_;
        return std::nullopt;
    }

  private:
    static constexpr int kMaxDepth = 128;

    bool
    fail(const std::string &what)
    {
        if (err_.empty())
            err_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return fail("invalid literal");
        pos_ += lit.size();
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return fail("truncated escape");
                const char e = text_[pos_];
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    unsigned cp = 0;
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= text_.size())
                            return fail("bad \\u escape");
                        const char h = text_[pos_ + i];
                        if (!std::isxdigit(
                                static_cast<unsigned char>(h)))
                            return fail("bad \\u escape");
                        cp = cp * 16 +
                             static_cast<unsigned>(
                                 h <= '9'   ? h - '0'
                                 : h <= 'F' ? h - 'A' + 10
                                            : h - 'a' + 10);
                    }
                    pos_ += 4;
                    // UTF-8 encode the BMP code point (artifacts here
                    // only ever escape control characters, so no
                    // surrogate-pair handling).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape character");
                }
                ++pos_;
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    number(double &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        std::size_t digits = 0;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
            ++digits;
        }
        if (digits == 0)
            return fail("expected number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            digits = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++digits;
            }
            if (digits == 0)
                return fail("expected fraction digits");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            digits = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++digits;
            }
            if (digits == 0)
                return fail("expected exponent digits");
        }
        // strtod, not stod: an out-of-range literal ("1e999") becomes
        // +-inf or 0 instead of throwing std::out_of_range.
        out = std::strtod(std::string(text_.substr(start, pos_ - start))
                              .c_str(),
                          nullptr);
        return true;
    }

    bool
    value(int depth, JsonValue &out)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': {
            ++pos_;
            JsonValue::Object obj;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                out = JsonValue(std::move(obj));
                return true;
            }
            while (true) {
                skipWs();
                std::string k;
                if (!string(k))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                JsonValue member;
                if (!value(depth + 1, member))
                    return false;
                obj.emplace_back(std::move(k), std::move(member));
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == '}') {
                    ++pos_;
                    out = JsonValue(std::move(obj));
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++pos_;
            JsonValue::Array arr;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                out = JsonValue(std::move(arr));
                return true;
            }
            while (true) {
                JsonValue element;
                if (!value(depth + 1, element))
                    return false;
                arr.push_back(std::move(element));
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == ']') {
                    ++pos_;
                    out = JsonValue(std::move(arr));
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"': {
            std::string s;
            if (!string(s))
                return false;
            out = JsonValue(std::move(s));
            return true;
          }
          case 't':
            if (!literal("true"))
                return false;
            out = JsonValue(true);
            return true;
          case 'f':
            if (!literal("false"))
                return false;
            out = JsonValue(false);
            return true;
          case 'n':
            if (!literal("null"))
                return false;
            out = JsonValue();
            return true;
          default: {
            double n = 0.0;
            if (!number(n))
                return false;
            out = JsonValue(n);
            return true;
          }
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string err_;
};

} // namespace

bool
jsonValidate(std::string_view text, std::string *error)
{
    return jsonParse(text, error).has_value();
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::optional<JsonValue>
jsonParse(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

} // namespace cachecraft
