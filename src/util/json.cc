#include "util/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fedgpo {
namespace util {

namespace {

const JsonValue &
nullValue()
{
    static const JsonValue kNull;
    return kNull;
}

} // namespace

/**
 * Hand-rolled recursive-descent parser over the input buffer. Depth is
 * capped so a pathological input cannot blow the stack.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool run(JsonValue &out)
    {
        if (!parseValue(out, 0))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;

    bool fail(const std::string &what)
    {
        if (error_ != nullptr)
            *error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool consume(char expected)
    {
        if (pos_ >= text_.size() || text_[pos_] != expected)
            return fail(std::string("expected '") + expected + "'");
        ++pos_;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWhitespace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case '{':
            return parseObject(out, depth);
        case '[':
            return parseArray(out, depth);
        case '"':
            out.type_ = JsonValue::Type::String;
            return parseString(out.string_);
        case 't':
        case 'f':
            return parseKeyword(out);
        case 'n':
            return parseNull(out);
        default:
            return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out, int depth)
    {
        out.type_ = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return false;
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.object_.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return consume('}');
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        out.type_ = JsonValue::Type::Array;
        ++pos_; // '['
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.array_.push_back(std::move(value));
            skipWhitespace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return consume(']');
        }
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // The traces only emit ASCII; encode the BMP code point
                // as UTF-8 so arbitrary valid input still round-trips.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseKeyword(JsonValue &out)
    {
        if (text_.compare(pos_, 4, "true") == 0) {
            out.type_ = JsonValue::Type::Bool;
            out.bool_ = true;
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.type_ = JsonValue::Type::Bool;
            out.bool_ = false;
            pos_ += 5;
            return true;
        }
        return fail("unknown keyword");
    }

    bool parseNull(JsonValue &out)
    {
        if (text_.compare(pos_, 4, "null") == 0) {
            out.type_ = JsonValue::Type::Null;
            pos_ += 4;
            return true;
        }
        return fail("unknown keyword");
    }

    bool parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                digits = true;
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (!digits)
            return fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            pos_ = start;
            return fail("malformed number");
        }
        out.type_ = JsonValue::Type::Number;
        out.number_ = value;
        // Pure-integer tokens additionally keep their exact int64 value:
        // byte counters in the traces exceed double's 2^53 integer range
        // in principle, and asInt64() must round-trip them losslessly.
        if (token.find_first_of(".eE") == std::string::npos) {
            errno = 0;
            char *iend = nullptr;
            const long long exact = std::strtoll(token.c_str(), &iend, 10);
            if (errno == 0 && iend != nullptr && *iend == '\0') {
                out.is_int_ = true;
                out.int_ = exact;
            }
        }
        return true;
    }
};

bool
JsonValue::parse(const std::string &text, JsonValue &out, std::string *error)
{
    out = JsonValue();
    JsonParser parser(text, error);
    return parser.run(out);
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return array_.size();
    if (isObject())
        return object_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (isArray() && i < array_.size())
        return array_[i];
    return nullValue();
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    for (const auto &member : object_) {
        if (member.first == key)
            return member.second;
    }
    return nullValue();
}

bool
JsonValue::has(const std::string &key) const
{
    for (const auto &member : object_) {
        if (member.first == key)
            return true;
    }
    return false;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace util
} // namespace fedgpo
