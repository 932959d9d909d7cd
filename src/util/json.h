/**
 * @file
 * Minimal JSON value and recursive-descent parser — just enough to read
 * back the JSONL round traces the simulator writes (objects, arrays,
 * strings with basic escapes, numbers, booleans, null). No external
 * dependencies, no DOM mutation API: parse, then navigate.
 *
 * Consumers: tools/trace_summarize and the trace round-trip tests.
 * jsonNumber() is the writing side every JSON emitter shares.
 */

#ifndef FEDGPO_UTIL_JSON_H_
#define FEDGPO_UTIL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fedgpo {
namespace util {

/**
 * One parsed JSON value. Missing-key lookups return a shared Null value
 * rather than throwing, so chained navigation over optional trace fields
 * stays terse: `line.at("decision").at("k").at("value").asNumber()`.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /**
     * Parse one JSON document. Returns false (and fills `error` with a
     * position-annotated message, when given) on malformed input.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string *error = nullptr);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Value accessors; type-mismatched reads return the neutral value. */
    bool asBool() const { return isBool() && bool_; }
    double asNumber() const { return isNumber() ? number_ : 0.0; }
    const std::string &asString() const { return string_; }

    /**
     * True when the number was written as a pure integer token (no '.',
     * no exponent) that fits an int64 — its exact value is then available
     * through asInt64(), lossless beyond double's 2^53 integer range.
     * Byte counters in the round traces rely on this.
     */
    bool isInteger() const { return isNumber() && is_int_; }

    /**
     * The exact integer value. Falls back to truncating the double for
     * numbers not stored as integers; 0 for non-numbers.
     */
    std::int64_t asInt64() const
    {
        if (!isNumber())
            return 0;
        return is_int_ ? int_ : static_cast<std::int64_t>(number_);
    }

    /** Element count of an array or object; 0 otherwise. */
    std::size_t size() const;

    /** Array element i; the shared Null value out of range. */
    const JsonValue &at(std::size_t i) const;

    /** Object member by key; the shared Null value when missing. */
    const JsonValue &at(const std::string &key) const;

    /** True when an object carries the key. */
    bool has(const std::string &key) const;

    /** Object members in document order (empty for non-objects). */
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return object_;
    }

    /** Array elements (empty for non-arrays). */
    const std::vector<JsonValue> &elements() const { return array_; }

  private:
    friend class JsonParser;

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    bool is_int_ = false;
    std::int64_t int_ = 0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/**
 * A double as a JSON number token: shortest round-trip-exact "%.17g",
 * so JsonValue::parse reads back the identical double. Non-finite
 * values become null, because bare "nan"/"inf" is invalid JSON and
 * would make one diverged value poison a whole trace line or file.
 */
std::string jsonNumber(double v);

} // namespace util
} // namespace fedgpo

#endif // FEDGPO_UTIL_JSON_H_
