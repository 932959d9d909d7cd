/**
 * @file
 * The two JSON token writers the benchmark's outputs need. Parsing goes
 * through util::JsonValue.
 */

#ifndef FEDGPO_BENCH_E2E_JSON_TEXT_H_
#define FEDGPO_BENCH_E2E_JSON_TEXT_H_

#include <cmath>
#include <cstdio>
#include <string>

namespace fedgpo {
namespace e2e {

/** A number with all its digits; null for NaN/Inf (invalid JSON). */
inline std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** A quoted, escaped JSON string. */
inline std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace e2e
} // namespace fedgpo

#endif // FEDGPO_BENCH_E2E_JSON_TEXT_H_
