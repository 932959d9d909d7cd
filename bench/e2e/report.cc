#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "json_text.h"
#include "tensor/gemm.h"
#include "util/json.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace fedgpo {
namespace e2e {

namespace {

/** First line of a shell command's output ("" when it fails). */
std::string
commandLine(const char *cmd)
{
    std::FILE *pipe = popen(cmd, "r");
    if (pipe == nullptr)
        return "";
    char buf[256];
    std::string out;
    if (std::fgets(buf, sizeof buf, pipe) != nullptr)
        out = buf;
    pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
#else
    return "unknown";
#endif
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Run-time metadata: commit, host, and how the run was configured. */
std::string
envelopeJson(const RunSettings &s)
{
    // Read from the working directory's repository when there is one; a
    // plain source checkout reports "unknown".
    const std::string commit =
        commandLine("git --git-dir=.git rev-parse HEAD 2>/dev/null");
    const bool known = !commit.empty();
    const bool dirty =
        known && !commandLine("git --no-optional-locks --git-dir=.git "
                              "--work-tree=. status --porcelain "
                              "--untracked-files=no 2>/dev/null")
                      .empty();
    std::ostringstream os;
    os << "{\"commit\": " << jstr(known ? commit : "unknown")
       << ", \"dirty\": " << (dirty ? "true" : "false")
       << ", \"compiler\": " << jstr(compiler())
       << ", \"cpu_model\": " << jstr(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"fast_math_available\": "
       << (tensor::fast::available() ? "true" : "false")
       << ", \"threads\": " << benchThreads() << ", \"seed\": " << s.seed
       << ", \"seconds\": " << jnum(s.seconds)
       << ", \"smoke\": " << (s.smoke ? "true" : "false")
       << ", \"trace\": " << (s.layers ? 1 : 0) << "}";
    return os.str();
}

std::string
workloadConfigJson(const Workload &w)
{
    std::ostringstream os;
    os << "{\"why\": " << jstr(w.why) << ", \"protocol\": "
       << jstr(fl::protocolModeName(w.config.protocol.mode))
       << ", \"policy\": "
       << jstr(w.fedgpo ? "FedGPO" : "fixed " + w.params.toString())
       << ", \"fast_math\": " << (w.fast_math ? "true" : "false")
       << ", \"trace\": " << jstr(w.traced ? "full" : "off")
       << ", \"metrics\": "
       << jstr(w.metrics == obs::Level::Basic ? "basic" : "off")
       << ", \"rounds\": " << w.rounds
       << ", \"campaigns\": " << w.campaigns
       << ", \"target\": " << jnum(w.target)
       << ", \"max_rounds\": " << w.max_rounds << "}";
    return os.str();
}

void
metricsJson(std::ostream &os, const std::vector<MetricDef> &defs,
            const std::map<std::string, MetricValue> &values,
            const char *indent)
{
    bool first = true;
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end())
            continue;
        const MetricValue &v = it->second;
        os << (first ? "\n" : ",\n") << indent << jstr(d.name)
           << ": {\"unit\": " << jstr(d.unit)
           << ", \"value\": " << jnum(v.value) << ", \"q1\": " << jnum(v.q1)
           << ", \"q3\": " << jnum(v.q3) << ", \"n\": " << v.n << "}";
        first = false;
    }
}

bool
readFile(const std::string &path, util::JsonValue &out, std::ostream &err)
{
    std::ifstream in(path);
    if (!in) {
        err << "cannot open " << path << "\n";
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!util::JsonValue::parse(buf.str(), out, &error)) {
        err << path << ": " << error << "\n";
        return false;
    }
    return true;
}

} // namespace

void
printTable(std::ostream &os, const WorkloadResult &r)
{
    os << "== " << r.run.workload->name << ": "
       << (r.ok() ? "ok" : "CHECKS FAILED") << ", " << r.attempted
       << " campaigns, " << r.failed << " failed ==\n";
    for (const std::string &f : r.failures)
        os << "  check failed: " << f << "\n";
    auto section = [&](const std::vector<MetricDef> &defs,
                       const std::map<std::string, MetricValue> &values) {
        for (const MetricDef &d : defs) {
            auto it = values.find(d.name);
            if (it == values.end())
                continue;
            const MetricValue &v = it->second;
            os << "  " << std::left << std::setw(34) << d.name
               << std::right << std::setw(14) << std::setprecision(6)
               << v.value << " " << std::left << std::setw(12) << d.unit
               << std::right;
            if (v.q1 != v.q3)
                os << " [q1 " << std::setprecision(5) << v.q1 << ", q3 "
                   << v.q3 << "]";
            os << " n=" << v.n << "\n";
        }
    };
    section(endToEndMetrics(), r.end_to_end);
    section(perLayerMetrics(), r.per_layer.empty() ? r.modeled : r.per_layer);
}

std::string
documentJson(const RunSettings &settings,
             const std::vector<WorkloadResult> &results)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"fedgpo.e2e_bench.v1\",\n  \"envelope\": "
       << envelopeJson(settings) << ",\n  \"workloads\": {";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        const Workload &w = *r.run.workload;
        os << (i > 0 ? ",\n" : "\n") << "    " << jstr(w.name) << ": {\n"
           << "      \"ok\": " << (r.ok() ? "true" : "false")
           << ", \"attempted\": " << r.attempted
           << ", \"failed\": " << r.failed << ",\n      \"failures\": [";
        for (std::size_t f = 0; f < r.failures.size(); ++f)
            os << (f > 0 ? ", " : "") << jstr(r.failures[f]);
        os << "],\n      \"config\": " << workloadConfigJson(w)
           << ",\n      \"end_to_end\": {";
        metricsJson(os, endToEndMetrics(), r.end_to_end, "        ");
        os << "},\n      \"modeled\": {";
        metricsJson(os, perLayerMetrics(), r.modeled, "        ");
        os << "},\n      \"per_layer\": {";
        metricsJson(os, perLayerMetrics(), r.per_layer, "        ");
        os << "}\n    }";
    }
    os << "\n  }\n}\n";
    return os.str();
}

std::string
resultLine(const WorkloadResult &r, bool layers)
{
    const std::vector<MetricDef> &defs =
        layers ? perLayerMetrics() : endToEndMetrics();
    const std::map<std::string, MetricValue> &values =
        layers ? r.per_layer : r.end_to_end;
    std::string out = std::string("{\"correct\": ") +
                      (r.ok() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) +
                      ", \"metrics\": {";
    const char *sep = "";
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        const double v = it == values.end() ? 0.0 : it->second.value;
        out.append(sep).append(jstr(d.name)).append(": {\"value\": ");
        out.append(jnum(v)).append(", \"unit\": ").append(jstr(d.unit));
        out += "}";
        sep = ", ";
    }
    return out + "}}";
}

int
compareDocuments(const std::string &base_path, const std::string &head_path,
                 const std::string &benchmark_json)
{
    util::JsonValue base, head, bench;
    if (!readFile(base_path, base, std::cerr) ||
        !readFile(head_path, head, std::cerr) ||
        !readFile(benchmark_json, bench, std::cerr))
        return 2;

    std::cout << std::left << std::setw(24) << "workload" << std::setw(30)
              << "metric" << std::setw(36) << "base median [q1, q3]"
              << std::setw(36) << "head median [q1, q3]" << std::setw(10)
              << "change" << std::setw(8) << "bound"
              << "verdict\n";
    bool worse = false;
    // `change` and `bound` are shares of the base median, or values in
    // the metric's unit when `absolute`; a positive change is the head
    // getting better.
    auto row = [&worse](const std::string &workload,
                        const std::string &metric, const util::JsonValue &b,
                        const util::JsonValue &h, double change, double bound,
                        bool absolute, const std::string &verdict) {
        auto cell = [](const util::JsonValue &v) {
            std::ostringstream c;
            c << std::setprecision(5) << v.at("value").asNumber() << " ["
              << v.at("q1").asNumber() << ", " << v.at("q3").asNumber()
              << "]";
            return c.str();
        };
        const double scale = absolute ? 1.0 : 100.0;
        const char *suffix = absolute ? "" : "%";
        std::ostringstream pct, bnd;
        pct << std::showpos << std::fixed
            << std::setprecision(absolute ? 4 : 1) << change * scale
            << suffix;
        bnd << std::defaultfloat << bound * scale << suffix;
        std::cout << std::setw(24) << workload << std::setw(30) << metric
                  << std::setw(36) << cell(b) << std::setw(36) << cell(h)
                  << std::setw(10) << pct.str() << std::setw(8) << bnd.str()
                  << verdict << "\n";
        worse = worse || verdict == "worse";
    };

    const double base_seed = base.at("envelope").at("seed").asNumber();
    const double head_seed = head.at("envelope").at("seed").asNumber();
    for (const auto &[name, head_w] : head.at("workloads").members()) {
        const util::JsonValue &base_w = base.at("workloads").at(name);
        if (base_w.isNull())
            continue;
        for (const util::JsonValue &def :
             bench.at("end_to_end").elements()) {
            const std::string metric = def.at("name").asString();
            const util::JsonValue &b = base_w.at("end_to_end").at(metric);
            const util::JsonValue &h = head_w.at("end_to_end").at(metric);
            if (b.isNull() || h.isNull())
                continue;
            const double bound = def.at("bound").asNumber();
            const bool higher = def.at("better").asString() == "higher";
            const double bv = b.at("value").asNumber();
            const double hv = h.at("value").asNumber();
            auto rel = [](const util::JsonValue &v) {
                const double m = std::fabs(v.at("value").asNumber());
                return m > 0.0 ? (v.at("q3").asNumber() -
                                  v.at("q1").asNumber()) /
                                     m
                               : 0.0;
            };
            const double change =
                bv != 0.0 ? (higher ? hv - bv : bv - hv) / std::fabs(bv)
                          : 0.0;
            const double head_worst =
                h.at(higher ? "q1" : "q3").asNumber();
            const double base_best = b.at(higher ? "q3" : "q1").asNumber();
            const bool head_clearly_better =
                higher ? head_worst > base_best : head_worst < base_best;
            std::string verdict;
            if (std::max(rel(b), rel(h)) > bound && !head_clearly_better)
                verdict = "unresolved";
            else if (-change > bound)
                verdict = "worse";
            else if (change > rel(b) && change > 0.0)
                verdict = "better";
            else
                verdict = "unchanged";
            row(name, metric, b, h, change, bound, false, verdict);
        }

        // The convergence campaign is deterministic for a seed, so its
        // outcomes compare exactly, without a spread.
        if (base_seed != head_seed)
            continue;
        for (const ModeledBound &mb : modeledBounds()) {
            const util::JsonValue &b = base_w.at("modeled").at(mb.name);
            const util::JsonValue &h = head_w.at("modeled").at(mb.name);
            if (b.isNull() || h.isNull())
                continue;
            bool higher = false;
            for (const MetricDef &d : perLayerMetrics())
                if (d.name == mb.name)
                    higher = d.higher_better;
            const double bv = b.at("value").asNumber();
            const double hv = h.at("value").asNumber();
            double change = higher ? hv - bv : bv - hv;
            if (!mb.absolute)
                change = bv != 0.0 ? change / std::fabs(bv) : 0.0;
            row(name, mb.name, b, h, change, mb.bound, mb.absolute,
                -change > mb.bound  ? "worse"
                : change > mb.bound ? "better"
                                    : "unchanged");
        }
    }
    if (base_seed != head_seed)
        std::cout << "modeled outcomes not compared: the runs used seeds "
                  << base.at("envelope").at("seed").asInt64() << " and "
                  << head.at("envelope").at("seed").asInt64() << "\n";
    return worse ? 1 : 0;
}

bool
checkManifest(const std::string &benchmark_json, std::ostream &err)
{
    util::JsonValue bench;
    if (!readFile(benchmark_json, bench, err))
        return false;
    bool ok = true;
    auto mismatch = [&](const std::string &what) {
        err << benchmark_json << ": " << what << "\n";
        ok = false;
    };

    const util::JsonValue &ws = bench.at("workloads");
    if (ws.size() != workloads().size())
        mismatch("lists " + std::to_string(ws.size()) +
                 " workloads, the benchmark runs " +
                 std::to_string(workloads().size()));
    for (std::size_t i = 0; i < ws.size() && i < workloads().size(); ++i)
        if (ws.at(i).at("name").asString() != workloads()[i].name)
            mismatch("workload " + std::to_string(i) + " is '" +
                     ws.at(i).at("name").asString() + "', expected '" +
                     workloads()[i].name + "'");

    auto compare = [&](const char *key, const std::vector<MetricDef> &defs) {
        const util::JsonValue &listed = bench.at(key);
        if (listed.size() != defs.size())
            mismatch(std::string(key) + " lists " +
                     std::to_string(listed.size()) + " metrics, expected " +
                     std::to_string(defs.size()));
        for (std::size_t i = 0; i < listed.size() && i < defs.size(); ++i) {
            const util::JsonValue &m = listed.at(i);
            const MetricDef &d = defs[i];
            if (m.at("name").asString() != d.name ||
                m.at("unit").asString() != d.unit ||
                m.at("better").asString() !=
                    (d.higher_better ? "higher" : "lower"))
                mismatch(std::string(key) + "[" + std::to_string(i) +
                         "] is " + m.at("name").asString() + " (" +
                         m.at("unit").asString() + ", " +
                         m.at("better").asString() + "), expected " +
                         d.name + " (" + d.unit + ", " +
                         (d.higher_better ? "higher" : "lower") + ")");
        }
    };
    compare("end_to_end", endToEndMetrics());
    compare("per_layer", perLayerMetrics());
    return ok;
}

} // namespace e2e
} // namespace fedgpo
