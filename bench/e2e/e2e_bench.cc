/**
 * @file
 * e2e_bench: the end-to-end benchmark of FedGPO campaigns, on the host
 * clock (how fast the simulator produces a campaign) and the modeled
 * clock (the paper's time, energy and accuracy), with a per-layer
 * ledger. README.md documents the workloads, metrics and bounds.
 *
 * Load model: a closed loop, one campaign at a time. Every campaign runs
 * in a fresh child process of this binary (one child at a time, at most
 * benchThreads() worker threads), so peak RSS and the process-wide
 * modes (metrics level, tracing, fast math) belong to one campaign. The
 * parent only schedules children, checks their results and reports.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign.h"
#include "host_speed.h"
#include "ledger.h"
#include "report.h"
#include "workloads.h"

extern char **environ;

namespace {

using namespace fedgpo;
using namespace fedgpo::e2e;
using Clock = std::chrono::steady_clock;

const char *const kUsage = R"(usage:
  e2e_bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
            [--smoke] [--out FILE] [--manifest BENCHMARK.json]
  e2e_bench --compare BASE.json HEAD.json

  --workload NAME  run only this workload (repeatable; default: all four)
  --seed N         workload seed (default 42; 7 is the held-out seed)
  --seconds S      cap on one workload's timed campaigns (default 30): no
                   campaign starts that would likely end past it
  --trace 1        also run a profiled campaign beside each timed one and
                   report the per-layer metrics
  --smoke          every workload for at most 5 rounds, one timed campaign
  --out FILE       write the result document (fedgpo.e2e_bench.v1)
  --manifest FILE  first check that FILE lists exactly this benchmark's
                   workloads and metrics
  --compare        compare two result documents under the bounds in
                   ./BENCHMARK.json
)";

struct Options
{
    RunSettings settings;
    std::vector<const Workload *> workloads;
    std::string out;
    std::string manifest;
    std::string compare_base, compare_head;

    // Internal: run one campaign in this process (a child).
    std::string child;
    RunMode mode = RunMode::Timed;
    int rounds = 0;
};

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

bool
parseArgs(int argc, char **argv, Options &o, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](std::string &v) {
            if (i + 1 >= argc) {
                error = arg + " needs a value";
                return false;
            }
            v = argv[++i];
            return true;
        };
        auto number = [&](std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t &v) {
            std::string s;
            if (!value(s))
                return false;
            if (!parseUnsigned(s, v) || v < lo || v > hi) {
                error = arg + ": '" + s + "' is not a whole number in [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]";
                return false;
            }
            return true;
        };
        std::string s;
        std::uint64_t n = 0;
        if (arg == "--workload") {
            if (!value(s))
                return false;
            const Workload *w = findWorkload(s);
            if (w == nullptr) {
                error = "unknown workload '" + s + "'";
                return false;
            }
            o.workloads.push_back(w);
        } else if (arg == "--seed") {
            if (!number(0, UINT64_MAX, o.settings.seed))
                return false;
        } else if (arg == "--seconds") {
            if (!number(1, 3600, n))
                return false;
            o.settings.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (!number(0, 1, n))
                return false;
            o.settings.layers = n == 1;
        } else if (arg == "--smoke") {
            o.settings.smoke = true;
        } else if (arg == "--out") {
            if (!value(o.out))
                return false;
        } else if (arg == "--manifest") {
            if (!value(o.manifest))
                return false;
        } else if (arg == "--compare") {
            if (!value(o.compare_base) || !value(o.compare_head))
                return false;
        } else if (arg == "--child") {
            if (!value(o.child))
                return false;
        } else if (arg == "--mode") {
            if (!value(s))
                return false;
            if (!parseRunMode(s, o.mode)) {
                error = "unknown mode '" + s + "'";
                return false;
            }
        } else if (arg == "--rounds") {
            if (!number(1, 100000, n))
                return false;
            o.rounds = static_cast<int>(n);
        } else {
            error = "unknown argument '" + arg + "'";
            return false;
        }
    }
    if (o.workloads.empty())
        for (const Workload &w : workloads())
            o.workloads.push_back(&w);
    return true;
}

/** The last non-empty line of a child's output. */
std::string
lastLine(const std::string &text)
{
    const std::size_t end = text.find_last_not_of("\r\n");
    if (end == std::string::npos)
        return "";
    const std::size_t newline = text.rfind('\n', end);
    const std::size_t begin = newline == std::string::npos ? 0 : newline + 1;
    return text.substr(begin, end + 1 - begin);
}

/**
 * Run one campaign in a child process of this binary and wait for it.
 * The child prints its CampaignRecord as its last stdout line.
 */
bool
spawnCampaign(const std::string &exe, const Workload &w, std::uint64_t seed,
              RunMode mode, int rounds, CampaignRecord &out,
              std::string &error)
{
    int fds[2];
    if (pipe(fds) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {exe,       "--child",
                                     w.name,    "--seed",
                                     std::to_string(seed),
                                     "--mode",  runModeName(mode),
                                     "--rounds", std::to_string(rounds)};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        exe.find('/') == std::string::npos
            ? posix_spawnp(&pid, exe.c_str(), &actions, nullptr,
                           argv.data(), environ)
            : posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        error = "cannot start " + exe + ": " + std::strerror(rc);
        return false;
    }

    std::string text;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        error = WIFEXITED(status)
                    ? "campaign process exited with status " +
                          std::to_string(WEXITSTATUS(status))
                    : "campaign process killed by signal " +
                          std::to_string(WTERMSIG(status));
        return false;
    }
    if (!fromJson(lastLine(text), out, error)) {
        error = "unreadable campaign record: " + error;
        return false;
    }
    return true;
}

/** Schedules one workload's campaigns and folds in their outcomes. */
class WorkloadRunner
{
  public:
    WorkloadRunner(const Options &o, std::string exe, const Workload &w)
        : options_(o), exe_(std::move(exe)),
          rounds_(o.settings.smoke ? std::min(w.rounds, kDigestRounds)
                                   : w.rounds)
    {
        result.run.workload = &w;
    }

    /**
     * The convergence campaign: the run seed itself, trained until the
     * accuracy target (a smoke run stops after kDigestRounds rounds and
     * has no target).
     */
    void
    converge()
    {
        const Workload &w = *result.run.workload;
        const std::uint64_t seed = options_.settings.seed;
        CampaignRecord rec;
        if (!run(RunMode::Converge, seed,
                 options_.settings.smoke ? kDigestRounds : w.max_rounds, rec))
            return;
        // A campaign that failed a check is already counted.
        if (!options_.settings.smoke && rec.failures.empty() &&
            rec.at("target_reached") == 0.0) {
            ++result.failed;
            std::cerr << "[e2e] " << name() << " seed " << seed
                      << " missed accuracy " << w.target << " in "
                      << w.max_rounds << " rounds\n";
        }
        result.run.converge.push_back(std::move(rec));
    }

    /**
     * The workload's fixed number of timed campaigns, back to back, so
     * that two runs with one seed time the same fleets. The --seconds
     * budget only caps a run that got much slower: no campaign starts
     * that would likely end past it.
     */
    void
    timeCampaigns()
    {
        const int count =
            options_.settings.smoke ? 1 : result.run.workload->campaigns;
        const Clock::time_point start = Clock::now();
        double last = 0.0;
        for (int c = 1; c <= count && result.ok(); ++c) {
            const double elapsed = secondsSince(start);
            if (c > 1 && elapsed + last > options_.settings.seconds) {
                std::cerr << "[e2e] " << name() << ": the "
                          << options_.settings.seconds
                          << " s budget ran out after " << c - 1 << " of "
                          << count << " timed campaigns\n";
                break;
            }
            campaign(c);
            last = secondsSince(start) - elapsed;
        }
    }

    /**
     * The thread-invariance check: replay the convergence campaign's
     * first rounds at one thread; the digest must match bit for bit.
     */
    void
    replay()
    {
        const std::uint64_t seed = options_.settings.seed;
        CampaignRecord rec;
        if (!run(RunMode::Replay, seed, kDigestRounds, rec))
            return;
        if (!result.run.converge.empty() &&
            rec.digest != result.run.converge.front().digest)
            fail("thread invariance: the 1-thread replay of seed " +
                 std::to_string(seed) + " digests to " + rec.digest +
                 ", the " + std::to_string(benchThreads()) +
                 "-thread run to " + result.run.converge.front().digest);
        result.run.replay.push_back(std::move(rec));
    }

    /** Compute the metrics once every campaign has run. */
    void
    finish()
    {
        result.modeled = modeled(result.run);
        if (result.run.timed.empty())
            fail("no timed campaign completed");
        else
            result.end_to_end = endToEnd(result.run);
        if (options_.settings.layers && !result.run.timed.empty() &&
            !result.run.profiled.empty())
            result.per_layer = perLayer(result.run);
    }

    WorkloadResult result;

  private:
    const std::string &name() const { return result.run.workload->name; }

    static double
    secondsSince(Clock::time_point t0)
    {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    }

    SpeedSample
    sampleSpeed()
    {
        const SpeedSample s = measureSpeed(benchThreads());
        std::cerr << "[e2e] " << name() << " host speed sample: sort "
                  << s.sort_ms << " ms, walk " << s.walk_ms << " ms, gemm "
                  << s.gemm_ms << " ms\n";
        return s;
    }

    void
    fail(const std::string &what)
    {
        result.failures.push_back(what);
    }

    /**
     * Timed campaign `index` (from 1) between two host-speed samples, and
     * its profiled twin with --trace 1. The sample after one timed
     * campaign is the sample before the next, unless a twin ran between.
     */
    void
    campaign(int index)
    {
        const std::uint64_t seed = campaignSeed(options_.settings.seed, index);
        const SpeedSample before = last_sample_ ? *last_sample_ : sampleSpeed();
        CampaignRecord timed;
        const bool ok = run(RunMode::Timed, seed, rounds_, timed);
        last_sample_ = sampleSpeed();
        if (ok) {
            timed.speed =
                std::sqrt(speedFactor(before) * speedFactor(*last_sample_));
            result.run.timed.push_back(std::move(timed));
        }
        if (!options_.settings.layers)
            return;
        last_sample_.reset();
        CampaignRecord profiled;
        if (run(RunMode::Profiled, seed, rounds_, profiled)) {
            // Profiling is host-side only: the modeled results must not
            // move.
            if (!result.run.timed.empty() &&
                result.run.timed.back().seed == seed &&
                profiled.digest != result.run.timed.back().digest)
                fail("profiled campaign (seed " + std::to_string(seed) +
                     ") changed the modeled results");
            result.run.profiled.push_back(std::move(profiled));
        }
    }

    bool
    run(RunMode mode, std::uint64_t seed, int rounds, CampaignRecord &rec)
    {
        ++result.attempted;
        const Clock::time_point t0 = Clock::now();
        std::string error;
        const bool ok = spawnCampaign(exe_, *result.run.workload, seed, mode,
                                      rounds, rec, error);
        const double secs = secondsSince(t0);
        const std::string label = std::string(runModeName(mode)) +
                                  " campaign, seed " + std::to_string(seed);
        std::cerr << "[e2e] " << name() << " " << label << ": "
                  << (ok ? "done" : "FAILED") << " in " << secs << " s\n";
        if (!ok) {
            ++result.failed;
            fail(label + ": " + error);
            return false;
        }
        if (!rec.failures.empty())
            ++result.failed;
        for (const std::string &f : rec.failures)
            fail(label + ": " + f);
        return true;
    }

    const Options &options_;
    std::string exe_;
    int rounds_;
    std::optional<SpeedSample> last_sample_;
};

int
runChild(const Options &o)
{
    const Workload *w = findWorkload(o.child);
    if (w == nullptr || o.rounds < 1) {
        std::cerr << "e2e_bench: --child needs a known workload and --rounds\n";
        return 2;
    }
    const CampaignRecord rec =
        runCampaign(*w, o.settings.seed, o.mode, o.rounds);
    std::cout << toJson(rec) << std::endl;
    return 0;
}

int
runBenchmark(const Options &o, const std::string &exe)
{
    const RunSettings &s = o.settings;
    std::vector<WorkloadResult> results;
    bool ok = true;
    for (const Workload *w : o.workloads) {
        WorkloadRunner r(o, exe, *w);
        r.converge();
        r.timeCampaigns();
        r.replay();
        r.finish();
        ok = ok && r.result.ok();
        printTable(std::cout, r.result);
        results.push_back(std::move(r.result));
    }
    if (!o.out.empty()) {
        std::ofstream out(o.out);
        out << documentJson(s, results);
        if (!out.good()) {
            std::cerr << "e2e_bench: cannot write " << o.out << "\n";
            return 2;
        }
        std::cout << "wrote " << o.out << "\n";
    }
    for (const WorkloadResult &r : results)
        std::cout << resultLine(r, s.layers) << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Outputs stay where the benchmark puts them: no trace journal, round
    // traces or metrics files from the environment.
    unsetenv("FEDGPO_TRACE_OUT");
    unsetenv("FEDGPO_TRACE_DIR");
    unsetenv("FEDGPO_METRICS_FILE");

    Options o;
    std::string error;
    if (!parseArgs(argc, argv, o, error)) {
        std::cerr << "e2e_bench: " << error << "\n" << kUsage;
        return 2;
    }
    if (!o.child.empty())
        return runChild(o);
    if (!o.compare_base.empty())
        return compareDocuments(o.compare_base, o.compare_head,
                                "BENCHMARK.json");
    if (!o.manifest.empty() && !checkManifest(o.manifest, std::cerr))
        return 2;
    return runBenchmark(o, argv[0]);
}
