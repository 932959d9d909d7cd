#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace fedgpo {
namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Medians of each kernel's ms on the reference host, a 4-vCPU KVM guest
 * on an Intel Xeon (Sapphire Rapids) with gcc 12.2.0 and 3 GEMM
 * threads: 506 samples from ten benchmark runs of every workload.
 */
constexpr SpeedSample kReference = {56.8, 42.6, 13.9};

volatile std::uint64_t g_sink_u = 0;
volatile float g_sink_f = 0.0f;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

void
sortKeys()
{
    std::vector<std::uint32_t> keys(1u << 18);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t &k : keys)
        k = static_cast<std::uint32_t>(xorshift(x) >> 32);
    std::sort(keys.begin(), keys.end());
    g_sink_u = keys[keys.size() / 2];
}

constexpr std::uint32_t kMask = (1u << 24) - 1; // 2^24 x 4 B = 64 MiB

/** The walk's table, built on first use. */
const std::vector<std::uint32_t> &
walkTable()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(std::size_t{kMask} + 1);
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        for (std::uint32_t &v : t)
            v = static_cast<std::uint32_t>(xorshift(x) >> 32);
        return t;
    }();
    return table;
}

void
walk(const std::vector<std::uint32_t> &table)
{
    std::uint32_t i = 1;
    std::uint64_t sum = 0;
    for (std::uint32_t step = 0; step < (1u << 18); ++step) {
        // Each load's address depends on the previous load.
        i = table[(i ^ step) & kMask];
        sum += i;
    }
    g_sink_u = sum;
}

/** C[64x64] += A[64x128] B[128x64], 192 times, in a thread's own buffers. */
void
gemmBlock()
{
    constexpr int kM = 64, kK = 128, kN = 64;
    std::vector<float> a(kM * kK, 0.5f), b(kK * kN, 0.25f), c(kM * kN, 0.0f);
    for (int rep = 0; rep < 192; ++rep)
        for (int i = 0; i < kM; ++i)
            for (int k = 0; k < kK; ++k) {
                const float av = a[i * kK + k];
                for (int j = 0; j < kN; ++j)
                    c[i * kN + j] += av * b[k * kN + j];
            }
    g_sink_f = c[kN + 1];
}

} // namespace

SpeedSample
measureSpeed(std::size_t threads)
{
    SpeedSample s;
    Clock::time_point t0 = Clock::now();
    sortKeys();
    sortKeys();
    s.sort_ms = msSince(t0);

    const std::vector<std::uint32_t> &table = walkTable();
    t0 = Clock::now();
    walk(table);
    s.walk_ms = msSince(t0);

    t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t)
            pool.emplace_back(gemmBlock);
        for (std::thread &t : pool)
            t.join();
    }
    s.gemm_ms = msSince(t0);

    return s;
}

double
speedFactor(const SpeedSample &sample)
{
    const double logs = std::log(kReference.sort_ms / sample.sort_ms) +
                        std::log(kReference.walk_ms / sample.walk_ms) +
                        std::log(kReference.gemm_ms / sample.gemm_ms);
    return std::exp(logs / 3.0);
}

} // namespace e2e
} // namespace fedgpo
