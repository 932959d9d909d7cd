/**
 * @file
 * Host speed, measured with reference kernels that belong to the
 * benchmark alone.
 *
 * The benchmark's host runs beside other tenants, and its speed drifts:
 * the same campaign takes from 2.0 to 3.4 s within minutes. A slowdown
 * that lasts as long as a run shifts every campaign of the run alike, so
 * no median inside the run removes it. The benchmark therefore times
 * three small kernels of its own right before and right after every
 * timed campaign, and scales that campaign's host times to the reference
 * host's speed (ledger.h). The kernels use no simulator code, so a
 * change to the simulator cannot move them.
 */

#ifndef FEDGPO_BENCH_E2E_HOST_SPEED_H_
#define FEDGPO_BENCH_E2E_HOST_SPEED_H_

#include <cstddef>

namespace fedgpo {
namespace e2e {

/** Host ms of one pass of each reference kernel. */
struct SpeedSample
{
    double sort_ms = 0.0; //!< sort 2^18 keys twice: branchy scalar code
    double walk_ms = 0.0; //!< 2^18 dependent loads over 64 MiB: memory
    double gemm_ms = 0.0; //!< a float GEMM on every worker thread at once
};

/** Time one pass of each kernel; the GEMM runs on `threads` threads. */
SpeedSample measureSpeed(std::size_t threads);

/**
 * Speed of the host during a sample relative to the reference host: the
 * geometric mean over the kernels of reference ms / sampled ms. Above 1
 * the host ran faster than the reference.
 */
double speedFactor(const SpeedSample &sample);

} // namespace e2e
} // namespace fedgpo

#endif // FEDGPO_BENCH_E2E_HOST_SPEED_H_
