/**
 * @file
 * Process-wide kernel-mode switch.
 *
 * The tensor layer runs in one of two modes:
 *
 * - **Default (bit-exact)**: every GEMM output element folds its k terms
 *   in ascending-p order with separate mul/add — the invariant that keeps
 *   the round-level hexfloat goldens stable across kernel refactors.
 * - **Fast math** (`FEDGPO_FAST_MATH=1`): FMA-contracted microkernels
 *   with AVX2/AVX-512 runtime dispatch and pair/tree reduction orders.
 *   Results are only tolerance-exact (see tests/kernel_property_test.cc's
 *   error harness); round-level convergence must stay statistically
 *   indistinguishable.
 *
 * The environment variable is read exactly once (like FEDGPO_TRACE); the
 * per-call probe is one relaxed atomic load. setFastMath() overrides the
 * environment for tests and benchmarks.
 *
 * Neither mode threads inside a kernel: the tensor layer has no thread
 * pool, and every GEMM runs on its caller's thread. Parallelism lives in
 * the runtime layer (one client per worker), so results in either mode
 * do not depend on the thread count.
 */

#ifndef FEDGPO_TENSOR_KERNEL_MODE_H_
#define FEDGPO_TENSOR_KERNEL_MODE_H_

namespace fedgpo {
namespace tensor {

/**
 * True when fast-math kernels are requested (FEDGPO_FAST_MATH=1|on|true,
 * resolved once, or a setFastMath(true) override). Note the fast kernels
 * additionally require FMA-capable hardware; callers combine this with
 * the CPU probe (see fast::enabled() in gemm.h).
 */
bool fastMath();

/** Override the mode (tests/benches); wins over the environment. */
void setFastMath(bool on);

/**
 * Re-resolve the mode from the environment, discarding any override —
 * test-only, so env-parsing can be exercised after the first read.
 */
void resetFastMathFromEnvForTest();

} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_KERNEL_MODE_H_
