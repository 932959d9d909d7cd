/**
 * @file
 * Blocked, register-tiled single-precision GEMM microkernels.
 *
 * This is the internal engine behind the public tensor::matmul* entry
 * points in ops.h. It is exposed as its own header so the property suite
 * (tests/kernel_property_test.cc) can drive the blocked code directly on
 * adversarial shapes and compare it bit-exactly against the retained naive
 * kernels in reference.h.
 *
 * ## The reduction-order invariant
 *
 * For every output element C[i][j], the k multiply-add terms are folded in
 * ascending-p order into a single float accumulator chain, exactly like
 * the naive triple loop:
 *
 *     acc = start; acc += a(i,0)*b(0,j); acc += a(i,1)*b(1,j); ...
 *
 * where `start` is 0 (overwrite), the bias (never — bias is added after
 * the chain, see below), or the existing C value (accumulate). Blocking is
 * therefore restricted to transformations that cannot reorder a chain:
 * i/j tiles may be visited in any order (different elements), B may be
 * repacked into contiguous panels (pure data movement), and the k loop may
 * be split into ascending blocks whose partial chains round-trip through
 * the accumulator (same associativity). Lane-parallel SIMD across j is
 * fine — each lane is its own chain — but reductions across p lanes are
 * forbidden. This is what lets tests/round_golden_test.cc's hexfloat
 * goldens survive the kernel rebuild unchanged.
 *
 * There is no `a == 0` fast path: `0 * Inf` and `0 * NaN` must produce
 * NaN so a diverged client update cannot masquerade as finite (the round
 * pipeline's divergence rejection depends on it).
 *
 * Contraction breaks a chain too: an FMA rounds a*b+acc once where the
 * chain rounds the product and the sum separately. Every blocked tile
 * therefore issues a separate multiply and add. The compiler may fuse
 * such a pair, even between two intrinsics, inside any function whose
 * target includes FMA, which target("avx512f") does. So
 * src/tensor/CMakeLists.txt compiles gemm.cc with -ffp-contract=off, and
 * CI fails the build if a vfmadd/vfmsub instruction appears in a
 * blocked:: symbol of libfedgpo_tensor.a.
 *
 * ## Blocking scheme
 *
 * C is swept in register tiles along a ladder picked per call at run
 * time. On AVX-512 hosts, a GEMM with at least kMrWide = 8 rows and
 * kNrWide = 16 columns runs 8x16 interiors, one zmm accumulator per row.
 * Everything else, which is the row tail below those tiles, the column
 * remainder past the last whole 16-column strip, and every GEMM on a
 * host without AVX-512, runs 4x8 tiles (one ymm per row on AVX hosts,
 * autovectorized elsewhere) and scalar edges. Which tile computes an
 * element never changes its chain, so all rungs give identical bits.
 *
 * B is packed one column strip (16 or 8 columns wide) at a time into a
 * thread-local panel laid out p-major (bpack[p*w + jj]), so the
 * microkernel's inner loop reads one contiguous vector per p regardless
 * of the original B layout. The same packer serves B and B^T operands,
 * which is how matmulTransB shares the microkernel, and the fast::
 * kernels use it too. The A operand is read directly: its rows are
 * contiguous in p, so no packing is needed. The panel (k * 16 floats at
 * most) fits L1 for every shape the model zoo produces, so no further k
 * blocking is applied on this path.
 *
 * The A^T kernel (gemmTransA) has the opposite shape regime: k is the
 * large (batch*spatial) dimension and C is small. It keeps the naive
 * kernel's p-outer rank-1 structure, since both A and B rows are already
 * contiguous, runs the same tile ladder without packing, and adds
 * p-blocking (kKc) so A and B stream through cache once while C tiles
 * stay register- and L1-resident. Partial chains round-trip through C
 * between p-blocks, preserving the invariant.
 *
 * The blocked kernels are single-threaded by design: parallelism lives in
 * the runtime layer (one client per worker), which keeps results
 * independent of FEDGPO_THREADS.
 *
 * ## The fast-math mode (namespace fast)
 *
 * FEDGPO_FAST_MATH=1 (see kernel_mode.h) swaps the public matmul* entry
 * points onto the fast:: kernels below, which trade the reduction-order
 * invariant for throughput:
 *
 * - FMA contraction everywhere: a*b+acc is one rounding instead of two.
 * - Taller 8-row tiles with AVX2-FMA 8-wide strips, and AVX-512 16-wide
 *   strips where the column extent allows, both runtime-dispatched.
 * - The A^T kernel holds its C tile register-resident across the whole
 *   (large) k extent and folds each element through two interleaved
 *   even/odd-p accumulator chains combined pairwise at the end — a
 *   depth-2 tree reduction replacing the ascending-p fold.
 *
 * Results are tolerance-exact, not bit-exact, against the reference
 * kernels (see the error harness in tests/kernel_property_test.cc).
 * The non-finite contract is unchanged: no zero-skip, so 0 * Inf still
 * propagates NaN and divergence rejection keeps working. Like the
 * blocked kernels, every fast GEMM runs on its caller's thread, so fast
 * results do not depend on FEDGPO_THREADS either.
 */

#ifndef FEDGPO_TENSOR_GEMM_H_
#define FEDGPO_TENSOR_GEMM_H_

#include <cstddef>

namespace fedgpo {
namespace tensor {
namespace blocked {

/** Register tile height (rows of C per microkernel). */
constexpr std::size_t kMr = 4;
/** Register tile width (columns of C per microkernel); SIMD-friendly. */
constexpr std::size_t kNr = 8;
/** AVX-512 register tile height (rows of C, one zmm each). */
constexpr std::size_t kMrWide = 8;
/** AVX-512 register tile width (the 16 lanes of a zmm). */
constexpr std::size_t kNrWide = 16;
/** p-block extent for the A^T kernel's cache blocking. */
constexpr std::size_t kKc = 256;

/**
 * The widest register tile the blocked kernels run on this host:
 * "avx512" (8x16 interiors), "avx" (4x8) or "scalar". Probed once.
 */
const char *tileClass();

/**
 * General row-major GEMM: C = A * op(B) (+ bias), or C += A * op(B).
 *
 * A is [m, k] with leading dimension lda; op(B) is B [k, n] (ldb) when
 * trans_b is false, or B^T with B stored [n, k] (ldb) when true. C is
 * [m, n] with leading dimension ldc and must not alias A or B.
 *
 * @param accumulate  When true, each element's chain starts from the
 *                    existing C value (C += ...); bias must be null.
 * @param bias        Optional [n] vector added to every output row AFTER
 *                    the k-chain completes — bit-identical to a separate
 *                    bias-add pass, but fused into the store epilogue.
 */
void gemm(const float *a, std::size_t lda, const float *b, std::size_t ldb,
          bool trans_b, float *c, std::size_t ldc, std::size_t m,
          std::size_t n, std::size_t k, bool accumulate, const float *bias);

/**
 * C += A^T * B with A [k, m] (lda), B [k, n] (ldb), C [m, n] (ldc).
 * C must be initialized by the caller (the public entry zeroes it) and
 * must not alias A or B.
 */
void gemmTransA(const float *a, std::size_t lda, const float *b,
                std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
                std::size_t n, std::size_t k);

} // namespace blocked

namespace fast {

/** Row extent of the fast register tiles. */
constexpr std::size_t kFastMr = 8;
/** AVX2-FMA strip width. */
constexpr std::size_t kFastNr = 8;
/** AVX-512 strip width. */
constexpr std::size_t kFastNrWide = 16;

/**
 * True when the CPU can run the FMA tiles (x86-64 with AVX2+FMA);
 * probed once. On other hardware fast mode silently falls back to the
 * blocked kernels.
 */
bool available();

/** fastMath() requested AND the hardware supports it. */
bool enabled();

/**
 * Fast-mode twin of blocked::gemm — same contract, tolerance-exact
 * results.
 */
void gemm(const float *a, std::size_t lda, const float *b, std::size_t ldb,
          bool trans_b, float *c, std::size_t ldc, std::size_t m,
          std::size_t n, std::size_t k, bool accumulate, const float *bias);

/** Fast-mode twin of blocked::gemmTransA — same contract. */
void gemmTransA(const float *a, std::size_t lda, const float *b,
                std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
                std::size_t n, std::size_t k);

} // namespace fast

namespace detail {

/**
 * Consecutive panel acquisitions needing less than half the current
 * capacity before the thread-local packed-B panel shrinks to the
 * streak's high-water mark. Keeps steady-state campaigns allocation-free
 * (any recurring large shape resets the streak) while bounding carry-over
 * across campaigns with shrinking shapes.
 */
constexpr std::size_t kPanelShrinkStreak = 256;

/** Capacity (floats) of the calling thread's packed-B panel. */
std::size_t packPanelCapacity();

/** Test-only: drop the calling thread's packed-B panel entirely. */
void packPanelReset();

} // namespace detail
} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_GEMM_H_
