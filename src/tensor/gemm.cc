#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/kernel_mode.h"

// Vector microkernels: x86-64 builds get AVX and AVX-512 paths selected
// at runtime via per-function target attributes, so the baseline build
// stays plain SSE2 and other architectures compile the portable scalar
// tiles. The blocked:: vector tiles use separate mul/add intrinsics, so
// every lane is the same ascending-p add chain as the scalar code —
// bit-exact, just eight or sixteen lanes at a time. target("avx512f")
// includes the EVEX FMA instructions, and GCC's default
// -ffp-contract=fast would fuse those mul/add pairs into vfmadd231ps;
// src/tensor/CMakeLists.txt compiles this file with -ffp-contract=off so
// it cannot. The fast:: kernels at the bottom of this file opt into FMA
// explicitly through FMA intrinsics, which the flag leaves alone; they
// are only reachable through the FEDGPO_FAST_MATH dispatch in ops.cc.
#include "tensor/simd.h"

namespace fedgpo {
namespace tensor {

namespace detail {

namespace {

/**
 * Thread-local packed-B panel. Each thread packs into its own buffer, so
 * the kernels stay lock-free and concurrent GEMMs on different runtime
 * workers never share a panel. Growth is monotone within a campaign
 * (allocation-free once the largest shape has been seen) but not
 * unbounded across campaigns: after kPanelShrinkStreak consecutive
 * acquisitions that needed less than half the capacity, the panel
 * shrinks to that streak's high-water mark. Exactly half is not small:
 * a GEMM below 8 rows packs 8-column strips into half the panel its
 * 8x16-tile shape takes, and a batch that crosses 8 rows would
 * otherwise shrink and regrow the panel.
 */
struct PackPanel
{
    std::vector<float> buf;
    std::size_t streak = 0;      //!< consecutive small acquisitions
    std::size_t streak_need = 0; //!< high-water requirement of the streak

    float *acquire(std::size_t need)
    {
        if (need > buf.size()) {
            buf.resize(need);
            streak = 0;
            streak_need = 0;
            return buf.data();
        }
        if (2 * need < buf.size()) {
            streak_need = std::max(streak_need, need);
            if (++streak >= kPanelShrinkStreak) {
                buf.resize(streak_need);
                buf.shrink_to_fit();
                streak = 0;
                streak_need = 0;
            }
        } else {
            streak = 0;
            streak_need = 0;
        }
        return buf.data();
    }
};

thread_local PackPanel tl_panel;

} // namespace

float *
acquirePanel(std::size_t need)
{
    return tl_panel.acquire(need);
}

std::size_t
packPanelCapacity()
{
    return tl_panel.buf.capacity();
}

void
packPanelReset()
{
    tl_panel.buf.clear();
    tl_panel.buf.shrink_to_fit();
    tl_panel.streak = 0;
    tl_panel.streak_need = 0;
}

namespace {

/**
 * Pack the column strip B[0:k, j0:j0+nr] (or the rows of B^T playing that
 * role) into a p-major [k x w] panel, so a microkernel reads one
 * contiguous w-float vector per p whatever the layout of B. Tail strips
 * (nr < w) are zero-padded; the padded lanes are computed but never
 * stored. Pure data movement, shared by the blocked and fast kernels.
 *
 * Both layouts fill the panel one p row at a time, so its stores are
 * contiguous; the B^T copy gathers each row from nr rows of B^T.
 * Scattering each B^T row down a panel column instead, one store per
 * cache line, ran the m = 8 B^T GEMMs up to 1.4x slower. The width is a
 * compile-time constant as well: with a runtime panel stride, the
 * per-image conv_dw GEMMs (cols g^T) ran 1.5x slower.
 */
template <std::size_t w>
void
packPanel(const float *b, std::size_t ldb, bool trans_b, std::size_t k,
          std::size_t j0, std::size_t nr, float *bp)
{
    if (!trans_b) {
        for (std::size_t p = 0; p < k; ++p) {
            const float *src = b + p * ldb + j0;
            float *dst = bp + p * w;
            for (std::size_t jj = 0; jj < nr; ++jj)
                dst[jj] = src[jj];
            for (std::size_t jj = nr; jj < w; ++jj)
                dst[jj] = 0.0f;
        }
    } else {
        const float *src = b + j0 * ldb;
        for (std::size_t p = 0; p < k; ++p) {
            float *dst = bp + p * w;
            for (std::size_t jj = 0; jj < nr; ++jj)
                dst[jj] = src[jj * ldb + p];
            for (std::size_t jj = nr; jj < w; ++jj)
                dst[jj] = 0.0f;
        }
    }
}

/** packPanel at either of the kernels' panel widths, 8 or 16. */
void
packB(const float *b, std::size_t ldb, bool trans_b, std::size_t k,
      std::size_t j0, std::size_t nr, std::size_t w, float *bp)
{
    if (w == 16)
        packPanel<16>(b, ldb, trans_b, k, j0, nr, bp);
    else
        packPanel<8>(b, ldb, trans_b, k, j0, nr, bp);
}

#if FEDGPO_X86_SIMD

/** True when the CPU can run the AVX tiles; probed once. */
bool
haveAvx()
{
    static const bool have = __builtin_cpu_supports("avx");
    return have;
}

#else

constexpr bool
haveAvx()
{
    return false;
}

#endif // FEDGPO_X86_SIMD

} // namespace

} // namespace detail

namespace blocked {

namespace {

using detail::acquirePanel;
using detail::haveAvx;
using detail::packB;

/**
 * Full kMr x kNr register tile over a panel of row stride ldbp: each
 * acc[ii][jj] is one ascending-p chain; the jj loop is lane-parallel and
 * autovectorizes.
 */
template <bool Accum>
void
microFull(const float *__restrict a, std::size_t lda,
          const float *__restrict bp, std::size_t ldbp,
          float *__restrict c, std::size_t ldc, std::size_t k,
          const float *__restrict bias)
{
    float acc[kMr][kNr];
    for (std::size_t ii = 0; ii < kMr; ++ii)
        for (std::size_t jj = 0; jj < kNr; ++jj)
            acc[ii][jj] = Accum ? c[ii * ldc + jj] : 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
        const float *__restrict bv = bp + p * ldbp;
        for (std::size_t ii = 0; ii < kMr; ++ii) {
            const float av = a[ii * lda + p];
            for (std::size_t jj = 0; jj < kNr; ++jj)
                acc[ii][jj] += av * bv[jj];
        }
    }
    if (bias != nullptr)
        for (std::size_t ii = 0; ii < kMr; ++ii)
            for (std::size_t jj = 0; jj < kNr; ++jj)
                acc[ii][jj] += bias[jj];
    for (std::size_t ii = 0; ii < kMr; ++ii)
        for (std::size_t jj = 0; jj < kNr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

/** Edge tile: mr <= kMr rows and/or nr <= kNr columns. */
template <bool Accum>
void
microEdge(const float *__restrict a, std::size_t lda,
          const float *__restrict bp, std::size_t ldbp,
          float *__restrict c, std::size_t ldc, std::size_t k,
          std::size_t mr, std::size_t nr, const float *__restrict bias)
{
    float acc[kMr][kNr];
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            acc[ii][jj] = Accum ? c[ii * ldc + jj] : 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
        const float *__restrict bv = bp + p * ldbp;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const float av = a[ii * lda + p];
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += av * bv[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] =
                bias != nullptr ? acc[ii][jj] + bias[jj] : acc[ii][jj];
}

#if FEDGPO_X86_SIMD

/**
 * AVX full tile: one 8-lane accumulator per row, held in registers for
 * the whole k loop (the autovectorized scalar tile round-trips the
 * accumulators through the stack every p step, which caps it at memory
 * latency). Lane jj of acc{ii} is exactly the scalar chain for
 * C[i0+ii][j0+jj].
 */
__attribute__((target("avx"))) void
microFullAvx(const float *__restrict a, std::size_t lda,
             const float *__restrict bp, std::size_t ldbp,
             float *__restrict c, std::size_t ldc, std::size_t k,
             const float *__restrict bias, bool accumulate)
{
    static_assert(kMr == 4 && kNr == 8,
                  "AVX tile is written for 4x8 registers");
    __m256 acc0, acc1, acc2, acc3;
    if (accumulate) {
        acc0 = _mm256_loadu_ps(c);
        acc1 = _mm256_loadu_ps(c + ldc);
        acc2 = _mm256_loadu_ps(c + 2 * ldc);
        acc3 = _mm256_loadu_ps(c + 3 * ldc);
    } else {
        acc0 = acc1 = acc2 = acc3 = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(bp + p * ldbp);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(_mm256_broadcast_ss(a + p), bv));
        acc1 = _mm256_add_ps(
            acc1, _mm256_mul_ps(_mm256_broadcast_ss(a + lda + p), bv));
        acc2 = _mm256_add_ps(
            acc2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2 * lda + p), bv));
        acc3 = _mm256_add_ps(
            acc3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3 * lda + p), bv));
    }
    if (bias != nullptr) {
        const __m256 bb = _mm256_loadu_ps(bias);
        acc0 = _mm256_add_ps(acc0, bb);
        acc1 = _mm256_add_ps(acc1, bb);
        acc2 = _mm256_add_ps(acc2, bb);
        acc3 = _mm256_add_ps(acc3, bb);
    }
    _mm256_storeu_ps(c, acc0);
    _mm256_storeu_ps(c + ldc, acc1);
    _mm256_storeu_ps(c + 2 * ldc, acc2);
    _mm256_storeu_ps(c + 3 * ldc, acc3);
}

/**
 * AVX-512 full tile: 8 rows x 16 columns, one zmm accumulator per row
 * held for the whole k loop. Eight independent chains per p step (twice
 * the AVX tile's) hide the add latency, and each lane is still exactly
 * the scalar chain: a separate multiply and add per p, the bias after
 * the chain.
 */
__attribute__((target("avx512f"))) void
microFullAvx512(const float *__restrict a, std::size_t lda,
                const float *__restrict bp, float *__restrict c,
                std::size_t ldc, std::size_t k,
                const float *__restrict bias, bool accumulate)
{
    static_assert(kMrWide == 8 && kNrWide == 16,
                  "AVX-512 tile is written for 8x16 registers");
    __m512 acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7;
    if (accumulate) {
        acc0 = _mm512_loadu_ps(c);
        acc1 = _mm512_loadu_ps(c + ldc);
        acc2 = _mm512_loadu_ps(c + 2 * ldc);
        acc3 = _mm512_loadu_ps(c + 3 * ldc);
        acc4 = _mm512_loadu_ps(c + 4 * ldc);
        acc5 = _mm512_loadu_ps(c + 5 * ldc);
        acc6 = _mm512_loadu_ps(c + 6 * ldc);
        acc7 = _mm512_loadu_ps(c + 7 * ldc);
    } else {
        acc0 = acc1 = acc2 = acc3 = acc4 = acc5 = acc6 = acc7 =
            _mm512_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const __m512 bv = _mm512_loadu_ps(bp + p * kNrWide);
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a[p]), bv));
        acc1 = _mm512_add_ps(
            acc1, _mm512_mul_ps(_mm512_set1_ps(a[lda + p]), bv));
        acc2 = _mm512_add_ps(
            acc2, _mm512_mul_ps(_mm512_set1_ps(a[2 * lda + p]), bv));
        acc3 = _mm512_add_ps(
            acc3, _mm512_mul_ps(_mm512_set1_ps(a[3 * lda + p]), bv));
        acc4 = _mm512_add_ps(
            acc4, _mm512_mul_ps(_mm512_set1_ps(a[4 * lda + p]), bv));
        acc5 = _mm512_add_ps(
            acc5, _mm512_mul_ps(_mm512_set1_ps(a[5 * lda + p]), bv));
        acc6 = _mm512_add_ps(
            acc6, _mm512_mul_ps(_mm512_set1_ps(a[6 * lda + p]), bv));
        acc7 = _mm512_add_ps(
            acc7, _mm512_mul_ps(_mm512_set1_ps(a[7 * lda + p]), bv));
    }
    if (bias != nullptr) {
        const __m512 bb = _mm512_loadu_ps(bias);
        acc0 = _mm512_add_ps(acc0, bb);
        acc1 = _mm512_add_ps(acc1, bb);
        acc2 = _mm512_add_ps(acc2, bb);
        acc3 = _mm512_add_ps(acc3, bb);
        acc4 = _mm512_add_ps(acc4, bb);
        acc5 = _mm512_add_ps(acc5, bb);
        acc6 = _mm512_add_ps(acc6, bb);
        acc7 = _mm512_add_ps(acc7, bb);
    }
    _mm512_storeu_ps(c, acc0);
    _mm512_storeu_ps(c + ldc, acc1);
    _mm512_storeu_ps(c + 2 * ldc, acc2);
    _mm512_storeu_ps(c + 3 * ldc, acc3);
    _mm512_storeu_ps(c + 4 * ldc, acc4);
    _mm512_storeu_ps(c + 5 * ldc, acc5);
    _mm512_storeu_ps(c + 6 * ldc, acc6);
    _mm512_storeu_ps(c + 7 * ldc, acc7);
}

/** AVX interior tile for the A^T kernel; always extends the chains in C. */
__attribute__((target("avx"))) void
microTransAFullAvx(const float *__restrict a, std::size_t lda,
                   const float *__restrict b, std::size_t ldb,
                   float *__restrict c, std::size_t ldc, std::size_t kp)
{
    __m256 acc0 = _mm256_loadu_ps(c);
    __m256 acc1 = _mm256_loadu_ps(c + ldc);
    __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc);
    __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc);
    for (std::size_t p = 0; p < kp; ++p) {
        const float *ar = a + p * lda;
        const __m256 bv = _mm256_loadu_ps(b + p * ldb);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(_mm256_broadcast_ss(ar), bv));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(_mm256_broadcast_ss(ar + 1), bv));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(_mm256_broadcast_ss(ar + 2), bv));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(_mm256_broadcast_ss(ar + 3), bv));
    }
    _mm256_storeu_ps(c, acc0);
    _mm256_storeu_ps(c + ldc, acc1);
    _mm256_storeu_ps(c + 2 * ldc, acc2);
    _mm256_storeu_ps(c + 3 * ldc, acc3);
}

/**
 * AVX-512 interior tile for the A^T kernel: 8 rows x 16 columns in zmm,
 * extending the chains in C over one kKc block like the AVX tile.
 */
__attribute__((target("avx512f"))) void
microTransAFullAvx512(const float *__restrict a, std::size_t lda,
                      const float *__restrict b, std::size_t ldb,
                      float *__restrict c, std::size_t ldc, std::size_t kp)
{
    __m512 acc0 = _mm512_loadu_ps(c);
    __m512 acc1 = _mm512_loadu_ps(c + ldc);
    __m512 acc2 = _mm512_loadu_ps(c + 2 * ldc);
    __m512 acc3 = _mm512_loadu_ps(c + 3 * ldc);
    __m512 acc4 = _mm512_loadu_ps(c + 4 * ldc);
    __m512 acc5 = _mm512_loadu_ps(c + 5 * ldc);
    __m512 acc6 = _mm512_loadu_ps(c + 6 * ldc);
    __m512 acc7 = _mm512_loadu_ps(c + 7 * ldc);
    for (std::size_t p = 0; p < kp; ++p) {
        const float *ar = a + p * lda;
        const __m512 bv = _mm512_loadu_ps(b + p * ldb);
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(ar[0]), bv));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(ar[1]), bv));
        acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(ar[2]), bv));
        acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(ar[3]), bv));
        acc4 = _mm512_add_ps(acc4, _mm512_mul_ps(_mm512_set1_ps(ar[4]), bv));
        acc5 = _mm512_add_ps(acc5, _mm512_mul_ps(_mm512_set1_ps(ar[5]), bv));
        acc6 = _mm512_add_ps(acc6, _mm512_mul_ps(_mm512_set1_ps(ar[6]), bv));
        acc7 = _mm512_add_ps(acc7, _mm512_mul_ps(_mm512_set1_ps(ar[7]), bv));
    }
    _mm512_storeu_ps(c, acc0);
    _mm512_storeu_ps(c + ldc, acc1);
    _mm512_storeu_ps(c + 2 * ldc, acc2);
    _mm512_storeu_ps(c + 3 * ldc, acc3);
    _mm512_storeu_ps(c + 4 * ldc, acc4);
    _mm512_storeu_ps(c + 5 * ldc, acc5);
    _mm512_storeu_ps(c + 6 * ldc, acc6);
    _mm512_storeu_ps(c + 7 * ldc, acc7);
}

#else

void
microFullAvx(const float *, std::size_t, const float *, std::size_t,
             float *, std::size_t, std::size_t, const float *, bool)
{
}

void
microFullAvx512(const float *, std::size_t, const float *, float *,
                std::size_t, std::size_t, const float *, bool)
{
}

void
microTransAFullAvx(const float *, std::size_t, const float *, std::size_t,
                   float *, std::size_t, std::size_t)
{
}

void
microTransAFullAvx512(const float *, std::size_t, const float *,
                      std::size_t, float *, std::size_t, std::size_t)
{
}

#endif // FEDGPO_X86_SIMD

/**
 * True when a GEMM with m rows and n columns runs the 8x16 tile: it
 * needs AVX-512 and at least one whole tile.
 */
bool
useWideTiles(std::size_t m, std::size_t n)
{
    return haveAvx512f() && m >= kMrWide && n >= kNrWide;
}

/**
 * Rows [i0, m) of one <= kNr-column slice of a packed strip, in 4x8
 * tiles (AVX or autovectorized) and scalar edges. Serves the whole of an
 * 8-wide strip and the row tail below a 16-wide strip's 8x16 tiles.
 */
template <bool Accum>
void
rowTiles(const float *a, std::size_t lda, const float *bp, std::size_t ldbp,
         float *c, std::size_t ldc, std::size_t i0, std::size_t m,
         std::size_t k, std::size_t nr, const float *bias, bool avx)
{
    if (nr == kNr) {
        if (avx)
            for (; i0 + kMr <= m; i0 += kMr)
                microFullAvx(a + i0 * lda, lda, bp, ldbp, c + i0 * ldc, ldc,
                             k, bias, Accum);
        else
            for (; i0 + kMr <= m; i0 += kMr)
                microFull<Accum>(a + i0 * lda, lda, bp, ldbp, c + i0 * ldc,
                                 ldc, k, bias);
    }
    for (; i0 < m; i0 += kMr) {
        const std::size_t mr = m - i0 < kMr ? m - i0 : kMr;
        microEdge<Accum>(a + i0 * lda, lda, bp, ldbp, c + i0 * ldc, ldc, k,
                         mr, nr, bias);
    }
}

template <bool Accum>
void
gemmImpl(const float *a, std::size_t lda, const float *b, std::size_t ldb,
         bool trans_b, float *c, std::size_t ldc, std::size_t m,
         std::size_t n, std::size_t k, const float *bias)
{
    const bool avx = haveAvx();
    const bool wide = useWideTiles(m, n);
    float *bp = acquirePanel(k * (wide ? kNrWide : kNr));
    for (std::size_t j0 = 0; j0 < n;) {
        const std::size_t w = wide && n - j0 >= kNrWide ? kNrWide : kNr;
        const std::size_t nr = n - j0 < w ? n - j0 : w;
        packB(b, ldb, trans_b, k, j0, nr, w, bp);
        const float *bias_j = bias != nullptr ? bias + j0 : nullptr;
        std::size_t i0 = 0;
        if (w == kNrWide)
            for (; i0 + kMrWide <= m; i0 += kMrWide)
                microFullAvx512(a + i0 * lda, lda, bp, c + i0 * ldc + j0,
                                ldc, k, bias_j, Accum);
        // The remaining rows, one 8-column half of the panel at a time.
        for (std::size_t h = 0; h < nr; h += kNr)
            rowTiles<Accum>(a, lda, bp + h, w, c + j0 + h, ldc, i0, m, k,
                            nr - h < kNr ? nr - h : kNr,
                            bias_j != nullptr ? bias_j + h : nullptr, avx);
        j0 += nr;
    }
}

/**
 * Rank-1-structured tile for the A^T kernel: for each p, a[ii] lanes and
 * b[jj] lanes are both contiguous loads. Chains round-trip through C so
 * ascending p-blocks extend them in order.
 */
void
microTransA(const float *__restrict a, std::size_t lda,
            const float *__restrict b, std::size_t ldb,
            float *__restrict c, std::size_t ldc, std::size_t kp,
            std::size_t mr, std::size_t nr)
{
    float acc[kMr][kNr];
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            acc[ii][jj] = c[ii * ldc + jj];
    for (std::size_t p = 0; p < kp; ++p) {
        const float *__restrict ar = a + p * lda;
        const float *__restrict br = b + p * ldb;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const float av = ar[ii];
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += av * br[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

/** Fully-unrolled variant for interior tiles (compile-time extents). */
void
microTransAFull(const float *__restrict a, std::size_t lda,
                const float *__restrict b, std::size_t ldb,
                float *__restrict c, std::size_t ldc, std::size_t kp)
{
    float acc[kMr][kNr];
    for (std::size_t ii = 0; ii < kMr; ++ii)
        for (std::size_t jj = 0; jj < kNr; ++jj)
            acc[ii][jj] = c[ii * ldc + jj];
    for (std::size_t p = 0; p < kp; ++p) {
        const float *__restrict ar = a + p * lda;
        const float *__restrict br = b + p * ldb;
        for (std::size_t ii = 0; ii < kMr; ++ii) {
            const float av = ar[ii];
            for (std::size_t jj = 0; jj < kNr; ++jj)
                acc[ii][jj] += av * br[jj];
        }
    }
    for (std::size_t ii = 0; ii < kMr; ++ii)
        for (std::size_t jj = 0; jj < kNr; ++jj)
            c[ii * ldc + jj] = acc[ii][jj];
}

/** The A^T twin of rowTiles, over one kKc block. */
void
rowTilesTransA(const float *a, std::size_t lda, const float *b,
               std::size_t ldb, float *c, std::size_t ldc, std::size_t i0,
               std::size_t m, std::size_t kp, std::size_t nr, bool avx)
{
    if (nr == kNr) {
        if (avx)
            for (; i0 + kMr <= m; i0 += kMr)
                microTransAFullAvx(a + i0, lda, b, ldb, c + i0 * ldc, ldc,
                                   kp);
        else
            for (; i0 + kMr <= m; i0 += kMr)
                microTransAFull(a + i0, lda, b, ldb, c + i0 * ldc, ldc, kp);
    }
    for (; i0 < m; i0 += kMr) {
        const std::size_t mr = m - i0 < kMr ? m - i0 : kMr;
        microTransA(a + i0, lda, b, ldb, c + i0 * ldc, ldc, kp, mr, nr);
    }
}

} // namespace

const char *
tileClass()
{
    return haveAvx512f() ? "avx512" : haveAvx() ? "avx" : "scalar";
}

void
gemm(const float *a, std::size_t lda, const float *b, std::size_t ldb,
     bool trans_b, float *c, std::size_t ldc, std::size_t m, std::size_t n,
     std::size_t k, bool accumulate, const float *bias)
{
    if (m == 0 || n == 0)
        return;
    if (accumulate)
        gemmImpl<true>(a, lda, b, ldb, trans_b, c, ldc, m, n, k, bias);
    else
        gemmImpl<false>(a, lda, b, ldb, trans_b, c, ldc, m, n, k, bias);
}

void
gemmTransA(const float *a, std::size_t lda, const float *b, std::size_t ldb,
           float *c, std::size_t ldc, std::size_t m, std::size_t n,
           std::size_t k)
{
    const bool avx = haveAvx();
    const bool wide = useWideTiles(m, n);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
        const std::size_t kp = k - p0 < kKc ? k - p0 : kKc;
        const float *ap = a + p0 * lda;
        const float *bp = b + p0 * ldb;
        for (std::size_t j0 = 0; j0 < n;) {
            const std::size_t w = wide && n - j0 >= kNrWide ? kNrWide : kNr;
            const std::size_t nr = n - j0 < w ? n - j0 : w;
            std::size_t i0 = 0;
            if (w == kNrWide)
                for (; i0 + kMrWide <= m; i0 += kMrWide)
                    microTransAFullAvx512(ap + i0, lda, bp + j0, ldb,
                                          c + i0 * ldc + j0, ldc, kp);
            for (std::size_t h = 0; h < nr; h += kNr)
                rowTilesTransA(ap, lda, bp + j0 + h, ldb, c + j0 + h, ldc,
                               i0, m, kp, nr - h < kNr ? nr - h : kNr, avx);
            j0 += nr;
        }
    }
}

} // namespace blocked

namespace fast {

namespace {

using detail::acquirePanel;
using detail::packB;

#if FEDGPO_X86_SIMD

/** True when the FMA tiles can run; probed once. */
bool
haveFma()
{
    static const bool have =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return have;
}

/** True when EVEX-encoded ymm tiles (32 registers) can run. */
bool
haveAvx512Vl()
{
    static const bool have =
        __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("fma");
    return have;
}

/**
 * FMA full tile: 8 rows x 8 columns, one ymm accumulator per row held in
 * registers for the whole k loop. Eight independent FMA chains are
 * enough to hide FMA latency; each element is still an ascending-p fold,
 * but contracted (one rounding per term instead of two).
 */
__attribute__((target("avx2,fma"))) void
microFma8x8(const float *__restrict a, std::size_t lda,
            const float *__restrict bp, float *__restrict c,
            std::size_t ldc, std::size_t k, const float *__restrict bias,
            bool accumulate)
{
    __m256 acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7;
    if (accumulate) {
        acc0 = _mm256_loadu_ps(c);
        acc1 = _mm256_loadu_ps(c + ldc);
        acc2 = _mm256_loadu_ps(c + 2 * ldc);
        acc3 = _mm256_loadu_ps(c + 3 * ldc);
        acc4 = _mm256_loadu_ps(c + 4 * ldc);
        acc5 = _mm256_loadu_ps(c + 5 * ldc);
        acc6 = _mm256_loadu_ps(c + 6 * ldc);
        acc7 = _mm256_loadu_ps(c + 7 * ldc);
    } else {
        acc0 = acc1 = acc2 = acc3 = acc4 = acc5 = acc6 = acc7 =
            _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(bp + p * kFastNr);
        acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + p), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + lda + p), bv, acc1);
        acc2 =
            _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2 * lda + p), bv, acc2);
        acc3 =
            _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3 * lda + p), bv, acc3);
        acc4 =
            _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4 * lda + p), bv, acc4);
        acc5 =
            _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5 * lda + p), bv, acc5);
        acc6 =
            _mm256_fmadd_ps(_mm256_broadcast_ss(a + 6 * lda + p), bv, acc6);
        acc7 =
            _mm256_fmadd_ps(_mm256_broadcast_ss(a + 7 * lda + p), bv, acc7);
    }
    if (bias != nullptr) {
        const __m256 bb = _mm256_loadu_ps(bias);
        acc0 = _mm256_add_ps(acc0, bb);
        acc1 = _mm256_add_ps(acc1, bb);
        acc2 = _mm256_add_ps(acc2, bb);
        acc3 = _mm256_add_ps(acc3, bb);
        acc4 = _mm256_add_ps(acc4, bb);
        acc5 = _mm256_add_ps(acc5, bb);
        acc6 = _mm256_add_ps(acc6, bb);
        acc7 = _mm256_add_ps(acc7, bb);
    }
    _mm256_storeu_ps(c, acc0);
    _mm256_storeu_ps(c + ldc, acc1);
    _mm256_storeu_ps(c + 2 * ldc, acc2);
    _mm256_storeu_ps(c + 3 * ldc, acc3);
    _mm256_storeu_ps(c + 4 * ldc, acc4);
    _mm256_storeu_ps(c + 5 * ldc, acc5);
    _mm256_storeu_ps(c + 6 * ldc, acc6);
    _mm256_storeu_ps(c + 7 * ldc, acc7);
}

/**
 * AVX-512 full tile: 8 rows x 16 columns, one zmm accumulator per row.
 * Twice the FLOPs of the 8x8 tile for the same loop overhead; used while
 * the remaining column extent is at least 16.
 */
__attribute__((target("avx512f"))) void
microFma8x16(const float *__restrict a, std::size_t lda,
             const float *__restrict bp, float *__restrict c,
             std::size_t ldc, std::size_t k, const float *__restrict bias,
             bool accumulate)
{
    __m512 acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7;
    if (accumulate) {
        acc0 = _mm512_loadu_ps(c);
        acc1 = _mm512_loadu_ps(c + ldc);
        acc2 = _mm512_loadu_ps(c + 2 * ldc);
        acc3 = _mm512_loadu_ps(c + 3 * ldc);
        acc4 = _mm512_loadu_ps(c + 4 * ldc);
        acc5 = _mm512_loadu_ps(c + 5 * ldc);
        acc6 = _mm512_loadu_ps(c + 6 * ldc);
        acc7 = _mm512_loadu_ps(c + 7 * ldc);
    } else {
        acc0 = acc1 = acc2 = acc3 = acc4 = acc5 = acc6 = acc7 =
            _mm512_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const __m512 bv = _mm512_loadu_ps(bp + p * kFastNrWide);
        acc0 = _mm512_fmadd_ps(_mm512_set1_ps(a[p]), bv, acc0);
        acc1 = _mm512_fmadd_ps(_mm512_set1_ps(a[lda + p]), bv, acc1);
        acc2 = _mm512_fmadd_ps(_mm512_set1_ps(a[2 * lda + p]), bv, acc2);
        acc3 = _mm512_fmadd_ps(_mm512_set1_ps(a[3 * lda + p]), bv, acc3);
        acc4 = _mm512_fmadd_ps(_mm512_set1_ps(a[4 * lda + p]), bv, acc4);
        acc5 = _mm512_fmadd_ps(_mm512_set1_ps(a[5 * lda + p]), bv, acc5);
        acc6 = _mm512_fmadd_ps(_mm512_set1_ps(a[6 * lda + p]), bv, acc6);
        acc7 = _mm512_fmadd_ps(_mm512_set1_ps(a[7 * lda + p]), bv, acc7);
    }
    if (bias != nullptr) {
        const __m512 bb = _mm512_loadu_ps(bias);
        acc0 = _mm512_add_ps(acc0, bb);
        acc1 = _mm512_add_ps(acc1, bb);
        acc2 = _mm512_add_ps(acc2, bb);
        acc3 = _mm512_add_ps(acc3, bb);
        acc4 = _mm512_add_ps(acc4, bb);
        acc5 = _mm512_add_ps(acc5, bb);
        acc6 = _mm512_add_ps(acc6, bb);
        acc7 = _mm512_add_ps(acc7, bb);
    }
    _mm512_storeu_ps(c, acc0);
    _mm512_storeu_ps(c + ldc, acc1);
    _mm512_storeu_ps(c + 2 * ldc, acc2);
    _mm512_storeu_ps(c + 3 * ldc, acc3);
    _mm512_storeu_ps(c + 4 * ldc, acc4);
    _mm512_storeu_ps(c + 5 * ldc, acc5);
    _mm512_storeu_ps(c + 6 * ldc, acc6);
    _mm512_storeu_ps(c + 7 * ldc, acc7);
}

/**
 * Interleaved pack for the p-paired 8-column kernel: each depth pair
 * (p, p+1) becomes 16 consecutive floats [b_p[0], b_p1[0], b_p[1],
 * b_p1[1], ...]. An odd tail depth packs with zeros in the odd phase;
 * the kernel masks the matching A lanes to zero as well, so the padding
 * contributes exact 0*0 terms and can never fabricate a 0*Inf NaN.
 */
void
packBPairs(const float *b, std::size_t ldb, bool trans_b, std::size_t k,
           std::size_t j0, float *bp)
{
    std::size_t p = 0;
    for (; p + 2 <= k; p += 2, bp += 2 * kFastNr) {
        if (!trans_b) {
            const float *s0 = b + p * ldb + j0;
            const float *s1 = s0 + ldb;
            for (std::size_t jj = 0; jj < kFastNr; ++jj) {
                bp[2 * jj] = s0[jj];
                bp[2 * jj + 1] = s1[jj];
            }
        } else {
            for (std::size_t jj = 0; jj < kFastNr; ++jj) {
                const float *src = b + (j0 + jj) * ldb + p;
                bp[2 * jj] = src[0];
                bp[2 * jj + 1] = src[1];
            }
        }
    }
    if (p < k) {
        for (std::size_t jj = 0; jj < kFastNr; ++jj) {
            bp[2 * jj] =
                trans_b ? b[(j0 + jj) * ldb + p] : b[p * ldb + j0 + jj];
            bp[2 * jj + 1] = 0.0f;
        }
    }
}

/** Broadcast the depth pair {q[0], q[1]} across a zmm as 8 x [q0, q1]. */
__attribute__((target("avx512f"), always_inline)) static inline __m512
broadcastPair(const float *q)
{
    double d;
    __builtin_memcpy(&d, q, sizeof d);
    return _mm512_castpd_ps(_mm512_set1_pd(d));
}

/**
 * AVX-512 p-paired tile for 8-column strips: 8 rows, one zmm per row
 * whose 16 lanes hold the even-p and odd-p partial sums of the row's 8
 * outputs, interleaved. Each depth pair costs one zmm B load plus one
 * 8-byte A broadcast per row — half the load traffic per FLOP of the
 * 8x8 ymm tile, which is load-port-bound. The fold is a depth-2 tree
 * (even chain + odd chain, combined once at the end), the same shape as
 * the fast transA kernels.
 */
__attribute__((target("avx512f"))) void
microFmaPair8x8(const float *__restrict a, std::size_t lda,
                const float *__restrict bp, float *__restrict c,
                std::size_t ldc, std::size_t k,
                const float *__restrict bias, bool accumulate)
{
    __m512 acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7;
    acc0 = acc1 = acc2 = acc3 = acc4 = acc5 = acc6 = acc7 =
        _mm512_setzero_ps();
    std::size_t p = 0;
    for (; p + 2 <= k; p += 2, bp += 2 * kFastNr) {
        const __m512 bv = _mm512_loadu_ps(bp);
        acc0 = _mm512_fmadd_ps(broadcastPair(a + p), bv, acc0);
        acc1 = _mm512_fmadd_ps(broadcastPair(a + lda + p), bv, acc1);
        acc2 = _mm512_fmadd_ps(broadcastPair(a + 2 * lda + p), bv, acc2);
        acc3 = _mm512_fmadd_ps(broadcastPair(a + 3 * lda + p), bv, acc3);
        acc4 = _mm512_fmadd_ps(broadcastPair(a + 4 * lda + p), bv, acc4);
        acc5 = _mm512_fmadd_ps(broadcastPair(a + 5 * lda + p), bv, acc5);
        acc6 = _mm512_fmadd_ps(broadcastPair(a + 6 * lda + p), bv, acc6);
        acc7 = _mm512_fmadd_ps(broadcastPair(a + 7 * lda + p), bv, acc7);
    }
    if (p < k) {
        // Odd tail: the panel's odd phase is zero-padded; mask the A
        // broadcast to the even lanes so the padding multiplies 0*0.
        const __mmask16 even = 0x5555;
        const __m512 bv = _mm512_loadu_ps(bp);
        acc0 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[p])), bv, acc0);
        acc1 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[lda + p])), bv,
            acc1);
        acc2 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[2 * lda + p])), bv,
            acc2);
        acc3 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[3 * lda + p])), bv,
            acc3);
        acc4 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[4 * lda + p])), bv,
            acc4);
        acc5 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[5 * lda + p])), bv,
            acc5);
        acc6 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[6 * lda + p])), bv,
            acc6);
        acc7 = _mm512_fmadd_ps(
            _mm512_maskz_mov_ps(even, _mm512_set1_ps(a[7 * lda + p])), bv,
            acc7);
    }
    // Fold even+odd phases (lane 2j + lane 2j+1), compress the sums to
    // the low ymm, then apply bias and the accumulate base. The order is
    // c_old + ((even + odd) + bias), documented in gemm.h.
    const __m512i idx =
        _mm512_set_epi32(0, 0, 0, 0, 0, 0, 0, 0, 14, 12, 10, 8, 6, 4, 2, 0);
    const __m256 bb =
        bias != nullptr ? _mm256_loadu_ps(bias) : _mm256_setzero_ps();
    float *cr = c;
    const __m512 accs[8] = {acc0, acc1, acc2, acc3,
                            acc4, acc5, acc6, acc7};
    for (std::size_t ii = 0; ii < kFastMr; ++ii, cr += ldc) {
        const __m512 sum =
            _mm512_add_ps(accs[ii], _mm512_permute_ps(accs[ii], 0xB1));
        __m256 r = _mm512_castps512_ps256(_mm512_permutexvar_ps(idx, sum));
        if (bias != nullptr)
            r = _mm256_add_ps(r, bb);
        if (accumulate)
            r = _mm256_add_ps(_mm256_loadu_ps(cr), r);
        _mm256_storeu_ps(cr, r);
    }
}

/**
 * FMA A^T tile: 4 rows x 8 columns with C register-resident over the
 * WHOLE k extent (no kKc round-trips) and two interleaved accumulator
 * sets — even p terms fold into one chain, odd p terms into another,
 * combined pairwise at the end. The depth-2 tree halves the length of
 * each dependent chain, which matters here because k is the large
 * (batch*spatial) dimension.
 */
__attribute__((target("avx2,fma"))) void
microTransAFma(const float *__restrict a, std::size_t lda,
               const float *__restrict b, std::size_t ldb,
               float *__restrict c, std::size_t ldc, std::size_t k)
{
    __m256 e0, e1, e2, e3, o0, o1, o2, o3;
    e0 = e1 = e2 = e3 = o0 = o1 = o2 = o3 = _mm256_setzero_ps();
    std::size_t p = 0;
    for (; p + 2 <= k; p += 2) {
        const float *ar0 = a + p * lda;
        const float *ar1 = ar0 + lda;
        const __m256 bv0 = _mm256_loadu_ps(b + p * ldb);
        const __m256 bv1 = _mm256_loadu_ps(b + (p + 1) * ldb);
        e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0), bv0, e0);
        o0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1), bv1, o0);
        e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 1), bv0, e1);
        o1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 1), bv1, o1);
        e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 2), bv0, e2);
        o2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 2), bv1, o2);
        e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 3), bv0, e3);
        o3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 3), bv1, o3);
    }
    if (p < k) {
        const float *ar = a + p * lda;
        const __m256 bv = _mm256_loadu_ps(b + p * ldb);
        e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar), bv, e0);
        e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 1), bv, e1);
        e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 2), bv, e2);
        e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 3), bv, e3);
    }
    _mm256_storeu_ps(
        c, _mm256_add_ps(_mm256_loadu_ps(c), _mm256_add_ps(e0, o0)));
    _mm256_storeu_ps(c + ldc, _mm256_add_ps(_mm256_loadu_ps(c + ldc),
                                            _mm256_add_ps(e1, o1)));
    _mm256_storeu_ps(c + 2 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 2 * ldc),
                                   _mm256_add_ps(e2, o2)));
    _mm256_storeu_ps(c + 3 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 3 * ldc),
                                   _mm256_add_ps(e3, o3)));
}

/**
 * 8-row twin of the A^T tile, EVEX-encoded: 16 ymm accumulators (two
 * chains x 8 rows) plus the two B vectors need more than the 16 legacy
 * ymm registers, so this tile requires AVX-512VL for ymm16-31. Halves
 * the number of passes over the streamed A operand, which is what bounds
 * transA when k is the long dimension and A never stays resident.
 */
__attribute__((target("avx2,fma,avx512f,avx512vl"))) void
microTransAFma8x8v(const float *__restrict a, std::size_t lda,
                   const float *__restrict b, std::size_t ldb,
                   float *__restrict c, std::size_t ldc, std::size_t k)
{
    __m256 e0, e1, e2, e3, e4, e5, e6, e7;
    __m256 o0, o1, o2, o3, o4, o5, o6, o7;
    e0 = e1 = e2 = e3 = e4 = e5 = e6 = e7 = _mm256_setzero_ps();
    o0 = o1 = o2 = o3 = o4 = o5 = o6 = o7 = _mm256_setzero_ps();
    std::size_t p = 0;
    for (; p + 2 <= k; p += 2) {
        const float *ar0 = a + p * lda;
        const float *ar1 = ar0 + lda;
        const __m256 bv0 = _mm256_loadu_ps(b + p * ldb);
        const __m256 bv1 = _mm256_loadu_ps(b + (p + 1) * ldb);
        e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0), bv0, e0);
        o0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1), bv1, o0);
        e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 1), bv0, e1);
        o1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 1), bv1, o1);
        e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 2), bv0, e2);
        o2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 2), bv1, o2);
        e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 3), bv0, e3);
        o3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 3), bv1, o3);
        e4 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 4), bv0, e4);
        o4 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 4), bv1, o4);
        e5 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 5), bv0, e5);
        o5 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 5), bv1, o5);
        e6 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 6), bv0, e6);
        o6 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 6), bv1, o6);
        e7 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar0 + 7), bv0, e7);
        o7 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar1 + 7), bv1, o7);
    }
    if (p < k) {
        const float *ar = a + p * lda;
        const __m256 bv = _mm256_loadu_ps(b + p * ldb);
        e0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar), bv, e0);
        e1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 1), bv, e1);
        e2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 2), bv, e2);
        e3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 3), bv, e3);
        e4 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 4), bv, e4);
        e5 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 5), bv, e5);
        e6 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 6), bv, e6);
        e7 = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + 7), bv, e7);
    }
    _mm256_storeu_ps(
        c, _mm256_add_ps(_mm256_loadu_ps(c), _mm256_add_ps(e0, o0)));
    _mm256_storeu_ps(c + ldc, _mm256_add_ps(_mm256_loadu_ps(c + ldc),
                                            _mm256_add_ps(e1, o1)));
    _mm256_storeu_ps(c + 2 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 2 * ldc),
                                   _mm256_add_ps(e2, o2)));
    _mm256_storeu_ps(c + 3 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 3 * ldc),
                                   _mm256_add_ps(e3, o3)));
    _mm256_storeu_ps(c + 4 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 4 * ldc),
                                   _mm256_add_ps(e4, o4)));
    _mm256_storeu_ps(c + 5 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 5 * ldc),
                                   _mm256_add_ps(e5, o5)));
    _mm256_storeu_ps(c + 6 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 6 * ldc),
                                   _mm256_add_ps(e6, o6)));
    _mm256_storeu_ps(c + 7 * ldc,
                     _mm256_add_ps(_mm256_loadu_ps(c + 7 * ldc),
                                   _mm256_add_ps(e7, o7)));
}

/**
 * 16-column A^T tile: 8 rows x 16 columns in zmm, dual even/odd chains
 * (16 accumulators + 2 B vectors out of the 32 zmm registers). One pass
 * streams twice the output columns of the 8-wide tile for the same A
 * traffic.
 */
__attribute__((target("avx512f"))) void
microTransAFma8x16z(const float *__restrict a, std::size_t lda,
                    const float *__restrict b, std::size_t ldb,
                    float *__restrict c, std::size_t ldc, std::size_t k)
{
    __m512 e0, e1, e2, e3, e4, e5, e6, e7;
    __m512 o0, o1, o2, o3, o4, o5, o6, o7;
    e0 = e1 = e2 = e3 = e4 = e5 = e6 = e7 = _mm512_setzero_ps();
    o0 = o1 = o2 = o3 = o4 = o5 = o6 = o7 = _mm512_setzero_ps();
    std::size_t p = 0;
    for (; p + 2 <= k; p += 2) {
        const float *ar0 = a + p * lda;
        const float *ar1 = ar0 + lda;
        const __m512 bv0 = _mm512_loadu_ps(b + p * ldb);
        const __m512 bv1 = _mm512_loadu_ps(b + (p + 1) * ldb);
        e0 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[0]), bv0, e0);
        o0 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[0]), bv1, o0);
        e1 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[1]), bv0, e1);
        o1 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[1]), bv1, o1);
        e2 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[2]), bv0, e2);
        o2 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[2]), bv1, o2);
        e3 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[3]), bv0, e3);
        o3 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[3]), bv1, o3);
        e4 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[4]), bv0, e4);
        o4 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[4]), bv1, o4);
        e5 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[5]), bv0, e5);
        o5 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[5]), bv1, o5);
        e6 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[6]), bv0, e6);
        o6 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[6]), bv1, o6);
        e7 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[7]), bv0, e7);
        o7 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[7]), bv1, o7);
    }
    if (p < k) {
        const float *ar = a + p * lda;
        const __m512 bv = _mm512_loadu_ps(b + p * ldb);
        e0 = _mm512_fmadd_ps(_mm512_set1_ps(ar[0]), bv, e0);
        e1 = _mm512_fmadd_ps(_mm512_set1_ps(ar[1]), bv, e1);
        e2 = _mm512_fmadd_ps(_mm512_set1_ps(ar[2]), bv, e2);
        e3 = _mm512_fmadd_ps(_mm512_set1_ps(ar[3]), bv, e3);
        e4 = _mm512_fmadd_ps(_mm512_set1_ps(ar[4]), bv, e4);
        e5 = _mm512_fmadd_ps(_mm512_set1_ps(ar[5]), bv, e5);
        e6 = _mm512_fmadd_ps(_mm512_set1_ps(ar[6]), bv, e6);
        e7 = _mm512_fmadd_ps(_mm512_set1_ps(ar[7]), bv, e7);
    }
    _mm512_storeu_ps(
        c, _mm512_add_ps(_mm512_loadu_ps(c), _mm512_add_ps(e0, o0)));
    _mm512_storeu_ps(c + ldc, _mm512_add_ps(_mm512_loadu_ps(c + ldc),
                                            _mm512_add_ps(e1, o1)));
    _mm512_storeu_ps(c + 2 * ldc,
                     _mm512_add_ps(_mm512_loadu_ps(c + 2 * ldc),
                                   _mm512_add_ps(e2, o2)));
    _mm512_storeu_ps(c + 3 * ldc,
                     _mm512_add_ps(_mm512_loadu_ps(c + 3 * ldc),
                                   _mm512_add_ps(e3, o3)));
    _mm512_storeu_ps(c + 4 * ldc,
                     _mm512_add_ps(_mm512_loadu_ps(c + 4 * ldc),
                                   _mm512_add_ps(e4, o4)));
    _mm512_storeu_ps(c + 5 * ldc,
                     _mm512_add_ps(_mm512_loadu_ps(c + 5 * ldc),
                                   _mm512_add_ps(e5, o5)));
    _mm512_storeu_ps(c + 6 * ldc,
                     _mm512_add_ps(_mm512_loadu_ps(c + 6 * ldc),
                                   _mm512_add_ps(e6, o6)));
    _mm512_storeu_ps(c + 7 * ldc,
                     _mm512_add_ps(_mm512_loadu_ps(c + 7 * ldc),
                                   _mm512_add_ps(e7, o7)));
}

/**
 * Scalar edge tile with runtime panel width: mr <= 8 rows, nr <= w <= 16
 * columns. Compiled for the baseline target (no FMA contraction), so its
 * results do not depend on the CPU generation — only full tiles are
 * FMA-contracted.
 */
void
microEdgeW(const float *__restrict a, std::size_t lda,
           const float *__restrict bp, std::size_t w, float *__restrict c,
           std::size_t ldc, std::size_t k, std::size_t mr, std::size_t nr,
           const float *__restrict bias, bool accumulate)
{
    float acc[kFastMr][kFastNrWide];
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            acc[ii][jj] = accumulate ? c[ii * ldc + jj] : 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
        const float *__restrict bv = bp + p * w;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const float av = a[ii * lda + p];
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc[ii][jj] += av * bv[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] =
                bias != nullptr ? acc[ii][jj] + bias[jj] : acc[ii][jj];
}

/**
 * Scalar A^T edge tile using the same even/odd pair chains as the FMA
 * tile (sans contraction), so the fast transA fold order is uniform
 * across tile classes.
 */
void
microTransAEdgeFast(const float *__restrict a, std::size_t lda,
                    const float *__restrict b, std::size_t ldb,
                    float *__restrict c, std::size_t ldc, std::size_t k,
                    std::size_t mr, std::size_t nr)
{
    float acc_e[4][8] = {};
    float acc_o[4][8] = {};
    std::size_t p = 0;
    for (; p + 2 <= k; p += 2) {
        const float *__restrict ar0 = a + p * lda;
        const float *__restrict ar1 = ar0 + lda;
        const float *__restrict br0 = b + p * ldb;
        const float *__restrict br1 = b + (p + 1) * ldb;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const float av0 = ar0[ii];
            const float av1 = ar1[ii];
            for (std::size_t jj = 0; jj < nr; ++jj) {
                acc_e[ii][jj] += av0 * br0[jj];
                acc_o[ii][jj] += av1 * br1[jj];
            }
        }
    }
    if (p < k) {
        const float *__restrict ar = a + p * lda;
        const float *__restrict br = b + p * ldb;
        for (std::size_t ii = 0; ii < mr; ++ii) {
            const float av = ar[ii];
            for (std::size_t jj = 0; jj < nr; ++jj)
                acc_e[ii][jj] += av * br[jj];
        }
    }
    for (std::size_t ii = 0; ii < mr; ++ii)
        for (std::size_t jj = 0; jj < nr; ++jj)
            c[ii * ldc + jj] += acc_e[ii][jj] + acc_o[ii][jj];
}

/**
 * The n == 8 special case: the whole matrix is one 8-wide strip (the
 * per-image dW GEMM of an 8-filter convolution, cols g^T), where the ymm
 * tile is load-port-bound. The
 * p-paired zmm tile doubles throughput; edge rows (< 8) keep the scalar
 * tile, fed from a conventionally packed copy of the strip appended to
 * the same panel.
 */
void
gemmFastPair(const float *a, std::size_t lda, const float *b,
             std::size_t ldb, bool trans_b, float *c, std::size_t ldc,
             std::size_t m, std::size_t k, bool accumulate,
             const float *bias)
{
    const std::size_t pair_floats = ((k + 1) / 2) * 2 * kFastNr;
    const std::size_t medge = m % kFastMr;
    float *bp = acquirePanel(pair_floats + (medge != 0 ? k * kFastNr : 0));
    packBPairs(b, ldb, trans_b, k, 0, bp);
    std::size_t i0 = 0;
    for (; i0 + kFastMr <= m; i0 += kFastMr)
        microFmaPair8x8(a + i0 * lda, lda, bp, c + i0 * ldc, ldc, k, bias,
                        accumulate);
    if (medge != 0) {
        float *bpe = bp + pair_floats;
        packB(b, ldb, trans_b, k, 0, kFastNr, kFastNr, bpe);
        for (; i0 < m; i0 += 4) {
            const std::size_t mr = m - i0 < 4 ? m - i0 : 4;
            microEdgeW(a + i0 * lda, lda, bpe, kFastNr, c + i0 * ldc, ldc,
                       k, mr, kFastNr, bias, accumulate);
        }
    }
}

#endif // FEDGPO_X86_SIMD

} // namespace

bool
available()
{
#if FEDGPO_X86_SIMD
    return haveFma();
#else
    return false;
#endif
}

bool
enabled()
{
    return fastMath() && available();
}

void
gemm(const float *a, std::size_t lda, const float *b, std::size_t ldb,
     bool trans_b, float *c, std::size_t ldc, std::size_t m, std::size_t n,
     std::size_t k, bool accumulate, const float *bias)
{
#if FEDGPO_X86_SIMD
    if (!haveFma()) {
        blocked::gemm(a, lda, b, ldb, trans_b, c, ldc, m, n, k, accumulate,
                      bias);
        return;
    }
    if (m == 0 || n == 0)
        return;
    const bool z16 = haveAvx512f();
    if (z16 && n == kFastNr && ldc == kFastNr) {
        gemmFastPair(a, lda, b, ldb, trans_b, c, ldc, m, k, accumulate,
                     bias);
        return;
    }
    const std::size_t wmax =
        z16 && n >= kFastNrWide ? kFastNrWide : kFastNr;
    float *bp = acquirePanel(k * wmax);
    std::size_t j0 = 0;
    while (j0 < n) {
        const std::size_t rem = n - j0;
        const std::size_t w =
            z16 && rem >= kFastNrWide ? kFastNrWide : kFastNr;
        const std::size_t nr = rem < w ? rem : w;
        packB(b, ldb, trans_b, k, j0, nr, w, bp);
        const float *bias_j = bias != nullptr ? bias + j0 : nullptr;
        std::size_t i0 = 0;
        if (nr == w) {
            if (w == kFastNrWide)
                for (; i0 + kFastMr <= m; i0 += kFastMr)
                    microFma8x16(a + i0 * lda, lda, bp, c + i0 * ldc + j0,
                                 ldc, k, bias_j, accumulate);
            else
                for (; i0 + kFastMr <= m; i0 += kFastMr)
                    microFma8x8(a + i0 * lda, lda, bp, c + i0 * ldc + j0,
                                ldc, k, bias_j, accumulate);
        }
        for (; i0 < m; i0 += 4) {
            const std::size_t mr = m - i0 < 4 ? m - i0 : 4;
            microEdgeW(a + i0 * lda, lda, bp, w, c + i0 * ldc + j0, ldc, k,
                       mr, nr, bias_j, accumulate);
        }
        j0 += nr;
    }
#else
    blocked::gemm(a, lda, b, ldb, trans_b, c, ldc, m, n, k, accumulate,
                  bias);
#endif
}

void
gemmTransA(const float *a, std::size_t lda, const float *b, std::size_t ldb,
           float *c, std::size_t ldc, std::size_t m, std::size_t n,
           std::size_t k)
{
#if FEDGPO_X86_SIMD
    if (!haveFma()) {
        blocked::gemmTransA(a, lda, b, ldb, c, ldc, m, n, k);
        return;
    }
    // A is streamed end-to-end once per (row-tile, column-strip) pass —
    // k is the huge batch*spatial extent — so the tile ladder maximizes
    // output coverage per pass: 16-wide zmm strips first, then 8-wide
    // strips with 8-row EVEX ymm tiles where AVX-512VL allows the 18
    // live registers, then the legacy 4-row tile and scalar edges.
    const bool z16 = haveAvx512f();
    std::size_t j0 = 0;
    while (j0 < n) {
        const std::size_t rem = n - j0;
        if (z16 && rem >= kFastNrWide) {
            std::size_t i0 = 0;
            for (; i0 + kFastMr <= m; i0 += kFastMr)
                microTransAFma8x16z(a + i0, lda, b + j0, ldb,
                                    c + i0 * ldc + j0, ldc, k);
            for (; i0 < m; i0 += 4) {
                const std::size_t mr = m - i0 < 4 ? m - i0 : 4;
                microTransAEdgeFast(a + i0, lda, b + j0, ldb,
                                    c + i0 * ldc + j0, ldc, k, mr,
                                    kFastNr);
                microTransAEdgeFast(a + i0, lda, b + j0 + kFastNr, ldb,
                                    c + i0 * ldc + j0 + kFastNr, ldc, k,
                                    mr, kFastNr);
            }
            j0 += kFastNrWide;
            continue;
        }
        const std::size_t nr = rem < kFastNr ? rem : kFastNr;
        std::size_t i0 = 0;
        if (nr == kFastNr) {
            if (haveAvx512Vl())
                for (; i0 + kFastMr <= m; i0 += kFastMr)
                    microTransAFma8x8v(a + i0, lda, b + j0, ldb,
                                       c + i0 * ldc + j0, ldc, k);
            for (; i0 + 4 <= m; i0 += 4)
                microTransAFma(a + i0, lda, b + j0, ldb, c + i0 * ldc + j0,
                               ldc, k);
        }
        for (; i0 < m; i0 += 4) {
            const std::size_t mr = m - i0 < 4 ? m - i0 : 4;
            microTransAEdgeFast(a + i0, lda, b + j0, ldb,
                                c + i0 * ldc + j0, ldc, k, mr, nr);
        }
        j0 += nr;
    }
#else
    blocked::gemmTransA(a, lda, b, ldb, c, ldc, m, n, k);
#endif
}

} // namespace fast
} // namespace tensor
} // namespace fedgpo
