#include "tensor/depthwise.h"

#include <algorithm>
#include <cstddef>

#include "tensor/ops.h"
// The 16-lane kernels issue a separate multiply and add per term, and
// target("avx512f") has FMA instructions that GCC's default
// -ffp-contract=fast would fuse them into; src/tensor/CMakeLists.txt
// compiles this file with -ffp-contract=off.
#include "tensor/simd.h"

namespace fedgpo {
namespace tensor {

namespace {

/** Half-open index range [lo, hi). */
struct Range
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool contains(std::size_t i) const { return i >= lo && i < hi; }
};

/**
 * Taps t < k that read inside an axis of extent `in` from output o:
 * 0 <= o * stride + t - pad < in.
 */
Range
forwardTaps(std::size_t o, std::size_t k, std::size_t stride,
            std::size_t pad, std::size_t in)
{
    const std::size_t first = o * stride;
    Range r;
    r.hi = in + pad > first ? std::min(k, in + pad - first) : 0;
    r.lo = std::min(r.hi, pad > first ? pad - first : 0);
    return r;
}

/** Outputs o < out at which all k taps read inside the axis. */
Range
fullOutputs(std::size_t out, std::size_t k, std::size_t stride,
            std::size_t pad, std::size_t in)
{
    Range r;
    r.hi = in + pad >= k ? std::min(out, (in + pad - k) / stride + 1) : 0;
    r.lo = std::min(r.hi, (pad + stride - 1) / stride);
    return r;
}

/**
 * Stride 1: inputs i < in that all k taps reach, i.e. every output
 * i + pad - t lies in [0, out). Empty at other strides.
 */
Range
fullInputs(std::size_t in, std::size_t out, std::size_t k,
           std::size_t stride, std::size_t pad)
{
    Range r;
    if (stride != 1)
        return r;
    r.hi = std::min(in, out > pad ? out - pad : 0);
    r.lo = std::min(r.hi, k - 1 > pad ? k - 1 - pad : 0);
    return r;
}

/** One call's geometry, with the unchecked (interior) ranges hoisted. */
struct Geometry
{
    std::size_t k, s, pad, h, w, oh, ow;
    Range cols;             //!< output columns with every tap in range
    Range in_rows, in_cols; //!< inputs every tap reaches (stride 1)
};

Geometry
makeGeometry(const DepthwiseShape &s)
{
    const std::size_t oh = convOutExtent(s.h, s.k, s.stride, s.pad);
    const std::size_t ow = convOutExtent(s.w, s.k, s.stride, s.pad);
    Geometry g{s.k, s.stride, s.pad, s.h, s.w, oh, ow, {}, {}, {}};
    g.cols = fullOutputs(ow, s.k, s.stride, s.pad, s.w);
    g.in_rows = fullInputs(s.h, oh, s.k, s.stride, s.pad);
    g.in_cols = fullInputs(s.w, ow, s.k, s.stride, s.pad);
    return g;
}

// Per (image, channel) plane kernels. K and S fix the kernel extent and
// stride at compile time (0: read them from the geometry), so for K = 3
// the tap loops unroll and the filter-gradient chains stay in registers.

/** y = bias, then the in-range taps in ascending (ky, kx) order. */
template <std::size_t K, std::size_t S>
void
forwardPlane(const Geometry &g, const float *x, const float *f, float bias,
             float *y)
{
    const std::size_t k = K ? K : g.k, s = S ? S : g.s;
    const std::size_t pad = g.pad, h = g.h, w = g.w, ow = g.ow;
    const Range cols = g.cols;
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
        const Range ty = forwardTaps(oy, k, s, pad, h);
        float *yrow = y + oy * ow;
        // Border columns: every tap tested in a fixed-count loop, whose
        // branches repeat row after row.
        auto element = [&](std::size_t ox) {
            const Range tx = forwardTaps(ox, k, s, pad, w);
            float acc = bias;
            for (std::size_t ky = 0; ky < k; ++ky) {
                if (!ty.contains(ky))
                    continue;
                const float *xrow = x + (oy * s + ky - pad) * w;
                for (std::size_t kx = 0; kx < k; ++kx)
                    if (tx.contains(kx))
                        acc += f[ky * k + kx] * xrow[ox * s + kx - pad];
            }
            yrow[ox] = acc;
        };
        for (std::size_t ox = 0; ox < cols.lo; ++ox)
            element(ox);
        for (std::size_t ox = cols.hi; ox < ow; ++ox)
            element(ox);
        if (cols.lo == cols.hi)
            continue;
        // Interior columns: all k taps of a row in range.
        float *ys = yrow + cols.lo;
        const std::size_t n = cols.hi - cols.lo;
        if (ty.lo == 0 && ty.hi == k) {
            // The window's top-left input is in bounds.
            const float *xs = x + (oy * s - pad) * w + (cols.lo * s - pad);
            for (std::size_t j = 0; j < n; ++j) {
                float acc = bias;
                for (std::size_t ky = 0; ky < k; ++ky)
                    for (std::size_t kx = 0; kx < k; ++kx)
                        acc += f[ky * k + kx] * xs[ky * w + j * s + kx];
                ys[j] = acc;
            }
            continue;
        }
        // A border row: one pass per in-range ky.
        std::fill(ys, ys + n, bias);
        for (std::size_t ky = ty.lo; ky < ty.hi; ++ky) {
            const float *xs =
                x + (oy * s + ky - pad) * w + (cols.lo * s - pad);
            const float *fk = f + ky * k;
            for (std::size_t j = 0; j < n; ++j) {
                float acc = ys[j];
                for (std::size_t kx = 0; kx < k; ++kx)
                    acc += fk[kx] * xs[j * s + kx];
                ys[j] = acc;
            }
        }
    }
}

/**
 * dx = the terms of dy reaching each input, gathered from +0 in the order
 * of a scatter in ascending (oy, ox): input (iy, ix) takes output
 * ((iy + pad - ky) / s, (ix + pad - kx) / s) wherever that divides, for
 * ky and kx descending. Overwrites every element of dx.
 */
template <std::size_t K, std::size_t S>
void
inputGradPlane(const Geometry &g, const float *dy, const float *f,
               float *dx)
{
    const std::size_t k = K ? K : g.k, s = S ? S : g.s;
    const std::size_t pad = g.pad, w = g.w, oh = g.oh, ow = g.ow;
    // Taps t (descending) reaching output (i + pad - t) / s < out.
    auto reaches = [&](std::size_t i, std::size_t t, std::size_t out) {
        return i + pad >= t && (i + pad - t) % s == 0 &&
               (i + pad - t) / s < out;
    };
    const Range cols = g.in_cols;
    for (std::size_t iy = 0; iy < g.h; ++iy) {
        float *dxrow = dx + iy * w;
        auto element = [&](std::size_t ix) {
            float acc = 0.0f;
            for (std::size_t ky = k; ky-- > 0;) {
                if (!reaches(iy, ky, oh))
                    continue;
                const float *dyrow = dy + (iy + pad - ky) / s * ow;
                for (std::size_t kx = k; kx-- > 0;)
                    if (reaches(ix, kx, ow))
                        acc += dyrow[(ix + pad - kx) / s] * f[ky * k + kx];
            }
            dxrow[ix] = acc;
        };
        for (std::size_t ix = 0; ix < cols.lo; ++ix)
            element(ix);
        for (std::size_t ix = cols.hi; ix < w; ++ix)
            element(ix);
        if (cols.lo == cols.hi)
            continue;
        // Stride 1, interior columns: every kx reaches an output, and
        // (a, b) ascending is (ky, kx) descending.
        float *xs = dxrow + cols.lo;
        const std::size_t n = cols.hi - cols.lo;
        const std::size_t ox0 = cols.lo + pad - (k - 1);
        if (g.in_rows.contains(iy)) {
            const float *ds = dy + (iy + pad - (k - 1)) * ow + ox0;
            for (std::size_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::size_t a = 0; a < k; ++a)
                    for (std::size_t b = 0; b < k; ++b)
                        acc += ds[a * ow + j + b] *
                               f[(k - 1 - a) * k + (k - 1 - b)];
                xs[j] = acc;
            }
            continue;
        }
        // A border row: one pass per reaching ky, descending.
        std::fill(xs, xs + n, 0.0f);
        for (std::size_t ky = k; ky-- > 0;) {
            if (!reaches(iy, ky, oh))
                continue;
            const float *ds = dy + (iy + pad - ky) * ow + ox0;
            const float *fk = f + ky * k;
            for (std::size_t j = 0; j < n; ++j) {
                float acc = xs[j];
                for (std::size_t b = 0; b < k; ++b)
                    acc += ds[j + b] * fk[k - 1 - b];
                xs[j] = acc;
            }
        }
    }
}

/**
 * Continue the filter (df) and bias (db) gradient chains over one plane,
 * pixel by pixel in row-major order. Taps are tested against constant
 * indices, so for K > 0 the K*K chains stay in registers.
 */
template <std::size_t K, std::size_t S>
void
filterGradPlane(const Geometry &g, const float *x, const float *dy,
                float *df, float &db)
{
    const std::size_t k = K ? K : g.k, s = S ? S : g.s;
    const std::size_t pad = g.pad, h = g.h, w = g.w, ow = g.ow;
    const Range cols = g.cols;
    float regs[K ? K * K : 1];
    float *acc = df;
    if constexpr (K > 0) {
        std::copy(df, df + K * K, regs);
        acc = regs;
    }
    float acc_b = db;
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
        const Range ty = forwardTaps(oy, k, s, pad, h);
        const float *dyrow = dy + oy * ow;
        // `interior` (all kx in range) drops the column tests there.
        auto pixel = [&](std::size_t ox, bool interior) {
            const float gv = dyrow[ox];
            acc_b += gv;
            const Range tx = forwardTaps(ox, k, s, pad, w);
            for (std::size_t ky = 0; ky < k; ++ky) {
                if (!ty.contains(ky))
                    continue;
                const float *xrow = x + (oy * s + ky - pad) * w;
                for (std::size_t kx = 0; kx < k; ++kx)
                    if (interior || tx.contains(kx))
                        acc[ky * k + kx] += gv * xrow[ox * s + kx - pad];
            }
        };
        for (std::size_t ox = 0; ox < cols.lo; ++ox)
            pixel(ox, false);
        for (std::size_t ox = cols.lo; ox < cols.hi; ++ox)
            pixel(ox, true);
        for (std::size_t ox = cols.hi; ox < ow; ++ox)
            pixel(ox, false);
    }
    if constexpr (K > 0)
        std::copy(regs, regs + K * K, df);
    db = acc_b;
}

using ForwardFn = void (*)(const Geometry &, const float *, const float *,
                           float, float *);
using InputGradFn = void (*)(const Geometry &, const float *, const float *,
                             float *);

#if FEDGPO_X86_SIMD

// The 16-lane kernels, 3x3 filters at stride 1 only (both zoo depthwise
// layers). A lane never reads or adds a term its element's plain loop
// skips: masked loads leave out-of-range lanes unread, and masked adds
// leave their accumulators alone.

constexpr std::ptrdiff_t kLanes = 16;
constexpr std::size_t kLaneK = 3; //!< the lane kernels' filter extent

/** Lanes j of a 16-lane block with lo <= j < hi. */
__mmask16
laneRange(std::ptrdiff_t lo, std::ptrdiff_t hi)
{
    lo = std::clamp<std::ptrdiff_t>(lo, 0, kLanes);
    hi = std::clamp<std::ptrdiff_t>(hi, lo, kLanes);
    return static_cast<__mmask16>((1u << hi) - (1u << lo));
}

/**
 * One plane of a stride-1 correlation across columns: each element of
 * dst (dh x dw) is `start`, then the in-range terms w * src in ascending
 * (a, b) order, where tap (a, b) of dst (y, x) reads src
 * (y + a - pad, x + b - pad) and w is f[a][b], or f[k-1-a][k-1-b] when
 * Flip. Lane j of a block computes column x0 + j; tap b's mask holds the
 * lanes whose source column lies in the row, and rows are tested whole.
 * kRows destination rows advance together, so each source row is loaded
 * once per b for all of them and their chains overlap; every chain still
 * takes its taps in (a, b) order.
 */
template <bool Flip>
__attribute__((target("avx512f"))) void
correlateLanes(const float *src, std::ptrdiff_t sh, std::ptrdiff_t sw,
               const float *f, float start, std::ptrdiff_t pad, float *dst,
               std::ptrdiff_t dh, std::ptrdiff_t dw)
{
    constexpr std::ptrdiff_t kRows = 4, k = kLaneK;
    for (std::ptrdiff_t x0 = 0; x0 < dw; x0 += kLanes) {
        const __mmask16 out = laneRange(0, dw - x0);
        for (std::ptrdiff_t y0 = 0; y0 < dh; y0 += kRows) {
            __m512 acc[kRows];
            for (__m512 &a : acc)
                a = _mm512_set1_ps(start);
            // Unrolled whole, so every tap index is a constant.
#if defined(__clang__)
#pragma unroll
#else
#pragma GCC unroll 16
#endif
            for (std::ptrdiff_t r = 0; r < kRows + k - 1; ++r) {
                const std::ptrdiff_t sy = y0 + r - pad;
                if (sy < 0 || sy >= sh)
                    continue;
                const float *srow = src + sy * sw;
                for (std::ptrdiff_t b = 0; b < k; ++b) {
                    // Lane 0 reads source column `first`.
                    const std::ptrdiff_t first = x0 + b - pad;
                    const __mmask16 m = out & laneRange(-first, sw - first);
                    const __m512 v = _mm512_maskz_loadu_ps(m, srow + first);
                    for (std::ptrdiff_t i = 0; i < kRows; ++i) {
                        const std::ptrdiff_t a = r - i;
                        if (a < 0 || a >= k)
                            continue;
                        const __m512 w = _mm512_set1_ps(
                            Flip ? f[(k - 1 - a) * k + (k - 1 - b)]
                                 : f[a * k + b]);
                        acc[i] = _mm512_mask_add_ps(acc[i], m, acc[i],
                                                    _mm512_mul_ps(w, v));
                    }
                }
            }
            for (std::ptrdiff_t i = 0; i < kRows && y0 + i < dh; ++i)
                _mm512_mask_storeu_ps(dst + (y0 + i) * dw + x0, out, acc[i]);
        }
    }
}

/** Forward: x correlated with the filter, from the bias. */
__attribute__((target("avx512f"))) void
forwardLanes(const Geometry &g, const float *x, const float *f, float bias,
             float *y)
{
    correlateLanes<false>(x, g.h, g.w, f, bias, g.pad, y, g.oh, g.ow);
}

/**
 * Input gradient: dy correlated with the flipped filter from +0, padded
 * by k - 1 - pad. Tap (a, b) of input (iy, ix) is (ky, kx) =
 * (k-1-a, k-1-b) of output (iy + pad - ky, ix + pad - kx), so (a, b)
 * ascending is the scatter's (ky, kx) descending.
 */
__attribute__((target("avx512f"))) void
inputGradLanes(const Geometry &g, const float *dy, const float *f,
               float *dx)
{
    const std::ptrdiff_t k = kLaneK, pad = g.pad;
    correlateLanes<true>(dy, g.oh, g.ow, f, 0.0f, k - 1 - pad, dx, g.h,
                         g.w);
}

/** Transpose a 16 x 16 block of floats held one row per register. */
__attribute__((target("avx512f"), always_inline)) inline void
transpose16(__m512 r[16])
{
    __m512 t[16];
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    // r[q + c]: 128-bit lane L holds column 4L + c of rows q .. q + 3.
    for (int q = 0; q < 16; q += 4) {
        r[q] = _mm512_shuffle_ps(t[q], t[q + 2], 0x44);
        r[q + 1] = _mm512_shuffle_ps(t[q], t[q + 2], 0xee);
        r[q + 2] = _mm512_shuffle_ps(t[q + 1], t[q + 3], 0x44);
        r[q + 3] = _mm512_shuffle_ps(t[q + 1], t[q + 3], 0xee);
    }
    for (int c = 0; c < 4; ++c) {
        t[c] = _mm512_shuffle_f32x4(r[c], r[4 + c], 0x88);
        t[4 + c] = _mm512_shuffle_f32x4(r[c], r[4 + c], 0xdd);
        t[8 + c] = _mm512_shuffle_f32x4(r[8 + c], r[12 + c], 0x88);
        t[12 + c] = _mm512_shuffle_f32x4(r[8 + c], r[12 + c], 0xdd);
    }
    for (int c = 0; c < 4; ++c) {
        r[c] = _mm512_shuffle_f32x4(t[c], t[8 + c], 0x88);
        r[8 + c] = _mm512_shuffle_f32x4(t[c], t[8 + c], 0xdd);
        r[4 + c] = _mm512_shuffle_f32x4(t[4 + c], t[12 + c], 0x88);
        r[12 + c] = _mm512_shuffle_f32x4(t[4 + c], t[12 + c], 0xdd);
    }
}

/**
 * Pixel-major copy of nc <= 16 channel planes of np pixels, the planes
 * `stride` floats apart: panel[p * 16 + j] = src[j * stride + p], and
 * lanes j >= nc are +0.
 */
__attribute__((target("avx512f"))) void
pixelMajor(const float *src, std::size_t stride, std::size_t nc,
           std::size_t np, float *panel)
{
    for (std::size_t p0 = 0; p0 < np; p0 += kLanes) {
        const std::size_t m = std::min<std::size_t>(kLanes, np - p0);
        const __mmask16 pm = laneRange(0, m);
        __m512 r[16];
        for (std::size_t j = 0; j < 16; ++j)
            r[j] = j < nc ? _mm512_maskz_loadu_ps(pm, src + j * stride + p0)
                          : _mm512_setzero_ps();
        transpose16(r);
        for (std::size_t i = 0; i < 16; ++i)
            if (i < m)
                _mm512_storeu_ps(panel + (p0 + i) * kLanes, r[i]);
    }
}

/**
 * Advance the tap chains by one pixel: acc[t] += gv * x at tap t, from
 * the pixel-major panel xp whose window's top-left pixel is `base`
 * (wrapped modulo 2^64 where it lies in the padding). All: every tap in
 * range, else those in rows ty and columns tx.
 */
template <bool All>
__attribute__((target("avx512f"), always_inline)) inline void
pixelTaps(const float *xp, std::size_t base, std::size_t w, Range ty,
          Range tx, __m512 gv, __m512 *acc)
{
    for (std::size_t t = 0; t < kLaneK * kLaneK; ++t) {
        const std::size_t ky = t / kLaneK, kx = t % kLaneK;
        if (!All && !(ty.contains(ky) && tx.contains(kx)))
            continue;
        const __m512 xv =
            _mm512_loadu_ps(xp + (base + ky * w + kx) * kLanes);
        acc[t] = _mm512_add_ps(acc[t], _mm512_mul_ps(gv, xv));
    }
}

/**
 * Filter and bias gradients across channels: lane j of a block holds
 * channel c0 + j's chains, and each image's x and dy are copied
 * pixel-major into xp and gp first, so one pixel's 16 channels are one
 * load. The chains run over the images, then the pixels in (oy, ox)
 * order; tap tests are the same for every lane.
 */
__attribute__((target("avx512f"))) void
paramGradLanes(const DepthwiseShape &s, const Geometry &g, const float *x,
               const float *dy, float *df, float *db, float *xp, float *gp)
{
    constexpr std::size_t k = kLaneK, kk = k * k;
    const std::size_t pad = g.pad, w = g.w, ow = g.ow;
    const std::size_t hw = g.h * w, ohw = g.oh * ow;
    // Lane j's offset into a block's filters: j taps-per-channel apart.
    const __m512i lane_taps = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(kk)));
    for (std::size_t c0 = 0; c0 < s.c; c0 += kLanes) {
        const std::size_t nc = std::min<std::size_t>(kLanes, s.c - c0);
        const __mmask16 cm = laneRange(0, nc);
        float *dfb = df + c0 * kk;
        __m512 acc[kk];
        for (std::size_t t = 0; t < kk; ++t)
            acc[t] = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), cm,
                                              lane_taps, dfb + t, 4);
        __m512 acc_b = _mm512_maskz_loadu_ps(cm, db + c0);
        for (std::size_t img = 0; img < s.n; ++img) {
            pixelMajor(x + (img * s.c + c0) * hw, hw, nc, hw, xp);
            pixelMajor(dy + (img * s.c + c0) * ohw, ohw, nc, ohw, gp);
            for (std::size_t oy = 0; oy < g.oh; ++oy) {
                const Range ty = forwardTaps(oy, k, 1, pad, g.h);
                const bool full_row = ty.lo == 0 && ty.hi == k;
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const __m512 gv =
                        _mm512_loadu_ps(gp + (oy * ow + ox) * kLanes);
                    acc_b = _mm512_add_ps(acc_b, gv);
                    const std::size_t base = (oy - pad) * w + ox - pad;
                    if (full_row && g.cols.contains(ox))
                        pixelTaps<true>(xp, base, w, ty, {}, gv, acc);
                    else
                        pixelTaps<false>(xp, base, w, ty,
                                         forwardTaps(ox, k, 1, pad, w), gv,
                                         acc);
                }
            }
        }
        for (std::size_t t = 0; t < kk; ++t)
            _mm512_mask_i32scatter_ps(dfb + t, cm, lane_taps, acc[t], 4);
        _mm512_mask_storeu_ps(db + c0, cm, acc_b);
    }
}

/** True where a call takes the 16-lane kernels. */
bool
lanes(const DepthwiseShape &s)
{
    return s.k == kLaneK && s.stride == 1 && haveAvx512f();
}

#endif // FEDGPO_X86_SIMD

} // namespace

void
depthwiseForward(const DepthwiseShape &s, const float *x,
                 const float *filters, const float *bias, float *y)
{
    const Geometry g = makeGeometry(s);
    ForwardFn plane = s.k == 3 && s.stride == 1 ? forwardPlane<3, 1>
                                                : forwardPlane<0, 0>;
#if FEDGPO_X86_SIMD
    if (lanes(s))
        plane = forwardLanes;
#endif
    for (std::size_t p = 0; p < s.n * s.c; ++p) {
        const std::size_t ch = p % s.c;
        plane(g, x + p * s.h * s.w, filters + ch * s.k * s.k, bias[ch],
              y + p * g.oh * g.ow);
    }
}

void
depthwiseInputGrad(const DepthwiseShape &s, const float *dy,
                   const float *filters, float *dx)
{
    const Geometry g = makeGeometry(s);
    InputGradFn plane = s.k == 3 && s.stride == 1 ? inputGradPlane<3, 1>
                                                  : inputGradPlane<0, 0>;
#if FEDGPO_X86_SIMD
    if (lanes(s))
        plane = inputGradLanes;
#endif
    for (std::size_t p = 0; p < s.n * s.c; ++p) {
        const std::size_t ch = p % s.c;
        plane(g, dy + p * g.oh * g.ow, filters + ch * s.k * s.k,
              dx + p * s.h * s.w);
    }
}

void
depthwiseParamGrad(const DepthwiseShape &s, const float *x, const float *dy,
                   float *dfilters, float *dbias, Tensor &x_panel,
                   Tensor &dy_panel)
{
    const Geometry g = makeGeometry(s);
#if FEDGPO_X86_SIMD
    if (lanes(s)) {
        x_panel.resize({s.h * s.w, kLanes});
        dy_panel.resize({g.oh * g.ow, kLanes});
        paramGradLanes(s, g, x, dy, dfilters, dbias, x_panel.data(),
                       dy_panel.data());
        return;
    }
#else
    (void)x_panel;
    (void)dy_panel;
#endif
    const bool k3s1 = s.k == 3 && s.stride == 1;
    // Planes run image-major, so each channel's chains take their pixels
    // in (img, oy, ox) order.
    for (std::size_t p = 0; p < s.n * s.c; ++p) {
        const std::size_t ch = p % s.c;
        const float *xp = x + p * s.h * s.w;
        const float *gp = dy + p * g.oh * g.ow;
        float *df = dfilters + ch * s.k * s.k;
        if (k3s1)
            filterGradPlane<3, 1>(g, xp, gp, df, dbias[ch]);
        else
            filterGradPlane<0, 0>(g, xp, gp, df, dbias[ch]);
    }
}

const char *
depthwisePath()
{
    return haveAvx512f() ? "avx512" : "plane";
}

} // namespace tensor
} // namespace fedgpo
