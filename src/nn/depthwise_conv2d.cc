#include "nn/depthwise_conv2d.h"

#include <algorithm>

#include "nn/init.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

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
    Range rows, cols;         //!< outputs with every tap in range
    Range in_rows, in_cols;   //!< inputs every tap reaches (stride 1)
};

Geometry
makeGeometry(std::size_t k, std::size_t s, std::size_t pad, std::size_t h,
             std::size_t w, std::size_t oh, std::size_t ow)
{
    Geometry g{k, s, pad, h, w, oh, ow, {}, {}, {}, {}};
    g.rows = fullOutputs(oh, k, s, pad, h);
    g.cols = fullOutputs(ow, k, s, pad, w);
    g.in_rows = fullInputs(h, oh, k, s, pad);
    g.in_cols = fullInputs(w, ow, k, s, pad);
    return g;
}

// Per (image, channel) plane kernels. K and S fix the kernel extent and
// stride at compile time (0: read them from the geometry), so for K = 3
// the tap loops unroll and the filter-gradient chains stay in registers.
// Out-of-range taps are skipped, never multiplied by zero padding: an Inf
// weight times a padded zero would be a NaN the plain loop never makes,
// and a padded +0 term would turn a -0 sum into +0.

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
 * pixel by pixel in row-major order. No zero-skip: g == 0 must still
 * multiply the inputs so 0 * Inf / 0 * NaN reaches the gradients. Taps
 * are tested against constant indices, so for K > 0 the K*K chains stay
 * in registers.
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

} // namespace

DepthwiseConv2D::DepthwiseConv2D(std::size_t c, std::size_t k,
                                 std::size_t h, std::size_t w,
                                 std::size_t stride, std::size_t pad,
                                 util::Rng &rng)
    : c_(c), k_(k), in_h_(h), in_w_(w), stride_(stride), pad_(pad),
      oh_(tensor::convOutExtent(h, k, stride, pad)),
      ow_(tensor::convOutExtent(w, k, stride, pad)),
      weights_({c, k, k}), b_({c}), dw_({c, k, k}), db_({c})
{
    heNormal(weights_, k * k, rng);
}

std::string
DepthwiseConv2D::name() const
{
    return "dwconv" + std::to_string(k_) + "x" + std::to_string(k_) + "(" +
           std::to_string(c_) + ")";
}

const Tensor &
DepthwiseConv2D::forward(const Tensor &in, bool train)
{
    (void)train;
    requireInput(in, {c_, in_h_, in_w_});
    const std::size_t n = in.dim(0);
    cached_in_ = &in;
    out_buf_.resize({n, c_, oh_, ow_});
    const Geometry g =
        makeGeometry(k_, stride_, pad_, in_h_, in_w_, oh_, ow_);
    const bool k3s1 = k_ == 3 && stride_ == 1;
    for (std::size_t plane = 0; plane < n * c_; ++plane) {
        const std::size_t ch = plane % c_;
        const float *x = in.data() + plane * in_h_ * in_w_;
        const float *f = weights_.data() + ch * k_ * k_;
        float *y = out_buf_.data() + plane * oh_ * ow_;
        if (k3s1)
            forwardPlane<3, 1>(g, x, f, b_[ch], y);
        else
            forwardPlane<0, 0>(g, x, f, b_[ch], y);
    }
    return out_buf_;
}

const Tensor &
DepthwiseConv2D::backward(const Tensor &grad_out)
{
    if (cached_in_ == nullptr)
        util::fatal(name() + ": backward before forward");
    const Tensor &in = *cached_in_;
    const std::size_t n = in.dim(0);
    requireGradOut(grad_out, {n, c_, oh_, ow_});
    if (input_grad_)
        grad_in_.resize({n, c_, in_h_, in_w_});
    const Geometry g =
        makeGeometry(k_, stride_, pad_, in_h_, in_w_, oh_, ow_);
    const bool k3s1 = k_ == 3 && stride_ == 1;
    for (std::size_t plane = 0; plane < n * c_; ++plane) {
        const std::size_t ch = plane % c_;
        const float *x = in.data() + plane * in_h_ * in_w_;
        const float *dy = grad_out.data() + plane * oh_ * ow_;
        // Planes run image-major, so each channel's chains take their
        // pixels in (img, oy, ox) order.
        float *df = dw_.data() + ch * k_ * k_;
        if (k3s1)
            filterGradPlane<3, 1>(g, x, dy, df, db_[ch]);
        else
            filterGradPlane<0, 0>(g, x, dy, df, db_[ch]);
        if (!input_grad_)
            continue;
        const float *f = weights_.data() + ch * k_ * k_;
        float *dx = grad_in_.data() + plane * in_h_ * in_w_;
        if (k3s1)
            inputGradPlane<3, 1>(g, dy, f, dx);
        else
            inputGradPlane<0, 0>(g, dy, f, dx);
    }
    return input_grad_ ? grad_in_ : noInputGrad();
}

std::uint64_t
DepthwiseConv2D::flopsPerSample() const
{
    const std::uint64_t macs =
        static_cast<std::uint64_t>(oh_) * ow_ * c_ * k_ * k_;
    return 2ULL * macs + static_cast<std::uint64_t>(oh_) * ow_ * c_;
}

} // namespace nn
} // namespace fedgpo
