#include "tensor/ops.h"

#include <algorithm>
#include <initializer_list>
#include <string>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "util/logging.h"

namespace fedgpo {
namespace tensor {

namespace {

void
prepareOut(Tensor &c, std::size_t m, std::size_t n, bool zero)
{
    c.resize({m, n});
    if (zero)
        c.zero();
}

/** Fatal unless `ok`, naming the op and the operand shapes it was handed. */
void
requireShapes(bool ok, const char *op,
              std::initializer_list<const Tensor *> operands)
{
    if (ok)
        return;
    std::string msg = std::string("tensor::") + op + ": operand shapes";
    for (const Tensor *t : operands) {
        msg += ' ';
        msg += shapeToString(t->shape());
    }
    util::fatal(msg + " do not match");
}

/** Fatal unless `ok`: leading dimensions too short for an m x n x k GEMM. */
void
requireLeading(bool ok, const char *op, std::size_t lda, std::size_t ldb,
               std::size_t ldc, std::size_t m, std::size_t n, std::size_t k)
{
    if (!ok)
        util::fatal(std::string("tensor::") + op + ": lda " +
                    std::to_string(lda) + ", ldb " + std::to_string(ldb) +
                    ", ldc " + std::to_string(ldc) + " too short for m " +
                    std::to_string(m) + ", n " + std::to_string(n) + ", k " +
                    std::to_string(k));
}

} // namespace

obs::SpanNode *
kernelSpan(const char *name)
{
    // Below profile this is one cached level check; at profile it is a
    // registry lookup per kernel call (a GEMM call amortizes the lookup
    // over thousands of FLOPs).
    if (!obs::enabled(obs::Level::Profile))
        return nullptr;
    return obs::spanIf(obs::Level::Profile, name);
}

/**
 * Mode dispatch for every GEMM entry point: the bit-exact blocked kernels
 * by default, the FMA fast kernels under FEDGPO_FAST_MATH=1 on capable
 * hardware (see kernel_mode.h). The probe is one relaxed atomic load plus
 * a cached cpuid bit.
 */
void
gemm(const float *a, std::size_t lda, const float *b, std::size_t ldb,
     bool trans_b, float *c, std::size_t ldc, std::size_t m, std::size_t n,
     std::size_t k, bool accumulate, const float *bias)
{
    requireLeading(lda >= k && ldb >= (trans_b ? k : n) && ldc >= n, "gemm",
                   lda, ldb, ldc, m, n, k);
    if (accumulate && bias != nullptr)
        util::fatal("tensor::gemm: a bias cannot join an accumulating GEMM");
    if (fast::enabled())
        fast::gemm(a, lda, b, ldb, trans_b, c, ldc, m, n, k, accumulate,
                   bias);
    else
        blocked::gemm(a, lda, b, ldb, trans_b, c, ldc, m, n, k, accumulate,
                      bias);
}

void
gemmTransA(const float *a, std::size_t lda, const float *b, std::size_t ldb,
           float *c, std::size_t ldc, std::size_t m, std::size_t n,
           std::size_t k)
{
    requireLeading(lda >= m && ldb >= n && ldc >= n, "gemmTransA", lda, ldb,
                   ldc, m, n, k);
    if (fast::enabled())
        fast::gemmTransA(a, lda, b, ldb, c, ldc, m, n, k);
    else
        blocked::gemmTransA(a, lda, b, ldb, c, ldc, m, n, k);
}

void
matmul(const Tensor &a, const Tensor &b, Tensor &c)
{
    requireShapes(a.ndim() == 2 && b.ndim() == 2 && b.dim(0) == a.dim(1),
                  "matmul", {&a, &b});
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    prepareOut(c, m, n, /*zero=*/false);
    obs::ScopedTimer timer(kernelSpan("kernel.matmul"));
    gemm(a.data(), k, b.data(), n, /*trans_b=*/false, c.data(), n, m, n, k,
         /*accumulate=*/false);
}

void
matmulBias(const Tensor &a, const Tensor &b, const Tensor &bias, Tensor &c)
{
    requireShapes(a.ndim() == 2 && b.ndim() == 2 && b.dim(0) == a.dim(1) &&
                      bias.ndim() == 1 && bias.dim(0) == b.dim(1),
                  "matmulBias", {&a, &b, &bias});
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    prepareOut(c, m, n, /*zero=*/false);
    obs::ScopedTimer timer(kernelSpan("kernel.matmul_bias"));
    gemm(a.data(), k, b.data(), n, /*trans_b=*/false, c.data(), n, m, n, k,
         /*accumulate=*/false, bias.data());
}

void
matmulAccum(const Tensor &a, const Tensor &b, Tensor &c)
{
    requireShapes(a.ndim() == 2 && b.ndim() == 2 && c.ndim() == 2 &&
                      b.dim(0) == a.dim(1) && c.dim(0) == a.dim(0) &&
                      c.dim(1) == b.dim(1),
                  "matmulAccum", {&a, &b, &c});
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    obs::ScopedTimer timer(kernelSpan("kernel.matmul_accum"));
    gemm(a.data(), k, b.data(), n, /*trans_b=*/false, c.data(), n, m, n, k,
         /*accumulate=*/true);
}

void
matmulTransA(const Tensor &a, const Tensor &b, Tensor &c)
{
    requireShapes(a.ndim() == 2 && b.ndim() == 2 && b.dim(0) == a.dim(0),
                  "matmulTransA", {&a, &b});
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    prepareOut(c, m, n, /*zero=*/true);
    obs::ScopedTimer timer(kernelSpan("kernel.matmul_trans_a"));
    gemmTransA(a.data(), m, b.data(), n, c.data(), n, m, n, k);
}

void
matmulTransB(const Tensor &a, const Tensor &b, Tensor &c)
{
    requireShapes(a.ndim() == 2 && b.ndim() == 2 && b.dim(1) == a.dim(1),
                  "matmulTransB", {&a, &b});
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    prepareOut(c, m, n, /*zero=*/false);
    obs::ScopedTimer timer(kernelSpan("kernel.matmul_trans_b"));
    gemm(a.data(), k, b.data(), k, /*trans_b=*/true, c.data(), n, m, n, k,
         /*accumulate=*/false);
}

std::size_t
convOutExtent(std::size_t in, std::size_t k, std::size_t stride,
              std::size_t pad)
{
    if (k == 0 || stride == 0 || in + 2 * pad < k)
        util::fatal("tensor::convOutExtent: kernel " + std::to_string(k) +
                    " at stride " + std::to_string(stride) +
                    " does not fit extent " + std::to_string(in) +
                    " with pad " + std::to_string(pad));
    return (in + 2 * pad - k) / stride + 1;
}

namespace {

/** Half-open range [lo, hi) of output positions along one axis. */
struct Range
{
    std::size_t lo = 0;
    std::size_t hi = 0;
};

/**
 * Outputs o < out whose tap t reads inside an axis of extent `in`:
 * 0 <= o * stride + t - pad < in.
 */
Range
tapOutputs(std::size_t t, std::size_t stride, std::size_t pad,
           std::size_t in, std::size_t out)
{
    Range r;
    r.hi = in + pad > t ? std::min(out, (in + pad - t - 1) / stride + 1) : 0;
    r.lo = std::min(r.hi, t >= pad ? 0 : (pad - t + stride - 1) / stride);
    return r;
}

/** One call's geometry: n * c input planes of h x w, outputs oh x ow. */
struct ConvGeometry
{
    std::size_t planes, h, w, oh, ow;
};

ConvGeometry
convGeometry(const char *op, const Tensor &image, std::size_t k,
             std::size_t stride, std::size_t pad)
{
    if (image.ndim() != 4)
        util::fatal(std::string("tensor::") + op + ": " +
                    shapeToString(image.shape()) + " is not [n, c, h, w]");
    const std::size_t h = image.dim(2), w = image.dim(3);
    return {image.dim(0) * image.dim(1), h, w,
            convOutExtent(h, k, stride, pad),
            convOutExtent(w, k, stride, pad)};
}

} // namespace

void
im2col(const Tensor &input, std::size_t k, std::size_t stride,
       std::size_t pad, Tensor &columns)
{
    const ConvGeometry g = convGeometry("im2col", input, k, stride, pad);
    const std::size_t rows = g.planes * k * k, spatial = g.oh * g.ow;
    columns.resize({rows, spatial});
    obs::ScopedTimer timer(kernelSpan("kernel.im2col"));
    // Stride 1 with ow == w (2 * pad == k - 1): output (oy, ox) of tap
    // (ky, kx) reads input element oy * w + ox + (ky - pad) * w + kx - pad,
    // so a tap's rows are one shifted run of the plane.
    const bool same_width = stride == 1 && g.ow == g.w;
    float *dst = columns.data();
    for (std::size_t plane = 0; plane < g.planes; ++plane) {
        const float *src = input.data() + plane * g.h * g.w;
        for (std::size_t ky = 0; ky < k; ++ky) {
            const Range ys = tapOutputs(ky, stride, pad, g.h, g.oh);
            for (std::size_t kx = 0; kx < k; ++kx, dst += spatial) {
                const Range xs = tapOutputs(kx, stride, pad, g.w, g.ow);
                if (same_width) {
                    if (ys.lo == ys.hi || xs.lo == xs.hi) {
                        std::fill(dst, dst + spatial, 0.0f);
                        continue;
                    }
                    // Copy from column lo of the first in-range row to
                    // column hi of the last as one run, then zero the
                    // border columns inside it, which read a neighbouring
                    // row.
                    const std::size_t first = ys.lo * g.w + xs.lo;
                    const std::size_t last = (ys.hi - 1) * g.w + xs.hi;
                    const float *in =
                        src + (ys.lo + ky - pad) * g.w + xs.lo + kx - pad;
                    std::fill(dst, dst + first, 0.0f);
                    std::copy(in, in + (last - first), dst + first);
                    std::fill(dst + last, dst + spatial, 0.0f);
                    for (std::size_t ox = 0; ox < xs.lo; ++ox)
                        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy)
                            dst[oy * g.w + ox] = 0.0f;
                    for (std::size_t ox = xs.hi; ox < g.w; ++ox)
                        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy)
                            dst[oy * g.w + ox] = 0.0f;
                    continue;
                }
                // Rows whose tap reads the top or bottom padding.
                std::fill(dst, dst + ys.lo * g.ow, 0.0f);
                std::fill(dst + ys.hi * g.ow, dst + spatial, 0.0f);
                for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
                    float *row = dst + oy * g.ow;
                    for (std::size_t ox = 0; ox < xs.lo; ++ox)
                        row[ox] = 0.0f;
                    for (std::size_t ox = xs.hi; ox < g.ow; ++ox)
                        row[ox] = 0.0f;
                    if (xs.lo == xs.hi)
                        continue;
                    // The interior run: every ox in [lo, hi) reads inside
                    // the image, so it copies without a bounds test.
                    const float *in = src + (oy * stride + ky - pad) * g.w +
                                      xs.lo * stride + kx - pad;
                    float *out = row + xs.lo;
                    const std::size_t len = xs.hi - xs.lo;
                    if (stride == 1)
                        for (std::size_t i = 0; i < len; ++i)
                            out[i] = in[i];
                    else
                        for (std::size_t i = 0; i < len; ++i)
                            out[i] = in[i * stride];
                }
            }
        }
    }
}

void
col2im(const Tensor &columns, std::size_t k, std::size_t stride,
       std::size_t pad, Tensor &input_grad)
{
    const ConvGeometry g = convGeometry("col2im", input_grad, k, stride, pad);
    const std::size_t spatial = g.oh * g.ow;
    requireShapes(columns.ndim() == 2 &&
                      columns.dim(0) == g.planes * k * k &&
                      columns.dim(1) == spatial,
                  "col2im", {&columns, &input_grad});
    input_grad.zero();
    obs::ScopedTimer timer(kernelSpan("kernel.col2im"));
    for (std::size_t plane = 0; plane < g.planes; ++plane) {
        float *dst = input_grad.data() + plane * g.h * g.w;
        const float *taps = columns.data() + plane * k * k * spatial;
        // Descending taps: the outputs that reach one pixel through taps
        // (ky, kx) ascend in (oy, ox) as the tap descends, so each pixel
        // folds its terms in ascending (oy, ox) order.
        for (std::size_t ky = k; ky-- > 0;) {
            const Range ys = tapOutputs(ky, stride, pad, g.h, g.oh);
            for (std::size_t kx = k; kx-- > 0;) {
                const Range xs = tapOutputs(kx, stride, pad, g.w, g.ow);
                if (xs.lo == xs.hi)
                    continue;
                const float *src = taps + (ky * k + kx) * spatial;
                const std::size_t len = xs.hi - xs.lo;
                for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
                    const float *in = src + oy * g.ow + xs.lo;
                    float *out = dst + (oy * stride + ky - pad) * g.w +
                                 xs.lo * stride + kx - pad;
                    if (stride == 1)
                        for (std::size_t i = 0; i < len; ++i)
                            out[i] += in[i];
                    else
                        for (std::size_t i = 0; i < len; ++i)
                            out[i * stride] += in[i];
                }
            }
        }
    }
}

} // namespace tensor
} // namespace fedgpo
