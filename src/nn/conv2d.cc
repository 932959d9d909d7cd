#include "nn/conv2d.h"

#include "nn/init.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

namespace {

/**
 * db[r] += every element of row r of g [rows, spatial], in ascending
 * element order. Four rows run side by side, so four independent chains
 * keep the adder busy.
 */
void
addRowSums(const float *g, std::size_t rows, std::size_t spatial, float *db)
{
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float *g0 = g + r * spatial;
        const float *g1 = g0 + spatial;
        const float *g2 = g1 + spatial;
        const float *g3 = g2 + spatial;
        float a0 = db[r], a1 = db[r + 1], a2 = db[r + 2], a3 = db[r + 3];
        for (std::size_t s = 0; s < spatial; ++s) {
            a0 += g0[s];
            a1 += g1[s];
            a2 += g2[s];
            a3 += g3[s];
        }
        db[r] = a0;
        db[r + 1] = a1;
        db[r + 2] = a2;
        db[r + 3] = a3;
    }
    for (; r < rows; ++r) {
        const float *gr = g + r * spatial;
        float a = db[r];
        for (std::size_t s = 0; s < spatial; ++s)
            a += gr[s];
        db[r] = a;
    }
}

} // namespace

Conv2D::Conv2D(std::size_t in_c, std::size_t out_c, std::size_t k,
               std::size_t h, std::size_t w, std::size_t stride,
               std::size_t pad, util::Rng &rng)
    : in_c_(in_c), out_c_(out_c), k_(k), in_h_(h), in_w_(w), stride_(stride),
      pad_(pad),
      oh_(tensor::convOutExtent(h, k, stride, pad)),
      ow_(tensor::convOutExtent(w, k, stride, pad)),
      pointwise_(k == 1 && stride == 1 && pad == 0),
      weights_({in_c * k * k, out_c}), b_({out_c}),
      dw_({in_c * k * k, out_c}), db_({out_c}),
      wt_({out_c, in_c * k * k}), dw_step_({in_c * k * k, out_c})
{
    heNormal(weights_, in_c * k * k, rng);
}

std::string
Conv2D::name() const
{
    return "conv" + std::to_string(k_) + "x" + std::to_string(k_) + "(" +
           std::to_string(in_c_) + "->" + std::to_string(out_c_) + ")";
}

const float *
Conv2D::columns() const
{
    return pointwise_ ? cached_in_->data() : cols_.data();
}

const Tensor &
Conv2D::forward(const Tensor &in, bool train)
{
    (void)train;
    requireInput(in, {in_c_, in_h_, in_w_});
    const std::size_t n = in.dim(0);
    cached_in_ = &in;
    if (!pointwise_)
        tensor::im2col(in, k_, stride_, pad_, cols_);
    out_buf_.resize({n, out_c_, oh_, ow_});

    // Per image: out [out_c, oh*ow] = W^T cols from a zero start, then
    // + b[oc] once the chain is complete. One kernel span per call.
    const std::size_t taps = in_c_ * k_ * k_, spatial = oh_ * ow_;
    obs::ScopedTimer timer(tensor::kernelSpan("kernel.matmul_bias"));
    out_buf_.zero();
    const float *cols = columns();
    const float *pb = b_.data();
    float *out = out_buf_.data();
    for (std::size_t img = 0; img < n; ++img) {
        tensor::gemmTransA(weights_.data(), out_c_,
                           cols + img * taps * spatial, spatial, out,
                           spatial, out_c_, spatial, taps);
        for (std::size_t oc = 0; oc < out_c_; ++oc, out += spatial)
            for (std::size_t s = 0; s < spatial; ++s)
                out[s] += pb[oc];
    }
    return out_buf_;
}

const Tensor &
Conv2D::backward(const Tensor &grad_out)
{
    if (cached_in_ == nullptr)
        util::fatal(name() + ": backward before forward");
    const std::size_t n = cached_in_->dim(0);
    requireGradOut(grad_out, {n, out_c_, oh_, ow_});
    const std::size_t taps = in_c_ * k_ * k_, spatial = oh_ * ow_;
    const float *cols = columns();
    const float *g = grad_out.data();

    // dW: one step chained from zero across every image (cols g^T), then
    // added to dW. db[oc] continues its own chain over each image's pixels.
    {
        obs::ScopedTimer timer(tensor::kernelSpan("kernel.matmul_trans_a"));
        dw_step_.zero();
        for (std::size_t img = 0; img < n; ++img)
            tensor::gemm(cols + img * taps * spatial, spatial,
                         g + img * out_c_ * spatial, spatial,
                         /*trans_b=*/true, dw_step_.data(), out_c_, taps,
                         out_c_, spatial, /*accumulate=*/true);
    }
    dw_ += dw_step_;
    for (std::size_t img = 0; img < n; ++img)
        addRowSums(g + img * out_c_ * spatial, out_c_, spatial, db_.data());

    if (!input_grad_)
        return noInputGrad();
    // dX: each image's column gradient [taps, oh*ow] = W g from a zero
    // start (an ascending-oc chain per element, run as (W^T)^T g on the
    // transposed bank), folded back by col2im; a pointwise layer's column
    // gradient is dX itself.
    grad_in_.resize({n, in_c_, in_h_, in_w_});
    if (!pointwise_)
        grad_cols_.resize({n * taps, spatial});
    Tensor &dcols = pointwise_ ? grad_in_ : grad_cols_;
    {
        obs::ScopedTimer timer(tensor::kernelSpan("kernel.matmul_trans_b"));
        const float *pw = weights_.data();
        float *pt = wt_.data();
        for (std::size_t p = 0; p < taps; ++p)
            for (std::size_t oc = 0; oc < out_c_; ++oc)
                pt[oc * taps + p] = pw[p * out_c_ + oc];
        dcols.zero();
        for (std::size_t img = 0; img < n; ++img)
            tensor::gemmTransA(pt, taps, g + img * out_c_ * spatial, spatial,
                               dcols.data() + img * taps * spatial, spatial,
                               taps, spatial, out_c_);
    }
    if (!pointwise_)
        tensor::col2im(grad_cols_, k_, stride_, pad_, grad_in_);
    return grad_in_;
}

std::uint64_t
Conv2D::flopsPerSample() const
{
    // 2 FLOPs per MAC over every output position and filter tap, plus the
    // bias add per output element.
    const std::uint64_t macs = static_cast<std::uint64_t>(oh_) * ow_ *
                               out_c_ * in_c_ * k_ * k_;
    return 2ULL * macs + static_cast<std::uint64_t>(oh_) * ow_ * out_c_;
}

} // namespace nn
} // namespace fedgpo
