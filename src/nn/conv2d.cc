#include "nn/conv2d.h"

#include <cassert>

#include "nn/init.h"
#include "tensor/ops.h"

namespace fedgpo {
namespace nn {

Conv2D::Conv2D(std::size_t in_c, std::size_t out_c, std::size_t k,
               std::size_t h, std::size_t w, std::size_t stride,
               std::size_t pad, util::Rng &rng)
    : in_c_(in_c), out_c_(out_c), k_(k), in_h_(h), in_w_(w), stride_(stride),
      pad_(pad),
      oh_(tensor::convOutExtent(h, k, stride, pad)),
      ow_(tensor::convOutExtent(w, k, stride, pad)),
      weights_({in_c * k * k, out_c}), b_({out_c}),
      dw_({in_c * k * k, out_c}), db_({out_c})
{
    heNormal(weights_, in_c * k * k, rng);
}

std::string
Conv2D::name() const
{
    return "conv" + std::to_string(k_) + "x" + std::to_string(k_) + "(" +
           std::to_string(in_c_) + "->" + std::to_string(out_c_) + ")";
}

const Tensor &
Conv2D::forward(const Tensor &in, bool train)
{
    (void)train;
    assert(in.ndim() == 4);
    assert(in.dim(1) == in_c_ && in.dim(2) == in_h_ && in.dim(3) == in_w_);
    const std::size_t n = in.dim(0);
    cached_n_ = n;
    tensor::im2col(in, k_, k_, stride_, pad_, cols_);
    // Bias is fused into the GEMM epilogue (added after each element's
    // k-chain, bit-identical to a separate pass); the NCHW scatter below
    // is then a pure transpose.
    tensor::matmulBias(cols_, weights_, b_, gemm_out_);

    if (out_buf_.ndim() != 4 || out_buf_.dim(0) != n)
        out_buf_ = Tensor({n, out_c_, oh_, ow_});
    const std::size_t spatial = oh_ * ow_;
    const float *pg = gemm_out_.data();
    float *po = out_buf_.data();
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t s = 0; s < spatial; ++s) {
            const float *row = pg + (img * spatial + s) * out_c_;
            for (std::size_t oc = 0; oc < out_c_; ++oc)
                po[(img * out_c_ + oc) * spatial + s] = row[oc];
        }
    }
    return out_buf_;
}

const Tensor &
Conv2D::backward(const Tensor &grad_out)
{
    const std::size_t n = cached_n_;
    assert(n > 0);
    assert(grad_out.ndim() == 4 && grad_out.dim(0) == n);
    assert(grad_out.dim(1) == out_c_);
    const std::size_t spatial = oh_ * ow_;

    // Gather NCHW grad into GEMM layout [n*spatial, out_c].
    if (grad_gemm_.ndim() != 2 || grad_gemm_.dim(0) != n * spatial)
        grad_gemm_ = Tensor({n * spatial, out_c_});
    const float *pg = grad_out.data();
    float *pm = grad_gemm_.data();
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
            const float *src = pg + (img * out_c_ + oc) * spatial;
            for (std::size_t s = 0; s < spatial; ++s)
                pm[(img * spatial + s) * out_c_ + oc] = src[s];
        }
    }

    // dW += cols^T * grad_gemm ; db += column sums. dw_step_ is
    // persistent member scratch so steady-state backward passes are
    // allocation-free.
    tensor::matmulTransA(cols_, grad_gemm_, dw_step_);
    dw_ += dw_step_;
    float *pdb = db_.data();
    for (std::size_t r = 0; r < n * spatial; ++r)
        for (std::size_t oc = 0; oc < out_c_; ++oc)
            pdb[oc] += pm[r * out_c_ + oc];

    if (!input_grad_)
        return noInputGrad();
    // grad wrt columns, then scatter back to the input geometry.
    tensor::matmulTransB(grad_gemm_, weights_, grad_cols_);
    if (grad_in_.ndim() != 4 || grad_in_.dim(0) != n)
        grad_in_ = Tensor({n, in_c_, in_h_, in_w_});
    tensor::col2im(grad_cols_, k_, k_, stride_, pad_, grad_in_);
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
