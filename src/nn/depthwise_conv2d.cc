#include "nn/depthwise_conv2d.h"

#include "nn/init.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

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
    tensor::depthwiseForward(shape(n), in.data(), weights_.data(), b_.data(),
                             out_buf_.data());
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
    tensor::depthwiseParamGrad(shape(n), in.data(), grad_out.data(),
                               dw_.data(), db_.data(), x_panel_, dy_panel_);
    if (!input_grad_)
        return noInputGrad();
    grad_in_.resize({n, c_, in_h_, in_w_});
    tensor::depthwiseInputGrad(shape(n), grad_out.data(), weights_.data(),
                               grad_in_.data());
    return grad_in_;
}

tensor::DepthwiseShape
DepthwiseConv2D::shape(std::size_t n) const
{
    return {n, c_, in_h_, in_w_, k_, stride_, pad_};
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
