#include "nn/activations.h"

#include <algorithm>

#include "tensor/vmath.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

const Tensor &
ReLU::forward(const Tensor &in, bool train)
{
    (void)train;
    if (in.ndim() == 0)
        util::fatal(name() + ": 0-d input, expected [n, ...]");
    out_buf_.resize(in.shape());
    cached_batch_ = in.dim(0);
    const float *pi = in.data();
    float *po = out_buf_.data();
    for (std::size_t i = 0; i < in.numel(); ++i)
        po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
    return out_buf_;
}

const Tensor &
ReLU::backward(const Tensor &grad_out)
{
    if (out_buf_.ndim() == 0)
        util::fatal(name() + ": backward before forward");
    requireGradOut(grad_out, out_buf_.shape());
    grad_in_.resize(grad_out.shape());
    const float *po = out_buf_.data();
    const float *pg = grad_out.data();
    float *pd = grad_in_.data();
    // Load g unconditionally so the select compiles to a compare and mask
    // rather than one data-dependent branch per element.
    for (std::size_t i = 0; i < grad_out.numel(); ++i) {
        const float g = pg[i];
        pd[i] = po[i] > 0.0f ? g : 0.0f;
    }
    return grad_in_;
}

std::uint64_t
ReLU::flopsPerSample() const
{
    if (out_buf_.numel() == 0 || cached_batch_ == 0)
        return 0;
    return out_buf_.numel() / cached_batch_;
}

const Tensor &
Tanh::forward(const Tensor &in, bool train)
{
    (void)train;
    if (in.ndim() == 0)
        util::fatal(name() + ": 0-d input, expected [n, ...]");
    out_buf_.resize(in.shape());
    cached_batch_ = in.dim(0);
    tensor::tanhArray(in.data(), out_buf_.data(), in.numel());
    return out_buf_;
}

const Tensor &
Tanh::backward(const Tensor &grad_out)
{
    if (out_buf_.ndim() == 0)
        util::fatal(name() + ": backward before forward");
    requireGradOut(grad_out, out_buf_.shape());
    grad_in_.resize(grad_out.shape());
    const float *po = out_buf_.data();
    const float *pg = grad_out.data();
    float *pd = grad_in_.data();
    for (std::size_t i = 0; i < grad_out.numel(); ++i)
        pd[i] = pg[i] * (1.0f - po[i] * po[i]);
    return grad_in_;
}

std::uint64_t
Tanh::flopsPerSample() const
{
    if (out_buf_.numel() == 0 || cached_batch_ == 0)
        return 0;
    // tanh is several FLOPs; count 4 per element as a conventional cost.
    return 4ULL * (out_buf_.numel() / cached_batch_);
}

const Tensor &
Flatten::forward(const Tensor &in, bool train)
{
    (void)train;
    if (in.ndim() == 0 || in.dim(0) == 0)
        util::fatal(name() + ": input " + tensor::shapeToString(in.shape()) +
                    ", expected [n, ...] with n > 0");
    cached_shape_ = in.shape();
    const std::size_t n = in.dim(0);
    const std::size_t rest = in.numel() / n;
    out_buf_.resize({n, rest});
    std::copy(in.data(), in.data() + in.numel(), out_buf_.data());
    return out_buf_;
}

const Tensor &
Flatten::backward(const Tensor &grad_out)
{
    if (cached_shape_.empty())
        util::fatal(name() + ": backward before forward");
    requireGradOut(grad_out, {out_buf_.dim(0), out_buf_.dim(1)});
    grad_in_.resize(cached_shape_);
    std::copy(grad_out.data(), grad_out.data() + grad_out.numel(),
              grad_in_.data());
    return grad_in_;
}

} // namespace nn
} // namespace fedgpo
