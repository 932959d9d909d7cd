#include "nn/dense.h"

#include "nn/init.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

Dense::Dense(std::size_t in, std::size_t out, util::Rng &rng)
    : in_(in), out_(out),
      w_({in, out}), b_({out}),
      dw_({in, out}), db_({out})
{
    xavierUniform(w_, in, out, rng);
}

std::string
Dense::name() const
{
    return "dense(" + std::to_string(in_) + "->" + std::to_string(out_) +
           ")";
}

const Tensor &
Dense::forward(const Tensor &in, bool train)
{
    (void)train;
    requireInput(in, {in_});
    cached_in_ = &in;
    tensor::matmulBias(in, w_, b_, out_buf_);
    return out_buf_;
}

const Tensor &
Dense::backward(const Tensor &grad_out)
{
    if (cached_in_ == nullptr)
        util::fatal(name() + ": backward before forward");
    const Tensor &x = *cached_in_;
    requireGradOut(grad_out, {x.dim(0), out_});
    // dW += x^T dy ; db += column sums of dy ; dx = dy W^T (when wanted)
    // dw_step_ is persistent member scratch (shape is stable across
    // calls), so steady-state backward passes are allocation-free.
    tensor::matmulTransA(x, grad_out, dw_step_);
    dw_ += dw_step_;
    const std::size_t n = grad_out.dim(0);
    const float *pg = grad_out.data();
    float *pdb = db_.data();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < out_; ++c)
            pdb[c] += pg[r * out_ + c];
    if (!input_grad_)
        return noInputGrad();
    tensor::matmulTransB(grad_out, w_, grad_in_);
    return grad_in_;
}

std::uint64_t
Dense::flopsPerSample() const
{
    // One multiply + one add per weight, plus the bias add.
    return 2ULL * in_ * out_ + out_;
}

} // namespace nn
} // namespace fedgpo
