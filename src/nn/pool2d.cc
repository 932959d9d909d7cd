#include "nn/pool2d.h"

#include "util/logging.h"

namespace fedgpo {
namespace nn {

MaxPool2D::MaxPool2D(std::size_t c, std::size_t k, std::size_t h,
                     std::size_t w)
    : c_(c), k_(k), h_(h), w_(w), oh_(h / k), ow_(w / k)
{
    if (h % k != 0 || w % k != 0) {
        util::fatal("MaxPool2D: input " + std::to_string(h) + "x" +
                    std::to_string(w) + " not divisible by window " +
                    std::to_string(k));
    }
}

std::string
MaxPool2D::name() const
{
    return "maxpool" + std::to_string(k_) + "x" + std::to_string(k_);
}

const Tensor &
MaxPool2D::forward(const Tensor &in, bool train)
{
    (void)train;
    requireInput(in, {c_, h_, w_});
    const std::size_t n = in.dim(0);
    cached_n_ = n;
    if (out_buf_.ndim() != 4 || out_buf_.dim(0) != n)
        out_buf_ = Tensor({n, c_, oh_, ow_});
    argmax_.resize(n * c_ * oh_ * ow_);
    const float *pi = in.data();
    float *po = out_buf_.data();
    std::size_t out_idx = 0;
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c_; ++ch) {
            const float *x = pi + (img * c_ + ch) * h_ * w_;
            const std::size_t base = (img * c_ + ch) * h_ * w_;
            for (std::size_t oy = 0; oy < oh_; ++oy) {
                for (std::size_t ox = 0; ox < ow_; ++ox, ++out_idx) {
                    std::size_t best = (oy * k_) * w_ + ox * k_;
                    float best_v = x[best];
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                        for (std::size_t kx = 0; kx < k_; ++kx) {
                            std::size_t idx =
                                (oy * k_ + ky) * w_ + ox * k_ + kx;
                            if (x[idx] > best_v) {
                                best_v = x[idx];
                                best = idx;
                            }
                        }
                    }
                    po[out_idx] = best_v;
                    argmax_[out_idx] = base + best;
                }
            }
        }
    }
    return out_buf_;
}

const Tensor &
MaxPool2D::backward(const Tensor &grad_out)
{
    const std::size_t n = cached_n_;
    if (n == 0)
        util::fatal(name() + ": backward before forward");
    requireGradOut(grad_out, {n, c_, oh_, ow_});
    if (grad_in_.ndim() != 4 || grad_in_.dim(0) != n)
        grad_in_ = Tensor({n, c_, h_, w_});
    grad_in_.zero();
    float *pdi = grad_in_.data();
    const float *pg = grad_out.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i)
        pdi[argmax_[i]] += pg[i];
    return grad_in_;
}

std::uint64_t
MaxPool2D::flopsPerSample() const
{
    // One comparison per window element; count comparisons as FLOPs.
    return static_cast<std::uint64_t>(c_) * oh_ * ow_ * k_ * k_;
}

} // namespace nn
} // namespace fedgpo
