#include "nn/pool2d.h"

#include <limits>

#include "util/logging.h"

namespace fedgpo {
namespace nn {

namespace {

/**
 * One (image, channel) plane. K fixes the window at compile time (0: read
 * it from k), so for K = 2 the taps unroll and the ox loop vectorizes; a
 * runtime extent kept gcc from vectorizing it.
 *
 * The max is the strict-`>` scan's select chain, m = v > m ? v : m, so
 * the first maximum wins and a NaN wins only as the first tap. Its tap is
 * the first one equal to m, or the first tap when m is NaN: exactly the
 * index the scan's last update records. Both are selects, not branches,
 * and the offsets are 32-bit so that the float compare can pick them
 * lane for lane.
 */
template <std::size_t K>
void
forwardPlane(const float *__restrict x, std::size_t k_rt, std::size_t w,
             std::size_t oh, std::size_t ow, float *__restrict y,
             std::uint32_t *__restrict arg)
{
    const std::size_t k = K ? K : k_rt;
    for (std::size_t oy = 0; oy < oh; ++oy) {
        const float *xr = x + oy * k * w;
        const auto row = static_cast<std::uint32_t>(oy * k * w);
        float *yr = y + oy * ow;
        std::uint32_t *ar = arg + oy * ow;
        for (std::size_t ox = 0; ox < ow; ++ox) {
            const float *win = xr + ox * k;
            float m = win[0];
            for (std::size_t ky = 0; ky < k; ++ky)
                for (std::size_t kx = 0; kx < k; ++kx) {
                    const float v = win[ky * w + kx];
                    m = v > m ? v : m;
                }
            const auto first = row + static_cast<std::uint32_t>(ox * k);
            std::uint32_t best = first;
            for (std::size_t ky = k; ky-- > 0;)
                for (std::size_t kx = k; kx-- > 0;) {
                    // A 32-bit index here left the loop on its scalar,
                    // branching path.
                    const std::size_t tap = ky * w + kx;
                    best = win[tap] == m
                               ? first + static_cast<std::uint32_t>(tap)
                               : best;
                }
            yr[ox] = m;
            ar[ox] = best;
        }
    }
}

} // namespace

MaxPool2D::MaxPool2D(std::size_t c, std::size_t k, std::size_t h,
                     std::size_t w)
    : c_(c), k_(k), h_(h), w_(w), oh_(k ? h / k : 0), ow_(k ? w / k : 0)
{
    if (k == 0 || h % k != 0 || w % k != 0) {
        util::fatal("MaxPool2D: input " + std::to_string(h) + "x" +
                    std::to_string(w) + " not divisible by window " +
                    std::to_string(k));
    }
    // argmax_ holds offsets within a plane.
    if (h != 0 && w > std::numeric_limits<std::uint32_t>::max() / h) {
        util::fatal("MaxPool2D: input plane " + std::to_string(h) + "x" +
                    std::to_string(w) + " has 2^32 or more elements");
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
    out_buf_.resize({n, c_, oh_, ow_});
    argmax_.resize(n * c_ * oh_ * ow_);
    const std::size_t in_plane = h_ * w_, out_plane = oh_ * ow_;
    for (std::size_t plane = 0; plane < n * c_; ++plane) {
        const float *x = in.data() + plane * in_plane;
        float *y = out_buf_.data() + plane * out_plane;
        std::uint32_t *arg = argmax_.data() + plane * out_plane;
        if (k_ == 2)
            forwardPlane<2>(x, k_, w_, oh_, ow_, y, arg);
        else
            forwardPlane<0>(x, k_, w_, oh_, ow_, y, arg);
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
    grad_in_.resize({n, c_, h_, w_});
    grad_in_.zero();
    const std::size_t in_plane = h_ * w_, out_plane = oh_ * ow_;
    for (std::size_t plane = 0; plane < n * c_; ++plane) {
        float *dx = grad_in_.data() + plane * in_plane;
        const float *dy = grad_out.data() + plane * out_plane;
        const std::uint32_t *arg = argmax_.data() + plane * out_plane;
        for (std::size_t i = 0; i < out_plane; ++i)
            dx[arg[i]] += dy[i];
    }
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
