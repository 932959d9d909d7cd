#include "nn/lstm.h"

#include "nn/init.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"
#include "util/logging.h"

namespace fedgpo {
namespace nn {

LSTM::LSTM(std::size_t in, std::size_t hidden, std::size_t steps,
           util::Rng &rng)
    : in_(in), hidden_(hidden), steps_(steps),
      wx_({in, 4 * hidden}), wh_({hidden, 4 * hidden}), b_({4 * hidden}),
      dwx_({in, 4 * hidden}), dwh_({hidden, 4 * hidden}), db_({4 * hidden}),
      xs_(steps), hs_(steps + 1), cs_(steps + 1), gates_(steps),
      tanh_c_(steps)
{
    xavierUniform(wx_, in, 4 * hidden, rng);
    xavierUniform(wh_, hidden, 4 * hidden, rng);
    // Forget-gate bias at 1 keeps early gradients flowing.
    for (std::size_t j = hidden_; j < 2 * hidden_; ++j)
        b_[j] = 1.0f;
}

std::string
LSTM::name() const
{
    return "lstm(" + std::to_string(in_) + "->" + std::to_string(hidden_) +
           ",T=" + std::to_string(steps_) + ")";
}

const Tensor &
LSTM::forward(const Tensor &in, bool train)
{
    (void)train;
    requireInput(in, {steps_, in_});
    const std::size_t n = in.dim(0);
    cached_n_ = n;
    const std::size_t h4 = 4 * hidden_;

    for (std::size_t t = 0; t < steps_; ++t) {
        xs_[t].resize({n, in_});
        gates_[t].resize({n, h4});
        tanh_c_[t].resize({n, hidden_});
    }
    for (std::size_t t = 0; t <= steps_; ++t) {
        hs_[t].resize({n, hidden_});
        cs_[t].resize({n, hidden_});
    }
    // Only the initial states carry values between calls; everything else
    // is fully overwritten below.
    hs_[0].zero();
    cs_[0].zero();

    for (std::size_t t = 0; t < steps_; ++t) {
        // Slice x_t out of the [n, T, in] batch.
        for (std::size_t r = 0; r < n; ++r) {
            const float *src = in.data() + (r * steps_ + t) * in_;
            float *dst = xs_[t].data() + r * in_;
            std::copy(src, src + in_, dst);
        }
        tensor::matmul(xs_[t], wx_, pre_x_);
        tensor::matmul(hs_[t], wh_, pre_h_);
        const float *pb = b_.data();
        for (std::size_t r = 0; r < n; ++r) {
            float *gi = gates_[t].data() + r * h4;
            const float *px = pre_x_.data() + r * h4;
            const float *ph = pre_h_.data() + r * h4;
            for (std::size_t j = 0; j < h4; ++j)
                gi[j] = px[j] + ph[j] + pb[j];
            // Gate order i, f, g, o along the packed axis.
            float *gf = gi + hidden_;
            float *gg = gf + hidden_;
            float *go = gg + hidden_;
            tensor::sigmoidArray(gi, gi, 2 * hidden_);
            tensor::tanhArray(gg, gg, hidden_);
            tensor::sigmoidArray(go, go, hidden_);
            const float *c_prev = cs_[t].data() + r * hidden_;
            float *c = cs_[t + 1].data() + r * hidden_;
            float *tc = tanh_c_[t].data() + r * hidden_;
            float *h = hs_[t + 1].data() + r * hidden_;
            for (std::size_t j = 0; j < hidden_; ++j)
                c[j] = gf[j] * c_prev[j] + gi[j] * gg[j];
            tensor::tanhArray(c, tc, hidden_);
            for (std::size_t j = 0; j < hidden_; ++j)
                h[j] = go[j] * tc[j];
        }
    }
    out_buf_ = hs_[steps_];
    return out_buf_;
}

const Tensor &
LSTM::backward(const Tensor &grad_out)
{
    const std::size_t n = cached_n_;
    if (n == 0)
        util::fatal(name() + ": backward before forward");
    requireGradOut(grad_out, {n, hidden_});
    const std::size_t h4 = 4 * hidden_;

    if (input_grad_) {
        grad_in_.resize({n, steps_, in_});
        grad_in_.zero();
    }
    dh_.resize({n, hidden_});
    dc_.resize({n, hidden_});
    dc_.zero();
    // dpre_ is fully overwritten each timestep before it is read.
    dpre_.resize({n, h4});
    std::copy(grad_out.data(), grad_out.data() + n * hidden_, dh_.data());

    for (std::size_t t = steps_; t-- > 0;) {
        const float *pg = gates_[t].data();
        const float *ptc = tanh_c_[t].data();
        const float *pc_prev = cs_[t].data();
        const float *pdh = dh_.data();
        float *pdc = dc_.data();
        float *pdp = dpre_.data();
        for (std::size_t r = 0; r < n; ++r) {
            const std::size_t row = r * h4;
            const float *gi = pg + row;
            const float *gf = gi + hidden_;
            const float *gg = gf + hidden_;
            const float *go = gg + hidden_;
            float *dpi = pdp + row;
            float *dpf = dpi + hidden_;
            float *dpg = dpf + hidden_;
            float *dpo = dpg + hidden_;
            for (std::size_t j = 0; j < hidden_; ++j) {
                const std::size_t idx = r * hidden_ + j;
                const float tc = ptc[idx];
                const float dho = pdh[idx];
                // h = o * tanh(c)
                const float d_o = dho * tc;
                float d_c = pdc[idx] + dho * go[j] * (1.0f - tc * tc);
                const float d_i = d_c * gg[j];
                const float d_f = d_c * pc_prev[idx];
                const float d_g = d_c * gi[j];
                // Gradient through the gate nonlinearities.
                dpi[j] = d_i * gi[j] * (1.0f - gi[j]);
                dpf[j] = d_f * gf[j] * (1.0f - gf[j]);
                dpg[j] = d_g * (1.0f - gg[j] * gg[j]);
                dpo[j] = d_o * go[j] * (1.0f - go[j]);
                // Carry the cell gradient to t-1.
                pdc[idx] = d_c * gf[j];
            }
        }
        // Parameter gradients, each into its own stable-shape scratch so
        // no buffer is reshaped (reallocated) between the three GEMMs.
        tensor::matmulTransA(xs_[t], dpre_, dwx_step_);
        dwx_ += dwx_step_;
        tensor::matmulTransA(hs_[t], dpre_, dwh_step_);
        dwh_ += dwh_step_;
        float *pdb = db_.data();
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t j = 0; j < h4; ++j)
                pdb[j] += pdp[r * h4 + j];
        // Input gradient slice.
        if (input_grad_) {
            tensor::matmulTransB(dpre_, wx_, dx_step_);  // [n, in]
            for (std::size_t r = 0; r < n; ++r) {
                float *dst = grad_in_.data() + (r * steps_ + t) * in_;
                const float *src = dx_step_.data() + r * in_;
                for (std::size_t j = 0; j < in_; ++j)
                    dst[j] += src[j];
            }
        }
        // Hidden gradient to t-1.
        tensor::matmulTransB(dpre_, wh_, dh_);
    }
    return input_grad_ ? grad_in_ : noInputGrad();
}

std::uint64_t
LSTM::flopsPerSample() const
{
    // Per step: x Wx (2*in*4H) + h Wh (2*H*4H) + ~12 elementwise FLOPs per
    // hidden unit for gate math.
    const std::uint64_t per_step =
        2ULL * in_ * 4 * hidden_ + 2ULL * hidden_ * 4 * hidden_ +
        12ULL * hidden_;
    return per_step * steps_;
}

} // namespace nn
} // namespace fedgpo
