#include "nn/sgd.h"

#include <cassert>
#include <cmath>

#include "obs/metrics.h"

namespace fedgpo {
namespace nn {

Sgd::Sgd(double lr, double momentum, double clip_norm)
    : lr_(lr), momentum_(momentum), clip_norm_(clip_norm)
{
}

void
Sgd::step(Model &model)
{
    obs::ScopedTimer timer(obs::spanIf(obs::Level::Profile, "model.update"));
    const auto &params = model.params();
    const auto &grads = model.grads();
    assert(params.size() == grads.size());
    if (clip_norm_ > 0.0) {
        double norm2 = 0.0;
        for (Tensor *g : grads)
            norm2 += g->squaredNorm();
        const double norm = std::sqrt(norm2);
        if (norm > clip_norm_) {
            const float scale = static_cast<float>(clip_norm_ / norm);
            for (Tensor *g : grads)
                *g *= scale;
        }
    }
    const float lr = static_cast<float>(lr_);
    if (momentum_ == 0.0) {
        for (std::size_t i = 0; i < params.size(); ++i)
            params[i]->addScaled(*grads[i], -lr);
        return;
    }
    const float mu = static_cast<float>(momentum_);
    if (velocity_.size() != params.size()) {
        velocity_.clear();
        for (Tensor *p : params)
            velocity_.emplace_back(p->shape());
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        Tensor &v = velocity_[i];
        assert(v.shape() == params[i]->shape());
        v *= mu;
        v.addScaled(*grads[i], 1.0f);
        params[i]->addScaled(v, -lr);
    }
}

} // namespace nn
} // namespace fedgpo
