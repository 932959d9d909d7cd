#include "nn/layer.h"

namespace fedgpo {
namespace nn {

void
Layer::zeroGrad()
{
    for (Tensor *g : grads())
        g->zero();
}

const Tensor &
Layer::noInputGrad()
{
    static const Tensor empty;
    return empty;
}

std::size_t
Layer::paramCount()
{
    std::size_t n = 0;
    for (Tensor *p : params())
        n += p->numel();
    return n;
}

} // namespace nn
} // namespace fedgpo
