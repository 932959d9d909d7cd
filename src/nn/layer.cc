#include "nn/layer.h"

#include <algorithm>

#include "util/logging.h"

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

void
Layer::requireInput(const Tensor &in,
                    std::initializer_list<std::size_t> item) const
{
    const tensor::Shape &s = in.shape();
    if (s.size() == item.size() + 1 &&
        std::equal(item.begin(), item.end(), s.begin() + 1))
        return;
    std::string want = "[n";
    for (std::size_t d : item)
        want += ", " + std::to_string(d);
    util::fatal(name() + ": input " + tensor::shapeToString(s) +
                ", expected " + want + "]");
}

void
Layer::requireGradOut(const Tensor &grad_out,
                      std::initializer_list<std::size_t> want) const
{
    const tensor::Shape &s = grad_out.shape();
    if (!std::equal(s.begin(), s.end(), want.begin(), want.end()))
        requireGradOut(grad_out, tensor::Shape(want));
}

void
Layer::requireGradOut(const Tensor &grad_out, const tensor::Shape &want) const
{
    if (grad_out.shape() == want)
        return;
    util::fatal(name() + ": output gradient " +
                tensor::shapeToString(grad_out.shape()) + ", expected " +
                tensor::shapeToString(want));
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
