#include "fleet/fold.h"

#include <cassert>

namespace fedgpo {
namespace fleet {

void
foldContributions(std::span<const Contribution> contribs,
                  const std::vector<float> &global, std::vector<double> &acc)
{
    acc.assign(global.size(), 0.0);
    for (const Contribution &c : contribs) {
        assert(c.weights != nullptr && c.weights->size() == global.size());
        const std::vector<float> &wv = *c.weights;
        const double wgt = c.weight;
        if (c.scale == 1.0) {
            for (std::size_t j = 0; j < acc.size(); ++j)
                acc[j] += wgt * wv[j];
        } else {
            const double s = c.scale;
            for (std::size_t j = 0; j < acc.size(); ++j)
                acc[j] += wgt * (global[j] + s * (wv[j] - global[j]));
        }
    }
}

} // namespace fleet
} // namespace fedgpo
