#include "fleet/hierarchy.h"

#include <algorithm>
#include <cassert>

#include "runtime/thread_pool.h"

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

void
hierarchicalFold(const std::vector<Contribution> &contribs,
                 const std::vector<float> &global, std::size_t chunk,
                 std::size_t edge_groups, runtime::ThreadPool *pool,
                 std::vector<double> &acc)
{
    assert(chunk >= 1);
    const std::size_t n = contribs.size();
    const std::size_t n_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
    std::vector<std::vector<double>> partials(n_chunks);

    // Edge fan-out: each group owns a contiguous chunk range and fills
    // only its own partial slots, so scheduling cannot reorder any FP
    // operation — the reduce below fixes the remaining order.
    const std::size_t groups =
        std::min(edge_groups == 0 ? 1 : edge_groups,
                 n_chunks == 0 ? 1 : n_chunks);
    auto fold_group = [&](std::size_t g) {
        const std::size_t per = (n_chunks + groups - 1) / groups;
        const std::size_t first = g * per;
        const std::size_t last = std::min(first + per, n_chunks);
        for (std::size_t c = first; c < last; ++c) {
            const std::size_t begin = c * chunk;
            const std::size_t end = std::min(begin + chunk, n);
            foldContributions(
                std::span(contribs).subspan(begin, end - begin), global,
                partials[c]);
        }
    };
    if (pool != nullptr && pool->size() > 1 && groups > 1) {
        pool->parallelFor(groups,
                          [&](std::size_t g, std::size_t) { fold_group(g); });
    } else {
        for (std::size_t g = 0; g < groups; ++g)
            fold_group(g);
    }

    // Server reduce: partials in ascending chunk order, left to right.
    acc.assign(global.size(), 0.0);
    for (std::size_t c = 0; c < n_chunks; ++c) {
        const std::vector<double> &p = partials[c];
        for (std::size_t j = 0; j < acc.size(); ++j)
            acc[j] += p[j];
    }
}

} // namespace fleet
} // namespace fedgpo
