#include "data/partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <string>

#include "util/logging.h"

namespace fedgpo {
namespace data {

Partition
iidPartition(const Dataset &dataset, std::size_t n_devices, util::Rng &rng)
{
    assert(n_devices > 0);
    std::vector<std::size_t> order = iidAssignmentOrder(dataset.size(), rng);
    Partition shards(n_devices);
    for (std::size_t i = 0; i < order.size(); ++i)
        shards[i % n_devices].push_back(order[i]);
    return shards;
}

std::vector<std::size_t>
iidAssignmentOrder(std::size_t samples, util::Rng &rng)
{
    std::vector<std::size_t> order(samples);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    return order;
}

Partition
dirichletPartition(const Dataset &dataset, std::size_t n_devices,
                   double alpha, util::Rng &rng,
                   std::size_t min_per_device)
{
    assert(n_devices > 0);
    // NaN or inf proportions would be cast to size_t below (undefined
    // behaviour), and alpha <= 0 has no Gamma draw.
    if (!(std::isfinite(alpha) && alpha > 0.0))
        util::fatal("dirichletPartition: alpha must be finite and > 0, "
                    "got " +
                    std::to_string(alpha));
    Partition shards(n_devices);

    // Bucket sample indices by class, shuffled within each class.
    std::vector<std::vector<std::size_t>> by_class(dataset.numClasses());
    for (std::size_t i = 0; i < dataset.size(); ++i)
        by_class[static_cast<std::size_t>(dataset.label(i))].push_back(i);
    for (auto &bucket : by_class)
        rng.shuffle(bucket);

    // For each class, split its samples across devices with Dirichlet
    // proportions.
    for (auto &bucket : by_class) {
        if (bucket.empty())
            continue;
        std::vector<double> props = rng.dirichlet(alpha, n_devices);
        // Convert proportions to cumulative cut points.
        std::size_t assigned = 0;
        for (std::size_t d = 0; d < n_devices; ++d) {
            std::size_t take =
                d + 1 == n_devices
                    ? bucket.size() - assigned
                    : static_cast<std::size_t>(props[d] *
                                               static_cast<double>(
                                                   bucket.size()));
            take = std::min(take, bucket.size() - assigned);
            for (std::size_t i = 0; i < take; ++i)
                shards[d].push_back(bucket[assigned + i]);
            assigned += take;
        }
    }

    // Top up starved devices from the largest shards so every client can
    // form at least one batch.
    for (std::size_t d = 0; d < n_devices; ++d) {
        while (shards[d].size() < min_per_device) {
            auto donor = std::max_element(
                shards.begin(), shards.end(),
                [](const auto &a, const auto &b) {
                    return a.size() < b.size();
                });
            if (donor->size() <= min_per_device)
                break;  // nothing left to redistribute
            shards[d].push_back(donor->back());
            donor->pop_back();
        }
    }
    return shards;
}

Partition
makePartition(const Dataset &dataset, std::size_t n_devices,
              Distribution dist, util::Rng &rng, double alpha)
{
    switch (dist) {
      case Distribution::IidIdeal:
        return iidPartition(dataset, n_devices, rng);
      case Distribution::NonIid:
        return dirichletPartition(dataset, n_devices, alpha, rng);
    }
    return {};
}

} // namespace data
} // namespace fedgpo
