#include "core/action_space.h"

#include <cassert>

#include "util/logging.h"

namespace fedgpo {
namespace core {

fl::PerDeviceParams
deviceActionParams(std::size_t action)
{
    assert(action < kNumDeviceActions);
    fl::PerDeviceParams params;
    params.batch = kBatchSet[action / kEpochSet.size()];
    params.epochs = kEpochSet[action % kEpochSet.size()];
    return params;
}

std::size_t
deviceActionIndex(const fl::PerDeviceParams &params)
{
    for (std::size_t bi = 0; bi < kBatchSet.size(); ++bi) {
        for (std::size_t ei = 0; ei < kEpochSet.size(); ++ei) {
            if (kBatchSet[bi] == params.batch &&
                kEpochSet[ei] == params.epochs) {
                return bi * kEpochSet.size() + ei;
            }
        }
    }
    util::fatal("deviceActionIndex: (B, E) not in the Table 2 grid");
}

int
clientActionValue(std::size_t action)
{
    assert(action < kNumClientActions);
    return kClientSet[action];
}

std::size_t
clientActionIndex(int k)
{
    for (std::size_t i = 0; i < kClientSet.size(); ++i)
        if (kClientSet[i] == k)
            return i;
    util::fatal("clientActionIndex: K not in the Table 2 grid");
}

std::vector<fl::GlobalParams>
allGlobalParams()
{
    std::vector<fl::GlobalParams> out;
    out.reserve(kBatchSet.size() * kEpochSet.size() * kClientSet.size());
    for (int b : kBatchSet)
        for (int e : kEpochSet)
            for (int k : kClientSet)
                out.push_back(fl::GlobalParams{b, e, k});
    return out;
}

} // namespace core
} // namespace fedgpo
