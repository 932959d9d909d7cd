/**
 * @file
 * The discrete global-parameter action space (paper Table 2):
 * B in {1,2,4,8,16,32}, E in {1,5,10,15,20}, K in {1,5,10,15,20}.
 *
 * FedGPO's per-device action is a (B, E) pair (30 actions per Q-table);
 * K is a separate global action (5 choices). The baselines search the
 * full 150-point (B, E, K) grid.
 */

#ifndef FEDGPO_CORE_ACTION_SPACE_H_
#define FEDGPO_CORE_ACTION_SPACE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "fl/types.h"

namespace fedgpo {
namespace core {

/** Table 2 value sets. */
inline constexpr std::array<int, 6> kBatchSet = {1, 2, 4, 8, 16, 32};
inline constexpr std::array<int, 5> kEpochSet = {1, 5, 10, 15, 20};
inline constexpr std::array<int, 5> kClientSet = {1, 5, 10, 15, 20};

/** Number of per-device (B, E) actions. */
inline constexpr std::size_t kNumDeviceActions =
    kBatchSet.size() * kEpochSet.size();

/** Number of global K actions. */
inline constexpr std::size_t kNumClientActions = kClientSet.size();

/** Decode a per-device action index into (B, E). */
fl::PerDeviceParams deviceActionParams(std::size_t action);

/** Encode (B, E) into the action index; values must be in Table 2. */
std::size_t deviceActionIndex(const fl::PerDeviceParams &params);

/** Decode a K action index into the participant count. */
int clientActionValue(std::size_t action);

/** Encode a K value into its action index; must be in Table 2. */
std::size_t clientActionIndex(int k);

/** Every (B, E, K) combination, in a fixed enumeration order. */
std::vector<fl::GlobalParams> allGlobalParams();

} // namespace core
} // namespace fedgpo

#endif // FEDGPO_CORE_ACTION_SPACE_H_
