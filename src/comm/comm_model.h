/**
 * @file
 * Communication model: converts a codec's encoded payload bytes into
 * modeled transmission time and radio energy through the existing
 * device::NetworkModel / device::uploadCost path (paper Eq. 3), so the
 * upload airtime, retry/backoff charges, straggler gating, and quorum
 * outcomes all respond to the codec choice.
 *
 * Byte bookkeeping convention: all byte counts are *proxy* bytes (the
 * tiny proxy model's payload); the workload's bytes_scale maps them onto
 * the full-size model inside the cost functions, exactly as the rest of
 * the cost model does. Compression ratios are scale-invariant.
 */

#ifndef FEDGPO_COMM_COMM_MODEL_H_
#define FEDGPO_COMM_COMM_MODEL_H_

#include <cstdint>

#include "comm/codec.h"
#include "device/cost_model.h"
#include "device/network_model.h"

namespace fedgpo {
namespace comm {

/**
 * Per-participant traffic record for one round, filled by the round
 * pipeline's Encode stage and consumed by the Cost/Recover stages and
 * the trace writer. Counts are exact integers (proxy bytes).
 */
struct CommRecord
{
    std::uint64_t bytes_up = 0;   //!< encoded update payload (+ retries)
    std::uint64_t bytes_down = 0; //!< global model download
};

/**
 * Thin facade over the device-layer transmission cost functions, keyed
 * by payload bytes instead of a fixed model size.
 */
class CommModel
{
  public:
    explicit CommModel(const device::WorkloadCost &cost) : cost_(&cost) {}

    /** One upload attempt of `payload_bytes` (Eq. 3 on the uplink). */
    device::TxCost
    uploadCost(std::uint64_t payload_bytes,
               const device::NetworkState &network) const
    {
        return device::uploadCost(*cost_,
                                  static_cast<std::size_t>(payload_bytes),
                                  network);
    }

    /** Airtime of a one-way transfer of `payload_bytes`. */
    double
    txTime(std::uint64_t payload_bytes,
           const device::NetworkState &network) const
    {
        return device::NetworkModel::txTime(
            static_cast<double>(payload_bytes) * cost_->bytes_scale,
            network.bandwidth_mbps);
    }

    /** Raw-bytes / encoded-bytes; 0 when nothing was uploaded. */
    static double
    compressionRatio(std::uint64_t full_bytes, std::uint64_t encoded_bytes)
    {
        if (encoded_bytes == 0)
            return 0.0;
        return static_cast<double>(full_bytes) /
               static_cast<double>(encoded_bytes);
    }

  private:
    const device::WorkloadCost *cost_;
};

} // namespace comm
} // namespace fedgpo

#endif // FEDGPO_COMM_COMM_MODEL_H_
