/**
 * @file
 * Shared value types of the FL simulator: global parameters, per-device
 * assignments, and per-round results.
 */

#ifndef FEDGPO_FL_TYPES_H_
#define FEDGPO_FL_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "device/cost_model.h"
#include "device/device_profile.h"
#include "device/interference.h"
#include "device/network_model.h"

namespace fedgpo {
namespace fl {

/**
 * The paper's global FL parameters: local minibatch size B, local epoch
 * count E, and participant count K (Algorithm 1).
 */
struct GlobalParams
{
    int batch = 8;    //!< B
    int epochs = 10;  //!< E
    int clients = 20; //!< K

    bool
    operator==(const GlobalParams &o) const
    {
        return batch == o.batch && epochs == o.epochs &&
               clients == o.clients;
    }

    std::string toString() const;
};

/**
 * Per-device round assignment: FedGPO adapts B and E per device
 * (K is a single global knob per round).
 */
struct PerDeviceParams
{
    int batch = 8;
    int epochs = 10;

    bool
    operator==(const PerDeviceParams &o) const
    {
        return batch == o.batch && epochs == o.epochs;
    }
};

/**
 * What an optimizer sees about one selected device before assigning its
 * parameters — exactly the per-device state FedGPO featurizes (Table 1):
 * co-runner CPU/memory usage, network bandwidth, and local data classes.
 */
struct DeviceObservation
{
    std::size_t client_id = 0;
    device::Category category = device::Category::High;
    device::InterferenceState interference;
    device::NetworkState network;
    std::size_t data_classes = 0;  //!< distinct classes in the local shard
    std::size_t total_classes = 0; //!< classes in the global task
    std::size_t shard_size = 0;    //!< local sample count
};

/**
 * Server-side aggregation protocol (src/fl/async/). Sync is the
 * round-barrier default and stays bit-identical to the historical
 * pipeline; the other two are event-driven over fleet::VirtualClock.
 */
enum class ProtocolMode
{
    Sync,     //!< round barrier; aggregate all kept updates at once
    Async,    //!< FedAsync-style: fold each arrival, staleness-weighted
    Buffered, //!< FedBuff-style: flush every M arrivals (or on timeout)
};

/** Short stable label ("sync"/"async"/"buffered"). */
const char *protocolModeName(ProtocolMode mode);

/**
 * Why a participant's update was excluded from aggregation.
 */
enum class DropReason
{
    None,         //!< update kept
    Straggler,    //!< exceeded the round deadline (dropStragglers)
    Diverged,     //!< update contained non-finite values (server rejection)
    Offline,      //!< device unreachable at selection (fault injection)
    Crashed,      //!< device died mid-training (fault injection)
    UploadFailed, //!< upload retries exhausted (fault injection)
    Churned,      //!< lost in flight between dispatch and arrival (async)
    Stale,        //!< arrived with staleness > max_staleness (async)
    Duplicate,    //!< second delivery of an already-folded dispatch (async)
};

/**
 * Short stable label for a DropReason
 * ("none"/"straggler"/"diverged"/"offline"/"crashed"/"upload_failed"/
 * "churned"/"stale"/"duplicate").
 */
const char *dropReasonName(DropReason reason);

/**
 * Per-participant outcome of a round.
 */
struct ClientRoundReport
{
    std::size_t client_id = 0;
    device::Category category = device::Category::High;
    PerDeviceParams params;
    device::RoundCost cost;
    device::InterferenceState interference;
    device::NetworkState network;
    std::size_t samples = 0;
    double train_loss = 0.0;
    bool dropped = false;  //!< update excluded (see drop_reason)
    DropReason drop_reason = DropReason::None;

    /**
     * Fraction of this client's update the server blends into the
     * global model. 1 for a full contribution; Async stores its mixing
     * weight here and Buffered the update's staleness scale. A crashed
     * client's report reuses it for the work fraction completed before
     * the crash (the update itself is dropped), and an offline device's
     * is 0 (no work happened).
     */
    double update_scale = 1.0;

    /** Upload retransmissions this round (fault injection). */
    int upload_retries = 0;

    /**
     * Modeled uplink traffic in exact proxy bytes: the encoded update
     * payload, including every retransmission. 0 for a device that
     * never reached the upload (offline, crashed).
     */
    std::uint64_t bytes_up = 0;

    /** Modeled downlink traffic (full global model; 0 when offline). */
    std::uint64_t bytes_down = 0;

    /**
     * Modeled arrival time of this client's upload on the fleet's
     * virtual clock (absolute seconds since campaign start), assigned by
     * draining the completion-event queue in timestamp order. -1 for a
     * device whose update never arrives (offline or crashed).
     * Annotation only in the synchronous pipeline — no modeled result
     * depends on it.
     */
    double arrival_ts = -1.0;

    /** 0-based arrival order within the round; -1 when never arriving. */
    int arrival_rank = -1;

    /**
     * Modeled time the server dispatched this client (absolute seconds
     * on the fleet's virtual clock). -1 in the synchronous pipeline,
     * whose dispatches all happen at the round barrier.
     */
    double dispatch_ts = -1.0;

    /**
     * Modeled time this client's update was folded into the global
     * model (async: its own apply instant; buffered: the flush
     * instant). -1 when the update was never folded or in Sync mode.
     */
    double applied_ts = -1.0;

    /**
     * Staleness τ: global model versions folded between this client's
     * dispatch and its arrival. 0 means the model it trained against
     * was still current. -1 in Sync mode and for updates that never
     * arrived (offline/churned).
     */
    int staleness = -1;
};

/**
 * Full outcome of one aggregation round.
 */
struct RoundResult
{
    int round = 0;
    std::vector<ClientRoundReport> participants;
    double round_time = 0.0;          //!< straggler-gated wall clock (s)
    double ts_start = 0.0; //!< virtual-clock time at round start (s)
    double ts_end = 0.0;   //!< virtual-clock time at round end (s)
    double energy_participants = 0.0; //!< sum of Eq. 5 first case (J)
    double energy_idle = 0.0;         //!< Eq. 4 over non-participants (J)
    double energy_total = 0.0;        //!< Eq. 6 (J)
    double test_accuracy = 0.0;
    double test_loss = 0.0;
    double train_loss = 0.0;          //!< mean over kept participants
    std::size_t dropped_straggler = 0; //!< deadline exceeded
    std::size_t dropped_diverged = 0;  //!< non-finite update rejected
    std::size_t dropped_offline = 0;   //!< unreachable at selection
    std::size_t dropped_crashed = 0;   //!< died mid-training
    std::size_t dropped_upload = 0;    //!< upload retries exhausted
    std::size_t dropped_churn = 0;     //!< lost in flight (async)
    std::size_t dropped_stale = 0;     //!< staleness bound exceeded (async)
    std::size_t dropped_duplicate = 0; //!< repeat delivery rejected (async)
    std::size_t upload_retries = 0;    //!< total retransmissions
    std::size_t samples_aggregated = 0;

    /** Protocol that produced this result. */
    ProtocolMode protocol = ProtocolMode::Sync;

    /**
     * Global model version after this round/epoch: the count of folds
     * applied since campaign start. In Sync mode each non-aborted round
     * bumps it by one; Async bumps per applied update, Buffered per
     * flush.
     */
    std::uint64_t model_version = 0;

    /** Mean staleness τ over folded updates; 0 in Sync mode. */
    double staleness_mean = 0.0;

    /** Max staleness τ over folded updates; 0 in Sync mode. */
    int staleness_max = 0;

    /** Update codec in force this round. */
    comm::Codec codec = comm::Codec::Identity;
    std::uint64_t bytes_up_total = 0;   //!< fleet uplink bytes (exact)
    std::uint64_t bytes_down_total = 0; //!< fleet downlink bytes (exact)

    /**
     * True when the quorum gate aborted the round before aggregation:
     * the global weights are untouched, but the energy the fleet burned
     * is still charged (a real server cannot refund it).
     */
    bool aborted = false;

    /** Total excluded participants, regardless of cause. */
    std::size_t
    droppedCount() const
    {
        return dropped_straggler + dropped_diverged + dropped_offline +
               dropped_crashed + dropped_upload + dropped_churn +
               dropped_stale + dropped_duplicate;
    }

    /**
     * Round-level performance-per-watt proxy: aggregated training work
     * per Joule. Used for reporting; the RL reward uses Eq. 1 directly.
     */
    double goodputPerJoule() const;
};

} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_TYPES_H_
