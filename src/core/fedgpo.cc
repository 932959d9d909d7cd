#include "core/fedgpo.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "util/logging.h"

namespace fedgpo {
namespace core {

namespace {

void
checkKnob(bool ok, const char *knob, const char *range, double value)
{
    if (!ok)
        util::fatal(std::string("FedGpoConfig: ") + knob + " must be " +
                    range + ", got " + std::to_string(value));
}

// Every comparison with NaN is false, so each range test rejects it.
void
validate(const FedGpoConfig &c)
{
    checkKnob(c.gamma > 0.0 && c.gamma <= 1.0, "gamma", "in (0, 1]",
              c.gamma);
    checkKnob(c.mu >= 0.0 && c.mu < 1.0, "mu", "in [0, 1)", c.mu);
    checkKnob(c.epsilon >= 0.0 && c.epsilon <= 1.0, "epsilon", "in [0, 1]",
              c.epsilon);
    const RewardConfig &r = c.reward;
    for (const auto &[knob, value] :
         {std::pair{"optimism", c.optimism}, {"reward.alpha", r.alpha},
          {"reward.beta", r.beta}, {"reward.energy_weight", r.energy_weight},
          {"reward.delta_cap", r.delta_cap},
          {"reward.stall_energy_factor", r.stall_energy_factor},
          {"reward.staleness_weight", r.staleness_weight}})
        checkKnob(value >= 0.0 && std::isfinite(value), knob,
                  "finite and >= 0", value);
}

} // namespace

FedGpo::FedGpo(const FedGpoConfig &config)
    : config_(config), rng_(config.seed)
{
    validate(config_);
    // One shared Q-table per performance category (Section 3.3).
    for (std::size_t c = 0; c < device::kNumCategories; ++c) {
        category_tables_.push_back(std::make_unique<QTable>(
            kNumStates, kNumDeviceActions, rng_, 0.0, config_.optimism));
    }
    k_table_ = std::make_unique<QTable>(kNumGlobalStates,
                                        kNumClientActions, rng_, 0.0,
                                        config_.optimism);
}

const QTable &
FedGpo::categoryTable(device::Category c) const
{
    return *category_tables_[static_cast<std::size_t>(c)];
}

void
FedGpo::learn(QTable &table, std::size_t state, std::size_t action,
              double reward) const
{
    // Sample-average schedule: the first visit overwrites the random
    // initialization entirely, later visits average — then the rate
    // floors at config gamma so the estimate keeps tracking the (mildly
    // nonstationary) environment.
    const double gamma =
        std::max(config_.gamma, 1.0 / (1.0 + table.visits(state, action)));
    table.update(state, action, reward, state, gamma, config_.mu);
}

int
FedGpo::chooseClients(int max_k)
{
    // The global state for K uses the census recorded at the last assign
    // (the model architecture is fixed over a run) plus the most recent
    // average data-heterogeneity bucket.
    if (!has_pending_k_ && pending_.empty() && rounds_seen_ == 0) {
        // First round: no census has been seen yet, so the K state is
        // the initial data bucket alone; assign() folds the census in.
        pending_k_state_ = last_data_bucket_;
    }
    const std::size_t state = pending_k_state_;
    bool explored = false;
    std::size_t action = k_table_->bestAction(state);
    if (!k_table_->stateSwept(state) && rng_.uniform() < config_.epsilon) {
        explored = true;
        action = rng_.index(kNumClientActions);
    }
    pending_k_action_ = action;
    has_pending_k_ = true;
    const int k = std::min(clientActionValue(action), max_k);

    // Start this round's decision record. Everything recorded below is a
    // read of already-computed policy state — no RNG draws, no Q writes —
    // so the record is observationally inert.
    decision_ = obs::DecisionRecord{};
    decision_.round = static_cast<int>(rounds_seen_) + 1;
    decision_.epsilon = config_.epsilon;
    decision_.k_state = state;
    decision_.k_action = action;
    decision_.k_value = k;
    decision_.k_explored = explored;
    decision_.k_swept = k_table_->stateSwept(state);
    decision_.k_qrow.reserve(kNumClientActions);
    for (std::size_t a = 0; a < kNumClientActions; ++a)
        decision_.k_qrow.push_back(k_table_->q(state, a));
    return k;
}

std::vector<fl::PerDeviceParams>
FedGpo::assign(const std::vector<fl::DeviceObservation> &devices,
               const nn::LayerCensus &census)
{
    pending_.clear();
    decision_.devices.clear();
    decision_.devices.reserve(devices.size());
    std::vector<fl::PerDeviceParams> out;
    out.reserve(devices.size());
    std::size_t data_bucket_sum = 0;
    // Within-round spread: devices sharing a (table, state) take distinct
    // top-valued actions rather than all repeating the current greedy
    // one, so one aggregation round samples several actions per state —
    // the parallel design-space exploration that shared per-category
    // tables enable (Section 3.3).
    std::map<std::pair<std::size_t, std::size_t>, std::set<std::size_t>>
        taken;
    for (const auto &obs : devices) {
        const StateKey key = encodeState(census, obs);
        const std::size_t state = key.index();
        data_bucket_sum += key.data;
        const auto table_key = std::make_pair(
            static_cast<std::size_t>(obs.category), state);
        const QTable &table = categoryTable(obs.category);
        std::size_t action;
        bool explored = false;
        if (table.stateSwept(state)) {
            // Learning phase over for this state: exploit the greedy
            // action (paper Section 3.3), with occasional *neighborhood*
            // exploration — revisiting actions adjacent in (B, E) keeps
            // their sample means fresh so the greedy can drift to the
            // true local optimum, while bounding the straggler cost an
            // exploratory action can inflict on the round.
            action = table.bestAction(state);
            if (rng_.uniform() < config_.epsilon) {
                explored = true;
                const auto greedy = deviceActionParams(action);
                std::vector<std::size_t> neighbors;
                for (std::size_t a = 0; a < kNumDeviceActions; ++a) {
                    const auto p = deviceActionParams(a);
                    const bool b_adj = p.epochs == greedy.epochs &&
                                       (p.batch == greedy.batch * 2 ||
                                        greedy.batch == p.batch * 2);
                    const bool e_adj =
                        p.batch == greedy.batch &&
                        std::abs(p.epochs - greedy.epochs) <= 5 &&
                        p.epochs != greedy.epochs;
                    if (b_adj || e_adj)
                        neighbors.push_back(a);
                }
                if (!neighbors.empty())
                    action = neighbors[rng_.index(neighbors.size())];
            }
        } else if (rng_.uniform() < config_.epsilon) {
            action = rng_.index(kNumDeviceActions);
            explored = true;
        } else {
            action = table.bestAction(state);
            if (taken[table_key].count(action) != 0) {
                // Greedy already dispatched to a peer this round: spend
                // this device on the best never-tried action, if any
                // remain.
                for (std::size_t a : table.actionsByValue(state)) {
                    if (table.visits(state, a) == 0 &&
                        taken[table_key].count(a) == 0) {
                        action = a;
                        break;
                    }
                }
            }
        }
        taken[table_key].insert(action);
        pending_.push_back(
            Decision{obs.client_id, obs.category, state, action});
        const auto chosen = deviceActionParams(action);
        obs::DeviceDecision dd;
        dd.client_id = obs.client_id;
        dd.state = state;
        dd.action = action;
        dd.batch = chosen.batch;
        dd.epochs = chosen.epochs;
        dd.explored = explored;
        dd.q = table.q(state, action);
        dd.visits = table.visits(state, action);
        decision_.devices.push_back(dd);
        out.push_back(deviceActionParams(action));
    }
    // Refresh the global state used by the next chooseClients().
    if (!devices.empty()) {
        last_data_bucket_ =
            data_bucket_sum / devices.size();  // rounded-down mean bucket
    }
    pending_k_state_ = encodeGlobalState(census, last_data_bucket_);
    return out;
}

void
FedGpo::feedback(const fl::RoundResult &result)
{
    ++rounds_seen_;
    global_energy_norm_.observe(result.energy_total);
    const double e_global =
        global_energy_norm_.normalize(result.energy_total);

    // Staleness state of the event-driven protocols, folded into Eq. 1:
    // mean τ mapped to [0, 1) via τ/(1+τ). Exactly 0 in Sync mode (the
    // result never carries staleness there), which skips the reward
    // term entirely and keeps synchronous feedback bit-identical.
    const double staleness_norm =
        result.staleness_mean > 0.0
            ? result.staleness_mean / (1.0 + result.staleness_mean)
            : 0.0;

    // Smooth the accuracy signal before it enters Eq. 1: the raw
    // per-round test accuracy is jumpy on small evaluation sets, and an
    // unsmoothed signal flips the reward between Eq. 1's two branches at
    // random, burying the per-action energy differences in noise.
    const double prev_smooth = accuracy_smooth_;
    accuracy_smooth_ = rounds_seen_ == 1
                           ? result.test_accuracy
                           : 0.5 * accuracy_smooth_ +
                                 0.5 * result.test_accuracy;

    // Per-device updates: each participating device's decision earns the
    // Eq. 1 reward with its own local-energy term. Improvement credit is
    // split in proportion to each device's share of the round's training
    // work (epochs), mirroring FedAvg's own update weighting.
    double mean_epochs = 0.0;
    std::size_t kept = 0;
    for (const auto &p : result.participants) {
        if (!p.dropped) {
            mean_epochs += p.params.epochs;
            ++kept;
        }
    }
    mean_epochs = kept > 0 ? mean_epochs / static_cast<double>(kept) : 1.0;
    double device_reward_sum = 0.0;
    std::size_t devices_rewarded = 0;
    for (const auto &p : result.participants) {
        local_energy_norm_.observe(p.cost.e_total);
        const double e_local = local_energy_norm_.normalize(p.cost.e_total);
        // Concave (square-root) credit: marginal epochs have
        // diminishing returns on the aggregate, so credit must not grow
        // linearly or every tier is pushed to the maximum E.
        const double share = std::clamp(
            std::sqrt(static_cast<double>(p.params.epochs) /
                      std::max(mean_epochs, 1.0)),
            0.3, 2.5);
        double reward =
            fedgpoReward(e_global, e_local, accuracy_smooth_, prev_smooth,
                         share, config_.reward, staleness_norm);
        // A dropped straggler wasted its whole budget: its decision is
        // penalized below any stall-branch outcome.
        if (p.dropped) {
            reward = accuracy_smooth_ * 100.0 - 100.0 -
                     config_.reward.energy_weight * (e_global + e_local) -
                     30.0;
        }
        for (const auto &d : pending_) {
            if (d.client_id == p.client_id) {
                QTable &table =
                    *category_tables_[static_cast<std::size_t>(d.category)];
                learn(table, d.state, d.action, reward);
                device_reward_sum += reward;
                ++devices_rewarded;
                break;
            }
        }
    }

    // Global K update with the device-agnostic reward. K directly scales
    // how much data each round aggregates, so its improvement term keeps
    // a much higher cap than the per-device one — masking the progress
    // difference between K=20 and K=5 would push the policy to tiny
    // cohorts long before the model has converged.
    double global_reward = 0.0;
    if (has_pending_k_) {
        RewardConfig k_reward = config_.reward;
        k_reward.delta_cap = 8.0;
        const RewardBreakdown breakdown =
            fedgpoRewardDetailed(e_global, 0.0, accuracy_smooth_,
                                 prev_smooth, 1.0, k_reward, staleness_norm);
        global_reward = breakdown.total;
        decision_.reward.total = breakdown.total;
        decision_.reward.energy_global_term = breakdown.energy_global_term;
        decision_.reward.energy_local_term = breakdown.energy_local_term;
        decision_.reward.accuracy_term = breakdown.accuracy_term;
        decision_.reward.improvement_term = breakdown.improvement_term;
        decision_.reward.stall_penalty = breakdown.stall_penalty;
        decision_.reward.staleness_term = breakdown.staleness_term;
        decision_.reward.stall_branch = breakdown.stall;
        // An aborted round (quorum missed under fault injection) burned
        // energy and made zero progress: penalize the chosen K below any
        // stall-branch outcome so the learner raises the cohort size —
        // over-provisioning against dropout — rather than shrinking it.
        if (result.aborted) {
            global_reward = accuracy_smooth_ * 100.0 - 100.0 - 50.0;
            decision_.reward = obs::RewardTerms{};
            decision_.reward.total = global_reward;
            decision_.reward.accuracy_term = accuracy_smooth_ * 100.0;
            decision_.reward.stall_penalty = -100.0;
            decision_.reward.abort_penalty = -50.0;
            decision_.reward.stall_branch = true;
            decision_.reward.aborted = true;
        }
        learn(*k_table_, pending_k_state_, pending_k_action_, global_reward);
        has_pending_k_ = false;
    }

    decision_.device_reward_mean =
        devices_rewarded > 0
            ? device_reward_sum / static_cast<double>(devices_rewarded)
            : 0.0;
    decision_.devices_rewarded = devices_rewarded;
    decision_.complete = true;

    pending_.clear();
}

const obs::DecisionRecord *
FedGpo::lastDecision() const
{
    return decision_.complete ? &decision_ : nullptr;
}

std::size_t
FedGpo::qTableBytes() const
{
    std::size_t total = k_table_->bytes();
    for (const auto &t : category_tables_)
        total += t->bytes();
    return total;
}

void
FedGpo::saveState(std::ostream &os) const
{
    for (const auto &t : category_tables_)
        t->serialize(os);
    k_table_->serialize(os);
}

void
FedGpo::loadState(std::istream &is)
{
    for (auto &t : category_tables_)
        t->deserialize(is);
    k_table_->deserialize(is);
}

double
FedGpo::learningDelta() const
{
    double max_delta = k_table_->recentMaxDelta();
    for (const auto &t : category_tables_)
        max_delta = std::max(max_delta, t->recentMaxDelta());
    return max_delta;
}

} // namespace core
} // namespace fedgpo
