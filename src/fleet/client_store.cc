#include "fleet/client_store.h"

#include <algorithm>
#include <cassert>

#include "device/device_profile.h"
#include "device/interference.h"
#include "obs/tracing/trace.h"

namespace fedgpo {
namespace fleet {

namespace trc = obs::tracing;

namespace {

/**
 * Emit one client-lifecycle trace event (Evict/Rehydrate). These are
 * host-side bookkeeping, not dispatch-scoped: dispatch 0, no virtual
 * timestamp, round = the client's synced round.
 */
void
traceLifecycle(trc::EventKind kind, int round, std::size_t client_id,
               std::int64_t aux = -1)
{
    if (!trc::enabled())
        return;
    trc::TraceEvent e;
    e.kind = kind;
    e.round = round;
    e.client = client_id;
    e.aux = aux;
    trc::Tracer::instance().record(e);
}

} // namespace

// ---- ShardPlan -----------------------------------------------------------

std::vector<std::size_t>
ShardPlan::shardOf(std::size_t id) const
{
    assert(id < fleet);
    std::vector<std::size_t> shard;
    if (kind == Kind::Strided) {
        // The round-robin deal: shard d received order[d], order[d + n],
        // order[d + 2n], ... in exactly that element order (the order the
        // training shuffle starts from).
        shard.reserve(shardSize(id));
        for (std::size_t k = id; k < order.size(); k += fleet)
            shard.push_back(order[k]);
    } else {
        shard.assign(flat.begin() + static_cast<long>(offsets[id]),
                     flat.begin() + static_cast<long>(offsets[id + 1]));
    }
    return shard;
}

std::size_t
ShardPlan::shardSize(std::size_t id) const
{
    assert(id < fleet);
    if (kind == Kind::Strided) {
        const std::size_t base = order.size() / fleet;
        return base + (id < order.size() % fleet ? 1 : 0);
    }
    return offsets[id + 1] - offsets[id];
}

ShardPlan
ShardPlan::strided(std::size_t fleet, std::vector<std::size_t> order)
{
    ShardPlan plan;
    plan.kind = Kind::Strided;
    plan.fleet = fleet;
    plan.order = std::move(order);
    return plan;
}

ShardPlan
ShardPlan::csr(const std::vector<std::vector<std::size_t>> &partition)
{
    ShardPlan plan;
    plan.kind = Kind::Csr;
    plan.fleet = partition.size();
    plan.offsets.reserve(partition.size() + 1);
    plan.offsets.push_back(0);
    std::size_t total = 0;
    for (const auto &shard : partition)
        total += shard.size();
    plan.flat.reserve(total);
    for (const auto &shard : partition) {
        plan.flat.insert(plan.flat.end(), shard.begin(), shard.end());
        plan.offsets.push_back(plan.flat.size());
    }
    return plan;
}

// ---- ClientRecipe --------------------------------------------------------

util::Rng
ClientRecipe::clientRng(std::size_t id) const
{
    assert(!snapshots.empty() && stride > 0);
    assert(id / stride < snapshots.size());
    // Replay the eager constructor's derivation: the parent advanced one
    // draw per preceding client, then split with the client's tag.
    util::Rng parent = snapshots[id / stride];
    for (std::size_t k = 0; k < id % stride; ++k)
        parent.next();
    return parent.split(split_tag_base + id);
}

// ---- ClientStore ---------------------------------------------------------

ClientStore::ClientStore(ClientRecipe recipe, std::size_t lru_cap,
                         bool eager)
    : recipe_(std::move(recipe)), fleet_(recipe_.fleet), lru_cap_(lru_cap),
      lazy_(!eager)
{
    assert(recipe_.network != nullptr);
    resolveProbes();
    if (eager) {
        entries_.reserve(fleet_);
        for (std::size_t id = 0; id < fleet_; ++id)
            entries_.emplace(id, Entry{materialize(id), 0, 0});
        peak_resident_ = entries_.size();
    }
}

ClientStore::ClientStore(std::vector<Client> clients)
    : fleet_(clients.size()), lru_cap_(0), lazy_(false)
{
    resolveProbes();
    entries_.reserve(clients.size());
    for (auto &client : clients) {
        const std::size_t id = client.id();
        entries_.emplace(id, Entry{std::move(client), 0, 0});
    }
    peak_resident_ = entries_.size();
}

void
ClientStore::resolveProbes()
{
    resident_gauge_ =
        obs::gaugeIf(obs::Level::Basic, "fleet.resident_clients");
    banked_gauge_ =
        obs::gaugeIf(obs::Level::Basic, "fleet.banked_residuals");
    evictions_counter_ =
        obs::counterIf(obs::Level::Basic, "fleet.evictions");
}

Client
ClientStore::materialize(std::size_t id)
{
    assert(id < fleet_);
    device::InterferenceProcess interference(recipe_.interference);
    return Client(id, device::categoryAt(id, fleet_),
                  recipe_.shards.shardOf(id), std::move(interference),
                  recipe_.clientRng(id));
}

void
ClientStore::advanceEntry(Entry &entry, int round)
{
    assert(round >= entry.synced_round);
    if (round == entry.synced_round)
        return;
    // Adopted stores wrap externally owned clients: stepping their
    // runtime state is the owner's business, not the store's.
    if (recipe_.network == nullptr) {
        entry.synced_round = round;
        return;
    }
    // The runtime state is a pure fold over the client's private stream:
    // replaying the missed rounds reproduces bit-for-bit the state an
    // always-resident client would hold.
    for (int r = entry.synced_round; r < round; ++r)
        entry.client.stepRuntime(*recipe_.network);
    entry.synced_round = round;
}

Client &
ClientStore::acquire(std::size_t id, int round)
{
    auto it = entries_.find(id);
    if (it == entries_.end()) {
        assert(lazy_ && "eager/adopted stores hold the whole fleet");
        Entry entry{materialize(id), 0, 0};
        auto banked = residual_bank_.find(id);
        if (banked != residual_bank_.end()) {
            // Rehydrate the sticky error-feedback residual the eviction
            // banked; move semantics make the round trip lossless.
            entry.client.commResidual() = std::move(banked->second);
            residual_bank_.erase(banked);
            traceLifecycle(
                trc::EventKind::Rehydrate, round, id,
                static_cast<std::int64_t>(
                    entry.client.commResidual().size()));
        }
        it = entries_.emplace(id, std::move(entry)).first;
        peak_resident_ = std::max(peak_resident_, entries_.size());
    }
    it->second.last_used = ++use_clock_;
    advanceEntry(it->second, round);
    return it->second.client;
}

Client &
ClientStore::resident(std::size_t id) const
{
    auto it = entries_.find(id);
    assert(it != entries_.end() && "client not acquired this round");
    // Const is shallow here by design: parallel stages mutate
    // slot-private client state (the comm residual) through this lookup.
    return const_cast<Client &>(it->second.client);
}

bool
ClientStore::isResident(std::size_t id) const
{
    return entries_.find(id) != entries_.end();
}

void
ClientStore::endRound()
{
    if (resident_gauge_ != nullptr)
        resident_gauge_->set(static_cast<double>(entries_.size()));
    if (!lazy_ || lru_cap_ == 0 || entries_.size() <= lru_cap_)
        return;
    // Evict the least-recently-used surplus. Eviction order is pure
    // bookkeeping — every output is a function of client state values,
    // which materialization reconstructs exactly.
    std::vector<std::pair<std::uint64_t, std::size_t>> by_use;
    by_use.reserve(entries_.size());
    for (const auto &kv : entries_)
        by_use.emplace_back(kv.second.last_used, kv.first);
    std::sort(by_use.begin(), by_use.end());
    const std::size_t surplus = entries_.size() - lru_cap_;
    for (std::size_t i = 0; i < surplus; ++i) {
        const std::size_t id = by_use[i].second;
        auto it = entries_.find(id);
        std::vector<float> &residual = it->second.client.commResidual();
        const std::int64_t banked =
            static_cast<std::int64_t>(residual.size());
        if (!residual.empty())
            residual_bank_[id] = std::move(residual);
        traceLifecycle(trc::EventKind::Evict, it->second.synced_round, id,
                       banked);
        entries_.erase(it);
    }
    obs::addCount(evictions_counter_, static_cast<std::uint64_t>(surplus));
    if (resident_gauge_ != nullptr)
        resident_gauge_->set(static_cast<double>(entries_.size()));
    if (banked_gauge_ != nullptr)
        banked_gauge_->set(static_cast<double>(residual_bank_.size()));
}

void
ClientStore::advanceAll(int round)
{
    for (auto &kv : entries_)
        advanceEntry(kv.second, round);
}

std::size_t
ClientStore::residentBytes() const
{
    std::size_t bytes = 0;
    for (const auto &kv : entries_) {
        bytes += sizeof(std::size_t) + sizeof(Entry);
        bytes += kv.second.client.shard().capacity() * sizeof(std::size_t);
        bytes +=
            kv.second.client.commResidual().capacity() * sizeof(float);
    }
    for (const auto &kv : residual_bank_) {
        bytes += sizeof(std::size_t) + sizeof(std::vector<float>);
        bytes += kv.second.capacity() * sizeof(float);
    }
    return bytes;
}

} // namespace fleet
} // namespace fedgpo
