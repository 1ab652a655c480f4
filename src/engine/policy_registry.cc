#include "engine/policy_registry.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "graph/algorithms.h"

namespace blowfish {

namespace {

Status Validate(const std::string& name, const Policy& policy,
                const Vector& data, double epsilon_cap) {
  if (name.empty()) {
    return Status::InvalidArgument("policy name must be non-empty");
  }
  if (name.find('\x1f') != std::string::npos) {
    // Reserved as the single-flight planning key separator.
    return Status::InvalidArgument("policy name contains '\\x1f'");
  }
  if (data.size() != policy.domain_size()) {
    return Status::InvalidArgument(
        "data size " + std::to_string(data.size()) +
        " does not match policy domain size " +
        std::to_string(policy.domain_size()));
  }
  // The request-ε rule: NaN passes `<= 0.0`; inf/denormal are no cap.
  if (!(std::isnormal(epsilon_cap) && epsilon_cap > 0.0)) {
    return Status::InvalidArgument(
        "epsilon cap must be finite, positive and normal");
  }
  // Non-finite counts poison every answer and the snapshot.
  if (!std::all_of(data.begin(), data.end(),
                   [](double v) { return std::isfinite(v); })) {
    return Status::InvalidArgument("policy data must be finite");
  }
  return Status::OK();
}

std::shared_ptr<RegisteredPolicy> MakeEntry(const std::string& name,
                                            Policy policy, Vector data,
                                            double epsilon_cap,
                                            uint64_t version,
                                            LedgerHandle ledger) {
  auto entry = std::make_shared<RegisteredPolicy>();
  entry->name = name;
  entry->metadata = ComputePolicyMetadata(policy);
  entry->policy = std::move(policy);
  entry->data = std::move(data);
  entry->epsilon_cap = epsilon_cap;
  entry->version = version;
  entry->ledger = ledger;
  return entry;
}

}  // namespace

PolicyMetadata ComputePolicyMetadata(const Policy& policy) {
  PolicyMetadata meta;
  meta.domain_size = policy.domain_size();
  meta.num_dims = policy.domain.num_dims();
  meta.num_edges = policy.graph.num_edges();
  meta.has_bottom = policy.graph.has_bottom();
  ConnectedComponents(policy.graph, &meta.num_components);
  for (size_t v = 0; v < policy.graph.num_vertices(); ++v) {
    meta.max_degree = std::max(meta.max_degree, policy.graph.Degree(v));
  }
  meta.is_tree = IsTree(policy.graph, meta.num_components);
  return meta;
}

Status PolicyRegistry::Register(const std::string& name, Policy policy,
                                Vector data, double epsilon_cap,
                                std::optional<uint64_t> version,
                                LedgerHandle ledger) {
  BF_RETURN_NOT_OK(Validate(name, policy, data, epsilon_cap));
  // Metadata is computed outside the lock; only the publish is
  // exclusive.
  std::shared_ptr<RegisteredPolicy> entry =
      MakeEntry(name, std::move(policy), std::move(data), epsilon_cap,
                ClaimVersion(version), ledger);
  Shard& shard = shards_[ShardOf(name)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (shard.by_name.count(name) > 0) {
    return Status(StatusCode::kAlreadyExists,
                  "policy '" + name + "' is already registered");
  }
  uint32_t slot_index;
  if (!shard.free_slots.empty()) {
    slot_index = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    slot_index = static_cast<uint32_t>(shard.slots.size());
    shard.slots.emplace_back();
  }
  BF_DCHECK_LT(slot_index, shard.slots.size());
  shard.slots[slot_index].entry = std::move(entry);
  shard.by_name.emplace(name, slot_index);
  return Status::OK();
}

Status PolicyRegistry::Replace(const std::string& name, Policy policy,
                               Vector data, double epsilon_cap,
                               std::optional<uint64_t> version,
                               LedgerHandle ledger) {
  BF_RETURN_NOT_OK(Validate(name, policy, data, epsilon_cap));
  std::shared_ptr<RegisteredPolicy> entry =
      MakeEntry(name, std::move(policy), std::move(data), epsilon_cap,
                ClaimVersion(version), ledger);
  Shard& shard = shards_[ShardOf(name)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.by_name.find(name);
  if (it == shard.by_name.end()) {
    return Status::NotFound("policy '" + name + "' is not registered");
  }
  // Same slot, same generation: outstanding handles follow the name to
  // the new entry.
  shard.slots[it->second].entry = std::move(entry);
  return Status::OK();
}

Status PolicyRegistry::Unregister(const std::string& name) {
  Shard& shard = shards_[ShardOf(name)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.by_name.find(name);
  if (it == shard.by_name.end()) {
    return Status::NotFound("policy '" + name + "' is not registered");
  }
  Slot& slot = shard.slots[it->second];
  slot.entry.reset();
  ++slot.generation;  // outstanding handles go stale
  shard.free_slots.push_back(it->second);
  shard.by_name.erase(it);
  return Status::OK();
}

Result<std::shared_ptr<const RegisteredPolicy>> PolicyRegistry::Get(
    const std::string& name) const {
  const Shard& shard = shards_[ShardOf(name)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.by_name.find(name);
  if (it == shard.by_name.end()) {
    return Status::NotFound("policy '" + name + "' is not registered");
  }
  return shard.slots[it->second].entry;
}

Result<std::shared_ptr<const RegisteredPolicy>> PolicyRegistry::Get(
    PolicyHandle handle) const {
  if (!handle.valid() || handle.shard() >= kShardCount) {
    return Status::NotFound("policy handle is invalid");
  }
  const Shard& shard = shards_[handle.shard()];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  if (handle.slot() >= shard.slots.size()) {
    return Status::NotFound("policy handle is invalid");
  }
  const Slot& slot = shard.slots[handle.slot()];
  if (slot.entry == nullptr ||
      slot.generation != handle.generation()) {
    return Status::NotFound("policy handle is stale (unregistered)");
  }
  return slot.entry;
}

Result<PolicyHandle> PolicyRegistry::Resolve(const std::string& name) const {
  const size_t shard_index = ShardOf(name);
  const Shard& shard = shards_[shard_index];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.by_name.find(name);
  if (it == shard.by_name.end()) {
    return Status::NotFound("policy '" + name + "' is not registered");
  }
  return PolicyHandle(static_cast<uint32_t>(shard_index), it->second,
                      shard.slots[it->second].generation);
}

std::vector<std::string> PolicyRegistry::Names() const {
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [name, slot] : shard.by_name) names.push_back(name);
  }
  return names;
}

size_t PolicyRegistry::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.by_name.size();
  }
  return total;
}

}  // namespace blowfish
