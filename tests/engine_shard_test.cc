// Shard-boundary coverage for the sharded serving layer. Ledgers and
// policies are partitioned by id/name hash; these tests pin the
// operations that must see across every shard: prefix ledger sweeps,
// the plan and precompute slots that die with a superseded snapshot,
// handle staleness through the generation counters, and the
// all-or-nothing guarantee of charges whose ledgers live in different
// shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

/// Default options with a fixed seed; plans are built on first use.
EngineOptions SeededOptions(uint64_t seed) {
  EngineOptions options;
  options.seed = seed;
  options.warm_plan_cache = false;
  return options;
}

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 5);
  return x;
}

TEST(BudgetShards, PrefixCloseSweepsEveryShard) {
  BudgetAccountant accountant;
  // Far more ids than shards: every shard holds several matches and
  // several non-matches.
  const size_t kCount = 8 * BudgetAccountant::kShardCount;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        accountant.OpenLedger("policy/p\x1f" + std::to_string(i), 1.0).ok());
    ASSERT_TRUE(
        accountant.OpenLedger("session/u" + std::to_string(i), 1.0).ok());
  }
  EXPECT_EQ(accountant.CloseLedgersWithPrefix("policy/p\x1f"), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_FALSE(
        accountant.Resolve("policy/p\x1f" + std::to_string(i)).ok());
    EXPECT_TRUE(accountant.Resolve("session/u" + std::to_string(i)).ok());
  }
  EXPECT_EQ(accountant.CloseLedgersWithPrefix("policy/p\x1f"), 0u);
}

TEST(BudgetShards, HandlesGoStaleOnCloseAndNeverAliasReopens) {
  BudgetAccountant accountant;
  const LedgerHandle first = accountant.OpenLedger("a", 1.0).ValueOrDie();
  ASSERT_TRUE(accountant.CloseLedger("a").ok());
  EXPECT_EQ(accountant.Remaining(first).status().code(),
            StatusCode::kNotFound);
  // Reopening the same id reuses storage but must not resurrect the
  // old handle (generation bump).
  const LedgerHandle second = accountant.OpenLedger("a", 2.0).ValueOrDie();
  EXPECT_EQ(accountant.Remaining(first).status().code(),
            StatusCode::kNotFound);
  EXPECT_NEAR(*accountant.Remaining(second), 2.0, 1e-12);

  // Charges through a stale handle fail without touching the live
  // ledger.
  const LedgerHandle pair[2] = {first, second};
  ChargeTag tag;
  tag.workload = "stale";
  EXPECT_EQ(accountant.Charge(pair, 2, 0.5, tag).code(),
            StatusCode::kNotFound);
  EXPECT_NEAR(*accountant.Remaining(second), 2.0, 1e-12);
}

TEST(BudgetShards, CrossShardChargesAreAtomicUnderContention) {
  // Many (session, policy) ledger pairs; ids hash into distinct
  // shards with overwhelming probability across 64 pairs. Threads
  // hammer joint charges; every accepted charge must land on both
  // ledgers, every refusal on neither — the pairwise balances must
  // never diverge.
  BudgetAccountant accountant;
  constexpr size_t kPairs = 64;
  constexpr size_t kThreads = 6;
  constexpr double kEps = 0.01;
  std::vector<LedgerHandle> sessions(kPairs), policies(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    sessions[i] =
        accountant.OpenLedger("s/" + std::to_string(i), 0.1).ValueOrDie();
    policies[i] =
        accountant.OpenLedger("p/" + std::to_string(i), 0.05).ValueOrDie();
  }
  std::atomic<size_t> unexpected{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 40; ++round) {
        const size_t i = (t * 40 + round) % kPairs;
        const LedgerHandle pair[2] = {sessions[i], policies[i]};
        ChargeTag tag;
        tag.workload = "joint";
        const Status status = accountant.Charge(pair, 2, kEps, tag);
        if (!status.ok() && status.code() != StatusCode::kOutOfRange) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(unexpected.load(), 0u);
  for (size_t i = 0; i < kPairs; ++i) {
    const double session_spent = 0.1 - *accountant.Remaining(sessions[i]);
    const double policy_spent = 0.05 - *accountant.Remaining(policies[i]);
    // All-or-nothing: both ledgers saw exactly the same charges.
    EXPECT_NEAR(session_spent, policy_spent, 1e-12) << "pair " << i;
    // The tighter cap admits at most floor(0.05 / 0.01) = 5 charges.
    EXPECT_LE(policy_spent, 0.05 + 1e-9);
  }
}

TEST(PolicyShards, HandlesFollowReplaceAndDieOnUnregister) {
  PolicyRegistry registry;
  ASSERT_TRUE(registry.Register("p", LinePolicy(8), Ramp(8), 1.0).ok());
  const PolicyHandle handle = registry.Resolve("p").ValueOrDie();
  const auto before = registry.Get(handle).ValueOrDie();
  ASSERT_TRUE(registry.Replace("p", LinePolicy(8), Ramp(8), 2.0).ok());
  // Same handle, new entry: it names the binding, not the version.
  const auto after = registry.Get(handle).ValueOrDie();
  EXPECT_GT(after->version, before->version);
  EXPECT_EQ(after->epsilon_cap, 2.0);
  ASSERT_TRUE(registry.Unregister("p").ok());
  EXPECT_EQ(registry.Get(handle).status().code(), StatusCode::kNotFound);
  // Re-register under the same name: the old handle must not alias
  // the new binding.
  ASSERT_TRUE(registry.Register("p", LinePolicy(8), Ramp(8), 3.0).ok());
  EXPECT_EQ(registry.Get(handle).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Resolve("p").ok());
}

TEST(PolicyShards, ManyPoliciesSpreadAndEnumerateAcrossShards) {
  PolicyRegistry registry;
  const size_t kCount = 4 * PolicyRegistry::kShardCount;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        registry.Register("p" + std::to_string(i), LinePolicy(8), Ramp(8), 1.0)
            .ok());
  }
  EXPECT_EQ(registry.size(), kCount);
  EXPECT_EQ(registry.Names().size(), kCount);
  for (size_t i = 0; i < kCount; i += 2) {
    ASSERT_TRUE(registry.Unregister("p" + std::to_string(i)).ok());
  }
  EXPECT_EQ(registry.size(), kCount / 2);
}

TEST(TransformCache, LifecycleOpsDropTheSupersededSnapshotsPrecomputes) {
  // Several θ>=2 grid policies, spread over the registry's shards.
  // Each warm submit fills its snapshot's precompute slot;
  // Replace/Unregister must drop exactly the superseded snapshot's
  // precomputes, wherever the policy hashed to.
  QueryEngine engine(SeededOptions(1));
  const size_t kPolicies = 6;
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine
                    .RegisterPolicy("slab" + std::to_string(i),
                                    GridPolicy(DomainShape({8, 8}), 4),
                                    Ramp(64), 100.0)
                    .ok());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  EXPECT_EQ(engine.transform_cache_stats().entries, 0u);
  for (size_t i = 0; i < kPolicies; ++i) {
    QueryRequest request;
    request.session = "s";
    request.policy = "slab" + std::to_string(i);
    request.ranges =
        RangeWorkload("r", DomainShape({8, 8}), {{{0, 0}, {3, 3}}});
    request.epsilon = 0.1;
    ASSERT_TRUE(engine.Submit(request).ValueOrDie().range_fast_path);
  }
  EXPECT_EQ(engine.transform_cache_stats().entries, kPolicies);

  // Replace drops the superseded version's precompute; the next
  // submit fills the new version's slot.
  ASSERT_TRUE(engine
                  .ReplacePolicy("slab0", GridPolicy(DomainShape({8, 8}), 4),
                                 Ramp(64), 100.0)
                  .ok());
  EXPECT_EQ(engine.transform_cache_stats().entries, kPolicies - 1);

  // Unregister drops them too, for every remaining policy — if any
  // shard were missed, the count could not reach zero.
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine.UnregisterPolicy("slab" + std::to_string(i)).ok());
  }
  EXPECT_EQ(engine.transform_cache_stats().entries, 0u);
}

TEST(TransformCache, ChurningManyPoliciesStaysUnderByteBudget) {
  // Byte-budgeted transform cache: a registry holding many θ>=2 grid
  // policies (each precompute carries an edge-domain vector) must keep
  // resident bytes under budget at every step, evicting LRU entries —
  // and an evicted policy must transparently recompute on next touch.
  constexpr size_t kBudget = 2048;
  EngineOptions options;
  options.seed = 1;
  options.transform_cache_bytes = kBudget;
  QueryEngine engine(options);
  const size_t kPolicies = 8;
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine
                    .RegisterPolicy("slab" + std::to_string(i),
                                    GridPolicy(DomainShape({8, 8}), 4),
                                    Ramp(64), 1e6)
                    .ok());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  QueryRequest request;
  request.session = "s";
  request.ranges = RangeWorkload("r", DomainShape({8, 8}), {{{0, 0}, {3, 3}}});
  request.epsilon = 0.1;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t i = 0; i < kPolicies; ++i) {
      request.policy = "slab" + std::to_string(i);
      ASSERT_TRUE(engine.Submit(request).ValueOrDie().range_fast_path);
      EXPECT_LE(engine.transform_cache_stats().bytes, kBudget)
          << "round " << round << " policy " << i;
    }
  }
  const QueryEngine::TransformCacheStats stats =
      engine.transform_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, kPolicies);
  EXPECT_LE(stats.bytes, kBudget);
}

TEST(PlanCacheBudget, WarmSlotHitsKeepTheLookupInvariant) {
  // hits + misses == lookups must hold across the snapshot-slot fast
  // path too (RecordHit), with and without a byte budget.
  for (const size_t budget : {size_t{0}, size_t{100000}}) {
    EngineOptions options;
    options.seed = 1;
    options.plan_cache_bytes = budget;
    QueryEngine engine(options);
    ASSERT_TRUE(
        engine.RegisterPolicy("p", LinePolicy(16), Ramp(16), 1e6).ok());
    ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
    QueryRequest request;
    request.session = "s";
    request.policy = "p";
    request.workload = IdentityWorkload(16);
    request.epsilon = 0.1;
    const size_t kSubmits = 5;
    for (size_t i = 0; i < kSubmits; ++i) {
      ASSERT_TRUE(engine.Submit(request).ok());
    }
    const PlanCache::Stats stats = engine.plan_cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, kSubmits);
    EXPECT_EQ(stats.misses, 1u);
  }
}

TEST(TransformCache, DensePrecomputesEvictWithTheirSnapshot) {
  QueryEngine engine(SeededOptions(1));
  ASSERT_TRUE(
      engine.RegisterPolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  QueryRequest request;
  request.session = "s";
  request.policy = "line";
  request.workload = IdentityWorkload(16);
  request.epsilon = 0.1;
  ASSERT_TRUE(engine.Submit(request).ok());
  EXPECT_EQ(engine.transform_cache_stats().entries, 1u);
  ASSERT_TRUE(
      engine.ReplacePolicy("line", LinePolicy(16), Ramp(16), 100.0).ok());
  EXPECT_EQ(engine.transform_cache_stats().entries, 0u);
  ASSERT_TRUE(engine.Submit(request).ok());
  EXPECT_EQ(engine.transform_cache_stats().entries, 1u);
  ASSERT_TRUE(engine.UnregisterPolicy("line").ok());
  EXPECT_EQ(engine.transform_cache_stats().entries, 0u);
}

TEST(SlotStats, LifecycleOpsDropTheSupersededSnapshotsShare) {
  // Plans and precomputes live only in their snapshot's slots, so the
  // plan and transform counts drop by exactly the superseded
  // snapshot's share as soon as Replace or Unregister returns (no
  // submit is in flight to hold the old snapshot).
  QueryEngine engine(SeededOptions(1));
  struct Spec {
    std::string name;
    Policy policy;
    Vector data;
  };
  const std::vector<Spec> specs = {
      {"line16", LinePolicy(16), Ramp(16)},
      {"line32", LinePolicy(32), Ramp(32)},
      {"slab", GridPolicy(DomainShape({8, 8}), 4), Ramp(64)}};
  // Each snapshot's share, from a plan of the same policy and data.
  std::vector<size_t> plan_share, transform_share;
  for (const Spec& spec : specs) {
    ASSERT_TRUE(
        engine.RegisterPolicy(spec.name, spec.policy, spec.data, 1e6).ok());
    const Plan plan =
        PlanMechanism(PlanRequest{spec.policy, false}).ValueOrDie();
    plan_share.push_back(std::max(plan.approx_bytes, sizeof(Plan)));
    const auto pre = plan.mechanism->PrecomputeRelease(spec.data);
    ASSERT_NE(pre, nullptr) << spec.name;
    transform_share.push_back(pre->ApproxBytes());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  for (const Spec& spec : specs) {
    QueryRequest request;
    request.session = "s";
    request.policy = spec.name;
    request.workload = IdentityWorkload(spec.data.size());
    request.epsilon = 0.1;
    ASSERT_TRUE(engine.Submit(request).ok()) << spec.name;
  }
  const PlanCache::Stats plans = engine.plan_cache_stats();
  const QueryEngine::TransformCacheStats transforms =
      engine.transform_cache_stats();
  EXPECT_EQ(plans.entries, specs.size());
  EXPECT_EQ(plans.bytes, plan_share[0] + plan_share[1] + plan_share[2]);
  EXPECT_EQ(transforms.entries, specs.size());
  EXPECT_EQ(transforms.bytes,
            transform_share[0] + transform_share[1] + transform_share[2]);

  ASSERT_TRUE(
      engine.ReplacePolicy("line32", LinePolicy(32), Ramp(32), 1e6).ok());
  EXPECT_EQ(engine.plan_cache_stats().entries, plans.entries - 1);
  EXPECT_EQ(engine.plan_cache_stats().bytes, plans.bytes - plan_share[1]);
  EXPECT_EQ(engine.transform_cache_stats().entries, transforms.entries - 1);
  EXPECT_EQ(engine.transform_cache_stats().bytes,
            transforms.bytes - transform_share[1]);

  ASSERT_TRUE(engine.UnregisterPolicy("slab").ok());
  EXPECT_EQ(engine.plan_cache_stats().entries, plans.entries - 2);
  EXPECT_EQ(engine.plan_cache_stats().bytes,
            plans.bytes - plan_share[1] - plan_share[2]);
  EXPECT_EQ(engine.transform_cache_stats().entries, transforms.entries - 2);
  EXPECT_EQ(engine.transform_cache_stats().bytes,
            transforms.bytes - transform_share[1] - transform_share[2]);
}

TEST(TransformCache, EvictedPolicyIsColdUntilItsNextSubmit) {
  // The async cold lane routes by IsWarm: a policy whose precompute
  // the byte budget evicted must read cold, and warm again once its
  // next submit refilled the slot.
  constexpr size_t kBudget = 2048;
  EngineOptions options;
  options.seed = 1;
  options.transform_cache_bytes = kBudget;
  QueryEngine engine(options);
  const size_t kPolicies = 8;
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine
                    .RegisterPolicy("slab" + std::to_string(i),
                                    GridPolicy(DomainShape({8, 8}), 4),
                                    Ramp(64), 1e6)
                    .ok());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  QueryRequest request;
  request.session = "s";
  request.ranges = RangeWorkload("r", DomainShape({8, 8}), {{{0, 0}, {3, 3}}});
  request.epsilon = 0.1;
  for (size_t i = 0; i < kPolicies; ++i) {
    request.policy = "slab" + std::to_string(i);
    ASSERT_TRUE(engine.Submit(request).ok());
    EXPECT_TRUE(engine.IsWarm(request)) << "just filled: slab" << i;
  }
  ASSERT_GT(engine.transform_cache_stats().evictions, 0u);
  // slab0 was the least recently used, so the budget emptied it first.
  request.policy = "slab0";
  std::string cold_key;
  EXPECT_FALSE(engine.IsWarm(request, &cold_key));
  EXPECT_FALSE(cold_key.empty());
  ASSERT_TRUE(engine.Submit(request).ok());
  EXPECT_TRUE(engine.IsWarm(request));
  EXPECT_LE(engine.transform_cache_stats().bytes, kBudget);
}

TEST(PlanCacheBudget, RetiredPlanBudgetHasNoEffect) {
  // EngineOptions::plan_cache_bytes is retired: plans stay in their
  // snapshots' slots whatever it says, so a budget of roughly two
  // line-policy plans (approx_bytes ≈ 2.2 KB each) still plans each of
  // four policies once and serves every later round from the slots.
  EngineOptions options;
  options.seed = 1;
  options.plan_cache_bytes = 5000;
  QueryEngine engine(options);
  const size_t kPolicies = 4;
  const size_t kRounds = 3;
  for (size_t i = 0; i < kPolicies; ++i) {
    ASSERT_TRUE(engine
                    .RegisterPolicy("p" + std::to_string(i), LinePolicy(32),
                                    Ramp(32), 1e6)
                    .ok());
  }
  ASSERT_TRUE(engine.OpenSession("s", 1e6).ok());
  QueryRequest request;
  request.session = "s";
  request.workload = IdentityWorkload(32);
  request.epsilon = 0.1;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kPolicies; ++i) {
      request.policy = "p" + std::to_string(i);
      ASSERT_TRUE(engine.Submit(request).ok());
    }
  }
  const PlanCache::Stats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, kPolicies);
  EXPECT_EQ(stats.hits, kPolicies * (kRounds - 1));
  EXPECT_EQ(stats.entries, kPolicies);
}

}  // namespace
}  // namespace blowfish
