// The serving layer: registry lifecycle, plan-cache behaviour, and
// budget enforcement through the QueryEngine facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "engine/query_engine.h"
#include "workload/builders.h"

namespace blowfish {
namespace {

Vector Ramp(size_t n) {
  Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i % 7);
  return x;
}

TEST(PolicyRegistry, MetadataPrecomputedAtRegistration) {
  PolicyRegistry registry;
  ASSERT_TRUE(
      registry.Register("line", LinePolicy(16), Ramp(16), 1.0).ok());
  ASSERT_TRUE(registry
                  .Register("grid", GridPolicy(DomainShape({4, 4}), 1),
                            Ramp(16), 1.0)
                  .ok());

  const auto line = registry.Get("line").ValueOrDie();
  EXPECT_EQ(line->metadata.domain_size, 16u);
  EXPECT_EQ(line->metadata.num_edges, 15u);
  EXPECT_TRUE(line->metadata.is_tree);
  EXPECT_EQ(line->metadata.num_components, 1u);
  EXPECT_FALSE(line->metadata.has_bottom);

  const auto grid = registry.Get("grid").ValueOrDie();
  EXPECT_EQ(grid->metadata.num_dims, 2u);
  EXPECT_FALSE(grid->metadata.is_tree);
  EXPECT_EQ(grid->metadata.num_components, 1u);
  EXPECT_EQ(grid->metadata.max_degree, 4u);
}

TEST(PolicyRegistry, LifecycleAndValidation) {
  PolicyRegistry registry;
  ASSERT_TRUE(
      registry.Register("p", LinePolicy(8), Ramp(8), 2.0).ok());
  // Duplicate name.
  EXPECT_EQ(registry.Register("p", LinePolicy(8), Ramp(8), 2.0).code(),
            StatusCode::kAlreadyExists);
  // Data / domain mismatch and bad cap.
  EXPECT_EQ(registry.Register("q", LinePolicy(8), Ramp(9), 2.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("q", LinePolicy(8), Ramp(8), 0.0).code(),
            StatusCode::kInvalidArgument);
  // The plan-cache key separator is reserved.
  EXPECT_EQ(
      registry.Register(std::string("a\x1f") + "b", LinePolicy(8), Ramp(8), 1.0)
          .code(),
      StatusCode::kInvalidArgument);

  // Replace installs a strictly newer version; old snapshots stay
  // valid. Versions are never reused, even across failed attempts.
  const auto before = registry.Get("p").ValueOrDie();
  ASSERT_TRUE(registry.Replace("p", LinePolicy(8), Ramp(8), 3.0).ok());
  const auto after = registry.Get("p").ValueOrDie();
  EXPECT_GT(after->version, before->version);
  EXPECT_EQ(before->epsilon_cap, 2.0);
  EXPECT_EQ(after->epsilon_cap, 3.0);

  ASSERT_TRUE(registry.Unregister("p").ok());
  EXPECT_EQ(registry.Get("p").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Unregister("p").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(BudgetAccountant, AtomicMultiLedgerCharge) {
  BudgetAccountant accountant;
  const LedgerHandle a = accountant.OpenLedger("a", 1.0).ValueOrDie();
  const LedgerHandle b = accountant.OpenLedger("b", 0.5).ValueOrDie();
  ChargeTag tag;
  tag.workload = "joint";

  const LedgerHandle joint[2] = {a, b};
  ASSERT_TRUE(accountant.Charge(joint, 2, 0.4, tag).ok());
  EXPECT_NEAR(*accountant.Remaining("a"), 0.6, 1e-12);
  EXPECT_NEAR(*accountant.Remaining("b"), 0.1, 1e-12);

  // 'a' could afford 0.2 but 'b' cannot: neither ledger may move.
  const Status refused = accountant.Charge(joint, 2, 0.2, tag);
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange);
  EXPECT_NEAR(*accountant.Remaining("a"), 0.6, 1e-12);
  EXPECT_NEAR(*accountant.Remaining("b"), 0.1, 1e-12);

  // A closed (stale) or never-opened ledger refuses without side
  // effects too.
  const LedgerHandle ghost = accountant.OpenLedger("ghost", 1.0).ValueOrDie();
  ASSERT_TRUE(accountant.CloseLedger(ghost).ok());
  const LedgerHandle with_ghost[2] = {a, ghost};
  EXPECT_EQ(accountant.Charge(with_ghost, 2, 0.1, tag).code(),
            StatusCode::kNotFound);
  const LedgerHandle with_invalid[2] = {a, LedgerHandle()};
  EXPECT_EQ(accountant.Charge(with_invalid, 2, 0.1, tag).code(),
            StatusCode::kNotFound);
  EXPECT_NEAR(*accountant.Remaining("a"), 0.6, 1e-12);

  // A parallel charge must cover at least one release.
  ChargeTag no_parts = tag;
  no_parts.parallel_count = 0;
  EXPECT_EQ(accountant.Charge(&a, 1, 0.1, no_parts).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.Ledger("a")->spends(), 1u);

  // A repeated handle composes sequentially within one charge.
  const LedgerHandle twice[2] = {a, a};
  EXPECT_EQ(accountant.Charge(twice, 2, 0.4, tag).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(accountant.Charge(twice, 2, 0.3, tag).ok());
  EXPECT_NEAR(*accountant.Remaining("a"), 0.0, 1e-9);
}

class QueryEngineTest : public ::testing::Test {
 protected:
  // Three distinct policy families: line (tree transform), θ=1 grid
  // (per-line Privelet matrix mechanism), unbounded DP (star to ⊥).
  void SetUp() override {
    ASSERT_TRUE(
        engine_.RegisterPolicy("salaries", LinePolicy(16), Ramp(16), 100.0)
            .ok());
    ASSERT_TRUE(engine_
                    .RegisterPolicy("locations",
                                    GridPolicy(DomainShape({4, 4}), 1),
                                    Ramp(16), 100.0)
                    .ok());
    ASSERT_TRUE(engine_
                    .RegisterPolicy("classic-dp", UnboundedDpPolicy(16),
                                    Ramp(16), 100.0)
                    .ok());
  }

  QueryRequest Request(const std::string& session,
                       const std::string& policy, double epsilon) const {
    QueryRequest request;
    request.session = session;
    request.policy = policy;
    request.workload = IdentityWorkload(16);
    request.epsilon = epsilon;
    return request;
  }

  QueryEngine engine_;
};

TEST_F(QueryEngineTest, SubmitEndToEndAcrossPolicyFamilies) {
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());

  const QueryResult salaries =
      engine_.Submit(Request("alice", "salaries", 1.0)).ValueOrDie();
  EXPECT_EQ(salaries.answers.size(), 16u);
  EXPECT_EQ(salaries.plan_kind, "tree-transform");
  EXPECT_NEAR(salaries.session_remaining.value(), 9.0, 1e-9);
  EXPECT_NE(salaries.guarantee.neighbor_model.find("Blowfish"),
            std::string::npos);

  const QueryResult locations =
      engine_.Submit(Request("alice", "locations", 1.0)).ValueOrDie();
  EXPECT_EQ(locations.plan_kind, "grid-matrix");

  const QueryResult classic =
      engine_.Submit(Request("alice", "classic-dp", 1.0)).ValueOrDie();
  EXPECT_EQ(classic.plan_kind, "tree-transform");
  EXPECT_NEAR(classic.session_remaining.value(), 7.0, 1e-9);
}

TEST_F(QueryEngineTest, PlanCacheHitsOnRepeatsAndSharesAcrossSessions) {
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  ASSERT_TRUE(engine_.OpenSession("bob", 10.0).ok());

  const QueryResult first =
      engine_.Submit(Request("alice", "salaries", 0.5)).ValueOrDie();
  EXPECT_FALSE(first.plan_cache_hit);
  const QueryResult second =
      engine_.Submit(Request("alice", "salaries", 0.5)).ValueOrDie();
  EXPECT_TRUE(second.plan_cache_hit);
  // Plans are keyed by policy, not session.
  const QueryResult cross =
      engine_.Submit(Request("bob", "salaries", 0.5)).ValueOrDie();
  EXPECT_TRUE(cross.plan_cache_hit);

  // Planner options are part of the key.
  QueryRequest dd = Request("bob", "salaries", 0.5);
  dd.prefer_data_dependent = true;
  EXPECT_FALSE(engine_.Submit(dd).ValueOrDie().plan_cache_hit);

  const PlanCache::Stats stats = engine_.plan_cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST_F(QueryEngineTest, ReplaceInvalidatesCachedPlansAndRestartsCap) {
  ASSERT_TRUE(engine_.OpenSession("alice", 50.0).ok());
  EXPECT_FALSE(engine_.Submit(Request("alice", "salaries", 1.0))
                   .ValueOrDie()
                   .plan_cache_hit);
  EXPECT_TRUE(engine_.Submit(Request("alice", "salaries", 1.0))
                  .ValueOrDie()
                  .plan_cache_hit);

  ASSERT_TRUE(
      engine_.ReplacePolicy("salaries", LinePolicy(16), Ramp(16), 7.0).ok());
  EXPECT_EQ(engine_.plan_cache_stats().entries, 0u);
  const QueryResult after =
      engine_.Submit(Request("alice", "salaries", 1.0)).ValueOrDie();
  EXPECT_FALSE(after.plan_cache_hit);
  // New data, fresh cap ledger.
  EXPECT_NEAR(after.policy_remaining.value(), 6.0, 1e-9);

  ASSERT_TRUE(engine_.UnregisterPolicy("salaries").ok());
  EXPECT_EQ(engine_.Submit(Request("alice", "salaries", 1.0)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, WarmCacheOptionPlansAtRegistration) {
  EngineOptions options;
  options.seed = 1;
  options.warm_plan_cache = true;
  QueryEngine warm(options);
  ASSERT_TRUE(
      warm.RegisterPolicy("p", LinePolicy(16), Ramp(16), 10.0).ok());
  ASSERT_TRUE(warm.OpenSession("s", 10.0).ok());
  EXPECT_TRUE(warm.Submit(Request("s", "p", 1.0)).ValueOrDie().plan_cache_hit);
}

TEST_F(QueryEngineTest, SessionBudgetExhaustionRefusesBeforeRelease) {
  ASSERT_TRUE(engine_.OpenSession("alice", 1.0).ok());
  ASSERT_TRUE(engine_.Submit(Request("alice", "salaries", 0.6)).ok());

  const Result<QueryResult> refused =
      engine_.Submit(Request("alice", "salaries", 0.6));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  // The refusal left both ledgers untouched.
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 0.4, 1e-9);
  EXPECT_NEAR(*engine_.PolicyRemaining("salaries"), 99.4, 1e-9);

  // A smaller query still fits.
  EXPECT_TRUE(engine_.Submit(Request("alice", "salaries", 0.4)).ok());
  EXPECT_EQ(
      engine_.Submit(Request("alice", "salaries", 0.01)).status().code(),
      StatusCode::kOutOfRange);
}

TEST_F(QueryEngineTest, PolicyCapIsSharedAcrossSessions) {
  ASSERT_TRUE(engine_.RegisterPolicy("scarce", LinePolicy(16), Ramp(16), 1.0)
                  .ok());
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  ASSERT_TRUE(engine_.OpenSession("bob", 10.0).ok());

  ASSERT_TRUE(engine_.Submit(Request("alice", "scarce", 0.7)).ok());
  // Bob's session has plenty left, but the data owner's cap does not.
  const Result<QueryResult> refused =
      engine_.Submit(Request("bob", "scarce", 0.5));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  // Bob learns neither ledger nor Alice's spend from the refusal; the
  // audit event keeps which ledgers were involved.
  EXPECT_EQ(refused.status().message().find("policy/scarce"),
            std::string::npos);
  EXPECT_EQ(refused.status().message().find("session/bob"),
            std::string::npos);
  EXPECT_EQ(refused.status().message().find("0.7"), std::string::npos);
  const std::vector<AuditEvent> events =
      engine_.telemetry().audit().Snapshot();
  ASSERT_FALSE(events.empty());
  const AuditEvent& last = events.back();
  EXPECT_FALSE(last.charged);
  EXPECT_EQ(last.refusal, StatusCode::kOutOfRange);
  ASSERT_EQ(last.num_ledgers, 2u);
  EXPECT_EQ(last.ledgers[0].id, "session/bob");
  EXPECT_EQ(last.ledgers[1].id.rfind("policy/scarce", 0), 0u);
  // Bob's session ledger must not record the refused spend.
  EXPECT_NEAR(*engine_.SessionRemaining("bob"), 10.0, 1e-9);
  EXPECT_TRUE(engine_.Submit(Request("bob", "scarce", 0.3)).ok());
}

TEST_F(QueryEngineTest, RequestValidation) {
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  EXPECT_EQ(engine_.Submit(Request("ghost", "salaries", 1.0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.Submit(Request("alice", "ghost", 1.0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.Submit(Request("alice", "salaries", 0.0)).status().code(),
            StatusCode::kInvalidArgument);

  QueryRequest mismatched = Request("alice", "salaries", 1.0);
  mismatched.workload = IdentityWorkload(8);
  EXPECT_EQ(engine_.Submit(mismatched).status().code(),
            StatusCode::kInvalidArgument);

  QueryRequest empty = Request("alice", "salaries", 1.0);
  empty.workload = Workload();
  EXPECT_EQ(engine_.Submit(empty).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(engine_.OpenSession("alice", 1.0).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine_.CloseSession("alice").ok());
  EXPECT_EQ(engine_.Submit(Request("alice", "salaries", 1.0)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, MalformedEpsilonIsInvalidOnEveryEntryPoint) {
  // NaN, ±inf and a denormal ε are malformed input: every entry point
  // rejects them at validation, before any ledger or audit event sees
  // them (a NaN refused as kOutOfRange would feed the refusal-burst
  // detector and write "eps":nan into the audit JSONL).
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  const uint64_t audit_before = engine_.telemetry().audit().total_events();
  BatchOptions disjoint;
  disjoint.disjoint_domains = true;
  for (const double eps : {std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           1e-320}) {
    const QueryRequest request = Request("alice", "salaries", eps);
    EXPECT_EQ(engine_.Submit(request).status().code(),
              StatusCode::kInvalidArgument)
        << eps;
    for (const BatchOptions& options : {BatchOptions(), disjoint}) {
      for (const Result<QueryResult>& entry :
           engine_.SubmitBatch({request, request}, options)) {
        EXPECT_EQ(entry.status().code(), StatusCode::kInvalidArgument) << eps;
      }
    }
    EXPECT_EQ(engine_.SubmitStream(request).status().code(),
              StatusCode::kInvalidArgument)
        << eps;
  }
  EXPECT_EQ(engine_.telemetry().audit().total_events(), audit_before);
  EXPECT_EQ(*engine_.SessionRemaining("alice"), 10.0);
  EXPECT_EQ(*engine_.PolicyRemaining("salaries"), 100.0);
  EXPECT_EQ(engine_.telemetry()
                .metrics()
                .counter("engine_refused_budget_total")
                ->value(),
            0u);
}

// Budgets and caps follow the request-ε rule: NaN, ±inf, denormals,
// zero and negatives are malformed input, refused as kInvalidArgument
// (NaN passes a `<= 0.0` check, so each entry point needs the rule).
const double kHostileBudgets[] = {std::nan(""),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  1e-320, 0.0, -1.0};

TEST_F(QueryEngineTest, HostileSessionBudgetIsInvalid) {
  for (const double budget : kHostileBudgets) {
    EXPECT_EQ(engine_.OpenSession("mallory", budget).code(),
              StatusCode::kInvalidArgument)
        << budget;
    EXPECT_EQ(engine_.SessionRemaining("mallory").status().code(),
              StatusCode::kNotFound)
        << budget;
  }
  EXPECT_TRUE(engine_.OpenSession("mallory", 1.0).ok());
}

TEST_F(QueryEngineTest, HostilePolicyCapOrDataIsInvalidOnRegister) {
  for (const double cap : kHostileBudgets) {
    EXPECT_EQ(engine_.RegisterPolicy("hostile", LinePolicy(16), Ramp(16), cap)
                  .code(),
              StatusCode::kInvalidArgument)
        << cap;
  }
  for (const double bad : {std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    Vector data = Ramp(16);
    data[3] = bad;
    EXPECT_EQ(engine_.RegisterPolicy("hostile", LinePolicy(16), data, 1.0)
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(engine_.num_policies(), 3u);
  EXPECT_EQ(engine_.PolicyRemaining("hostile").status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, HostilePolicyCapOrDataIsInvalidOnReplace) {
  for (const double cap : kHostileBudgets) {
    EXPECT_EQ(
        engine_.ReplacePolicy("salaries", LinePolicy(16), Ramp(16), cap).code(),
        StatusCode::kInvalidArgument)
        << cap;
  }
  for (const double bad : {std::nan(""),
                           -std::numeric_limits<double>::infinity()}) {
    Vector data = Ramp(16);
    data[0] = bad;
    EXPECT_EQ(
        engine_.ReplacePolicy("salaries", LinePolicy(16), data, 1.0).code(),
        StatusCode::kInvalidArgument)
        << bad;
  }
  // The registered version keeps serving: a replacement would carry
  // its own fresh cap of 1.0.
  EXPECT_EQ(*engine_.PolicyRemaining("salaries"), 100.0);
  ASSERT_TRUE(engine_.OpenSession("alice", 1.0).ok());
  EXPECT_TRUE(engine_.Submit(Request("alice", "salaries", 0.5)).ok());
}

TEST_F(QueryEngineTest, RangeWorkloadsDispatchToTheFastPathOnThetaGrids) {
  // θ=4 over 8x8: the planner picks grid-theta-range, and an explicit
  // range request must bypass the full-histogram adapter.
  ASSERT_TRUE(engine_
                  .RegisterPolicy("slab", GridPolicy(DomainShape({8, 8}), 4),
                                  Ramp(64), 100.0)
                  .ok());
  ASSERT_TRUE(engine_.OpenSession("carol", 10.0).ok());

  QueryRequest request;
  request.session = "carol";
  request.policy = "slab";
  request.ranges = RangeWorkload("q", DomainShape({8, 8}),
                                 {{{0, 0}, {3, 3}}, {{2, 1}, {7, 6}}});
  request.epsilon = 1.0;
  const QueryResult fast = engine_.Submit(request).ValueOrDie();
  EXPECT_EQ(fast.plan_kind, "grid-theta-range");
  EXPECT_TRUE(fast.range_fast_path);
  EXPECT_EQ(fast.answers.size(), 2u);
  EXPECT_NEAR(fast.session_remaining.value(), 9.0, 1e-9);

  // A dense workload on the same policy takes the histogram path.
  QueryRequest dense;
  dense.session = "carol";
  dense.policy = "slab";
  dense.workload = IdentityWorkload(64);
  dense.epsilon = 1.0;
  const QueryResult hist = engine_.Submit(dense).ValueOrDie();
  EXPECT_EQ(hist.plan_kind, "grid-theta-range");
  EXPECT_FALSE(hist.range_fast_path);
  EXPECT_TRUE(hist.plan_cache_hit);  // one plan serves both paths
}

TEST_F(QueryEngineTest, RangeWorkloadsFallBackToHistogramElsewhere) {
  ASSERT_TRUE(engine_.OpenSession("carol", 10.0).ok());

  // Ranges on a tree policy: answered from x̂ via summed-area table.
  QueryRequest request;
  request.session = "carol";
  request.policy = "salaries";
  request.ranges =
      RangeWorkload("halves", DomainShape({16}), {{{0}, {7}}, {{8}, {15}}});
  request.epsilon = 1.0;
  const QueryResult result = engine_.Submit(request).ValueOrDie();
  EXPECT_EQ(result.plan_kind, "tree-transform");
  EXPECT_FALSE(result.range_fast_path);
  EXPECT_EQ(result.answers.size(), 2u);
  // The two halves partition the domain, and reconstruction pins the
  // histogram estimate's total to the public n = Σ Ramp(16) = 43.
  EXPECT_NEAR(result.answers[0] + result.answers[1], 43.0, 1e-6);

  // A request naming both representations is ambiguous.
  QueryRequest both;
  both.session = "carol";
  both.policy = "salaries";
  both.workload = IdentityWorkload(16);
  both.ranges = RangeWorkload("r", DomainShape({16}), {{{0}, {15}}});
  both.epsilon = 1.0;
  EXPECT_EQ(engine_.Submit(both).status().code(),
            StatusCode::kInvalidArgument);

  // Range domain size must match the policy domain.
  QueryRequest mismatched;
  mismatched.session = "carol";
  mismatched.policy = "salaries";
  mismatched.ranges = RangeWorkload("r", DomainShape({8}), {{{0}, {7}}});
  mismatched.epsilon = 1.0;
  EXPECT_EQ(engine_.Submit(mismatched).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryEngineTest, MisshapenRangeDomainSkipsTheFastPath) {
  // Same flattened size as the 8x8 slab policy but 1D geometry: the
  // engine must not hand it to the 2D slab reconstruction.
  ASSERT_TRUE(engine_
                  .RegisterPolicy("slab", GridPolicy(DomainShape({8, 8}), 4),
                                  Ramp(64), 100.0)
                  .ok());
  ASSERT_TRUE(engine_.OpenSession("carol", 10.0).ok());
  QueryRequest request;
  request.session = "carol";
  request.policy = "slab";
  request.ranges = RangeWorkload("flat", DomainShape({64}), {{{0}, {63}}});
  request.epsilon = 1.0;
  const QueryResult result = engine_.Submit(request).ValueOrDie();
  EXPECT_EQ(result.plan_kind, "grid-theta-range");
  EXPECT_FALSE(result.range_fast_path);
  EXPECT_EQ(result.answers.size(), 1u);
}

TEST_F(QueryEngineTest, HandleRequestsMatchStringRequests) {
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  QueryRequest request = Request("alice", "salaries", 1.0);
  request.session_handle = engine_.ResolveSession("alice").ValueOrDie();
  request.policy_handle = engine_.ResolvePolicy("salaries").ValueOrDie();
  // Strings are ignored when handles are valid.
  request.session = "nonsense";
  request.policy = "nonsense";
  const QueryResult result = engine_.Submit(request).ValueOrDie();
  EXPECT_EQ(result.answers.size(), 16u);
  EXPECT_NEAR(result.session_remaining.value(), 9.0, 1e-9);
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 9.0, 1e-9);

  // A policy handle survives Replace and charges the new version's
  // fresh ledger.
  ASSERT_TRUE(
      engine_.ReplacePolicy("salaries", LinePolicy(16), Ramp(16), 7.0).ok());
  const QueryResult after = engine_.Submit(request).ValueOrDie();
  EXPECT_NEAR(after.policy_remaining.value(), 6.0, 1e-9);

  // Handles die with their referents.
  ASSERT_TRUE(engine_.UnregisterPolicy("salaries").ok());
  EXPECT_EQ(engine_.Submit(request).status().code(), StatusCode::kNotFound);
  QueryRequest stale_session = Request("alice", "locations", 1.0);
  stale_session.session_handle = request.session_handle;
  ASSERT_TRUE(engine_.CloseSession("alice").ok());
  EXPECT_EQ(engine_.Submit(stale_session).status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, ResolveUnknownNamesFails) {
  EXPECT_EQ(engine_.ResolveSession("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.ResolvePolicy("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, BatchKeepsGoingPastFailures) {
  ASSERT_TRUE(engine_.OpenSession("alice", 1.0).ok());
  const std::vector<QueryRequest> batch = {
      Request("alice", "salaries", 0.5),
      Request("alice", "ghost", 0.1),
      Request("alice", "locations", 2.0),  // over session budget
      Request("alice", "classic-dp", 0.5),
  };
  const std::vector<Result<QueryResult>> results = engine_.SubmitBatch(batch);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(results[2].status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(results[3].ok());
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 0.0, 1e-9);
}

TEST_F(QueryEngineTest, BatchGroupChargesOnceAndPreservesPerEntryResults) {
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  // Three same-(session, policy) requests: one group, one ledger entry
  // of sum(eps), per-entry answers preserved.
  const std::vector<QueryRequest> batch = {
      Request("alice", "salaries", 0.5), Request("alice", "salaries", 0.25),
      Request("alice", "salaries", 0.25)};
  const auto results = engine_.SubmitBatch(batch);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.ValueOrDie().answers.size(), 16u);
    // Post-charge balance of the whole group's single charge.
    EXPECT_NEAR(result.ValueOrDie().session_remaining.value(), 9.0, 1e-9);
  }
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 9.0, 1e-9);
  EXPECT_NEAR(*engine_.PolicyRemaining("salaries"), 99.0, 1e-9);
  // One grouped audit entry, not three.
  const std::string audit = engine_.SessionAudit("alice").ValueOrDie();
  EXPECT_NE(audit.find("batch[3]"), std::string::npos);
}

TEST_F(QueryEngineTest, OverBudgetGroupDegradesToPrefixAdmission) {
  // The grouped sum does not fit, so the group must fall back to
  // per-entry charges in batch order — admitting exactly the prefix
  // that individual Submits would have admitted.
  ASSERT_TRUE(engine_.OpenSession("alice", 1.0).ok());
  const std::vector<QueryRequest> batch = {
      Request("alice", "salaries", 0.6), Request("alice", "salaries", 0.3),
      Request("alice", "salaries", 0.3)};
  const auto results = engine_.SubmitBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kOutOfRange);
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 0.1, 1e-9);
}

TEST_F(QueryEngineTest, DisjointBatchChargesMaxEpsilonOnBothLedgers) {
  // Acceptance pin: SpendParallel charges max(eps) for a
  // declared-disjoint batch, sum(eps) otherwise — on the session AND
  // the policy ledger.
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  const std::vector<QueryRequest> batch = {
      Request("alice", "salaries", 0.3), Request("alice", "salaries", 0.5),
      Request("alice", "salaries", 0.2)};

  BatchOptions disjoint;
  disjoint.disjoint_domains = true;
  const auto parallel = engine_.SubmitBatch(batch, disjoint);
  for (const auto& result : parallel) ASSERT_TRUE(result.ok());
  // max(0.3, 0.5, 0.2) = 0.5 once, on both ledgers.
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 9.5, 1e-9);
  EXPECT_NEAR(*engine_.PolicyRemaining("salaries"), 99.5, 1e-9);
  // The audit trail marks the parallel-composition charge.
  const std::string audit = engine_.SessionAudit("alice").ValueOrDie();
  EXPECT_NE(audit.find("parallel x3"), std::string::npos);

  // The same batch without the declaration composes sequentially.
  const auto sequential = engine_.SubmitBatch(batch);
  for (const auto& result : sequential) ASSERT_TRUE(result.ok());
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 8.5, 1e-9);
  EXPECT_NEAR(*engine_.PolicyRemaining("salaries"), 98.5, 1e-9);
}

TEST_F(QueryEngineTest, DisjointBatchRefusesAllOrNothing) {
  // Parallel composition covers the whole declared-disjoint set or
  // none of it: if max(eps) does not fit, nothing is charged and no
  // entry is released.
  ASSERT_TRUE(engine_.OpenSession("alice", 0.4).ok());
  const std::vector<QueryRequest> batch = {
      Request("alice", "salaries", 0.3), Request("alice", "salaries", 0.5)};
  BatchOptions disjoint;
  disjoint.disjoint_domains = true;
  const auto results = engine_.SubmitBatch(batch, disjoint);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(results[1].status().code(), StatusCode::kOutOfRange);
  EXPECT_NEAR(*engine_.SessionRemaining("alice"), 0.4, 1e-9);
}

TEST_F(QueryEngineTest, AuditTrailNamesWorkloadPolicyAndPlan) {
  ASSERT_TRUE(engine_.OpenSession("alice", 10.0).ok());
  ASSERT_TRUE(engine_.Submit(Request("alice", "salaries", 1.0)).ok());
  const std::string audit = engine_.SessionAudit("alice").ValueOrDie();
  EXPECT_NE(audit.find("I_16"), std::string::npos);
  EXPECT_NE(audit.find("salaries"), std::string::npos);
  EXPECT_NE(audit.find("tree-transform"), std::string::npos);
}

TEST_F(QueryEngineTest, AuditSaysWhenTheRingNoLongerHoldsEveryCharge) {
  EngineOptions options;
  options.audit_log_capacity = 0;
  QueryEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterPolicy("salaries", LinePolicy(16), Ramp(16), 100.0).ok());
  ASSERT_TRUE(engine.OpenSession("alice", 10.0).ok());
  ASSERT_TRUE(engine.Submit(Request("alice", "salaries", 1.0)).ok());
  ASSERT_TRUE(engine.Submit(Request("alice", "salaries", 0.5)).ok());
  const std::string audit = engine.SessionAudit("alice").ValueOrDie();
  EXPECT_NE(audit.find("spent 1.5 in 2 charge(s)"), std::string::npos)
      << audit;
  EXPECT_NE(audit.find("2 earlier charge(s) are not in the audit ring"),
            std::string::npos)
      << audit;
  EXPECT_NE(audit.find("ledger_fsck"), std::string::npos) << audit;
}

TEST_F(QueryEngineTest, AuditMarksRefusals) {
  ASSERT_TRUE(engine_.OpenSession("alice", 1.0).ok());
  ASSERT_TRUE(engine_.Submit(Request("alice", "salaries", 0.75)).ok());
  EXPECT_EQ(engine_.Submit(Request("alice", "salaries", 0.5)).status().code(),
            StatusCode::kOutOfRange);
  const std::string audit = engine_.SessionAudit("alice").ValueOrDie();
  EXPECT_NE(audit.find("in 1 charge(s)"), std::string::npos) << audit;
  EXPECT_NE(audit.find("[refused]"), std::string::npos) << audit;
  EXPECT_EQ(audit.find("not in the audit ring"), std::string::npos) << audit;
}

TEST_F(QueryEngineTest, WarmSubmitsHoldHeapFlat) {
#if defined(__GLIBC__)
  // Serving ledgers keep totals, not history: once the audit ring is
  // full, warm submits must not grow the heap however many run.
  ASSERT_TRUE(engine_.RegisterPolicy("bulk", LinePolicy(16), Ramp(16), 1e9)
                  .ok());
  ASSERT_TRUE(engine_.OpenSession("alice", 1e9).ok());
  ASSERT_TRUE(engine_.OpenSession("bob", 1e9).ok());
  const QueryRequest requests[2] = {Request("alice", "bulk", 1e-3),
                                    Request("bob", "bulk", 1e-3)};
  const size_t warm_up = 2 * EngineOptions().audit_log_capacity;
  for (size_t i = 0; i < warm_up; ++i) {
    ASSERT_TRUE(engine_.Submit(requests[i % 2]).ok());
  }
  // Arena bytes in use plus mmapped chunks (large vectors bypass the
  // arena once they pass the mmap threshold).
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const size_t before = heap_in_use();
  for (size_t i = 0; i < 50000; ++i) {
    ASSERT_TRUE(engine_.Submit(requests[i % 2]).ok());
  }
  const size_t after = heap_in_use();
  EXPECT_LT(after - std::min(after, before), 256u * 1024u)
      << "heap grew from " << before << " to " << after << " bytes";
#else
  GTEST_SKIP() << "mallinfo2 is glibc-only";
#endif
}

TEST_F(QueryEngineTest, MetadataAccessor) {
  const PolicyMetadata meta =
      engine_.GetPolicyMetadata("classic-dp").ValueOrDie();
  EXPECT_TRUE(meta.has_bottom);
  EXPECT_TRUE(meta.is_tree);
  EXPECT_EQ(engine_.num_policies(), 3u);
}

}  // namespace
}  // namespace blowfish
