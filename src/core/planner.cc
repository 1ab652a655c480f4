#include "core/planner.h"

#include "common/check.h"
#include "core/grid_theta_adapter.h"
#include "core/mechanisms_1d.h"
#include "core/mechanisms_2d.h"
#include "core/subgraph_approx.h"
#include "core/transform.h"
#include "graph/algorithms.h"
#include "mech/dawa.h"
#include "mech/laplace.h"

namespace blowfish {

namespace {

// True if the graph is exactly the line graph on consecutive indices,
// which is the case where the transformed database is the prefix-sum
// vector and isotonic consistency applies.
bool IsConsecutiveLineGraph(const Graph& g) {
  if (g.has_bottom()) return false;
  const size_t k = g.num_vertices();
  if (g.num_edges() != k - 1) return false;
  for (const Graph::Edge& e : g.edges()) {
    const size_t lo = std::min(e.u, e.v);
    const size_t hi = std::max(e.u, e.v);
    if (hi != lo + 1) return false;
  }
  return true;
}

// Detects a 1D distance-threshold graph and returns θ (0 if not).
size_t DetectTheta1D(const Policy& policy) {
  if (policy.domain.num_dims() != 1) return 0;
  if (policy.graph.has_bottom()) return 0;
  const size_t k = policy.domain_size();
  // θ = max edge span; then verify the edge set matches exactly.
  size_t theta = 0;
  for (const Graph::Edge& e : policy.graph.edges()) {
    const size_t span = (e.u > e.v) ? e.u - e.v : e.v - e.u;
    theta = std::max(theta, span);
  }
  if (theta == 0) return 0;
  size_t expected = 0;
  for (size_t span = 1; span <= theta; ++span) expected += k - span;
  return policy.graph.num_edges() == expected ? theta : 0;
}

// Detects a θ=1 grid policy over a >=2-dimensional domain.
bool IsUnitGrid(const Policy& policy) {
  if (policy.domain.num_dims() < 2) return false;
  if (policy.graph.has_bottom()) return false;
  size_t expected = 0;
  for (size_t i = 0; i < policy.domain.num_dims(); ++i) {
    expected += (policy.domain.dim(i) - 1) * policy.domain.size() /
                policy.domain.dim(i);
  }
  if (policy.graph.num_edges() != expected) return false;
  for (const Graph::Edge& e : policy.graph.edges()) {
    if (policy.domain.L1Distance(e.u, e.v) != 1) return false;
  }
  return true;
}

// Detects a 2D θ>=2 distance-threshold policy; returns θ (0 if not).
size_t DetectGridTheta(const Policy& policy) {
  if (policy.domain.num_dims() != 2) return 0;
  if (policy.graph.has_bottom()) return 0;
  size_t theta = 0;
  for (const Graph::Edge& e : policy.graph.edges()) {
    theta = std::max(theta, policy.domain.L1Distance(e.u, e.v));
  }
  if (theta < 2) return 0;
  const Graph expected = DistanceThresholdGraph(policy.domain, theta);
  return expected.num_edges() == policy.graph.num_edges() ? theta : 0;
}

HistogramMechanismPtr InnerFor(const PlanRequest& request) {
  if (request.prefer_data_dependent) {
    return std::make_shared<DawaMechanism>();
  }
  return std::make_shared<LaplaceMechanism>();
}

Result<Plan> PlanMechanismImpl(PlanRequest request);

}  // namespace

Result<Plan> PlanMechanism(PlanRequest request) {
  // Footprint model for the byte-budgeted plan cache: every strategy
  // family holds CSR structures proportional to the edge count (the
  // policy transform P_G has ~2 nonzeros per edge column) plus
  // domain-proportional vectors; the per-slab Privelet systems are
  // also edge-bounded. Constants are deliberately generous — the
  // cache only needs relative ordering.
  const size_t domain = request.policy.domain_size();
  const size_t edges = request.policy.graph.num_edges();
  Result<Plan> planned = PlanMechanismImpl(std::move(request));
  if (!planned.ok()) return planned;
  Plan plan = std::move(planned).ValueOrDie();
  plan.approx_bytes = 256 + 16 * domain + 48 * edges;
  return plan;
}

namespace {

Result<Plan> PlanMechanismImpl(PlanRequest request) {
  if (request.policy.graph.num_edges() == 0) {
    return Status::InvalidArgument("policy graph has no edges");
  }

  // 1) Tree-reducible: the strongest regime (Theorem 4.3).
  {
    Result<PolicyTransform> probe = PolicyTransform::Create(request.policy);
    if (!probe.ok()) return probe.status();
    if (probe.ValueOrDie().is_tree()) {
      TreeTransformMechanism::Options options;
      options.enforce_monotone = IsConsecutiveLineGraph(request.policy.graph);
      Result<std::unique_ptr<TreeTransformMechanism>> mech =
          TreeTransformMechanism::Create(request.policy, InnerFor(request),
                                         options);
      if (!mech.ok()) return mech.status();
      Plan plan;
      plan.kind = "tree-transform";
      plan.rationale =
          "policy reduces to a tree; Theorem 4.3 gives exact equivalence "
          "for every mechanism" +
          std::string(options.enforce_monotone
                          ? "; transformed database is monotone, applying "
                            "isotonic consistency"
                          : "");
      plan.mechanism = std::move(mech).ValueOrDie();
      return plan;
    }
  }

  // 2) 1D distance-threshold: Hθ_k spanner (Section 5.3.1).
  if (const size_t theta = DetectTheta1D(request.policy); theta > 0) {
    const size_t k = request.policy.domain_size();
    if (k % theta == 0) {
      Result<std::unique_ptr<SpannerMechanism>> mech =
          MakeThetaLineMechanism(k, theta, InnerFor(request),
                                 request.prefer_data_dependent
                                     ? "Trans + Dawa"
                                     : "Transformed + Laplace");
      if (!mech.ok()) return mech.status();
      Plan plan;
      plan.kind = "spanner-tree";
      plan.stretch = mech.ValueOrDie()->stretch();
      const std::string stretch = std::to_string(plan.stretch);
      plan.rationale =
          "1D distance-threshold policy; Hθ_k spanner certified with "
          "stretch " +
          stretch + " (Lemma 4.5), running the tree transform at ε/" +
          stretch;
      plan.mechanism = std::move(mech).ValueOrDie();
      return plan;
    }
  }

  // 3) θ=1 grid: per-line Privelet matrix mechanism (Theorem 4.1).
  if (IsUnitGrid(request.policy)) {
    Result<std::unique_ptr<GridBlowfishMechanism>> mech =
        GridBlowfishMechanism::Create(request.policy);
    if (!mech.ok()) return mech.status();
    Plan plan;
    plan.kind = "grid-matrix";
    plan.rationale =
        "grid policy is not a tree; using the data-independent per-line "
        "Privelet matrix mechanism (Theorem 4.1 equivalence)";
    plan.mechanism = std::move(mech).ValueOrDie();
    return plan;
  }

  // 4) 2D θ>=2: slab strategy, wrapped so the histogram-release
  // protocol holds. Non-square or non-divisible grids (where the slab
  // tiling does not apply) fall through to the spanning-tree fallback.
  if (const size_t theta = DetectGridTheta(request.policy); theta > 0) {
    const DomainShape& domain = request.policy.domain;
    if (domain.dim(0) == domain.dim(1)) {
      Result<std::unique_ptr<GridThetaHistogramAdapter>> adapter =
          GridThetaHistogramAdapter::Create(domain.dim(0), theta);
      if (adapter.ok()) {
        Plan plan;
        plan.kind = "grid-theta-range";
        plan.stretch = adapter.ValueOrDie()->stretch();
        plan.range_mechanism = adapter.ValueOrDie()->inner_ptr();
        plan.rationale =
            "2D distance-threshold policy with θ=" + std::to_string(theta) +
            "; GridThetaRangeMechanism (Theorem 5.6 slab strategy) behind "
            "the histogram adapter; explicit range workloads bypass the "
            "adapter via per-query reconstruction";
        plan.mechanism = std::move(adapter).ValueOrDie();
        return plan;
      }
    }
  }

  // 5) Fallback: BFS spanning forest (a tree per component; the Case
  // III reduction then joins them through the shared ⊥) with certified
  // stretch.
  {
    const Graph forest = BfsSpanningForest(request.policy.graph);
    Policy spanner{request.policy.name + "-bfs-forest", request.policy.domain,
                   forest};
    Result<SpannerCertificate> cert =
        CertifySpanner(request.policy, std::move(spanner));
    if (!cert.ok()) return cert.status();
    const int64_t stretch = cert.ValueOrDie().stretch;
    Result<std::unique_ptr<TreeTransformMechanism>> inner =
        TreeTransformMechanism::Create(cert.ValueOrDie().spanner,
                                       InnerFor(request), {});
    if (!inner.ok()) return inner.status();
    Plan plan;
    plan.kind = "spanning-tree-fallback";
    plan.stretch = stretch;
    plan.rationale =
        "no specialized strategy; BFS spanning tree certified with "
        "stretch " +
        std::to_string(stretch) +
        " (error grows with stretch²; consider a custom spanner)";
    plan.mechanism = std::make_unique<SpannerMechanism>(
        request.policy.name, stretch, std::move(inner).ValueOrDie());
    return plan;
  }
}

}  // namespace

}  // namespace blowfish
