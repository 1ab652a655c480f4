// Policy-aware mechanism selection — the practical payoff of the
// paper: given a Blowfish policy (and whether the caller wants
// data-dependent behaviour), choose the error-optimal strategy family
// the theory admits:
//
//   tree-reducible policy      -> Theorem 4.3 tree transform (any inner
//                                 mechanism; isotonic consistency when
//                                 the transformed database is monotone)
//   1D distance-threshold Gθ_k -> Hθ_k spanner + tree transform at
//                                 ε/stretch (Section 5.3.1)
//   grid policy θ=1, d>=2      -> per-line Privelet matrix mechanism
//                                 (Theorem 4.1 / Section 5.2.2)
//   2D distance-threshold θ>=2 -> slab strategy (Theorem 5.6), exposed
//                                 through GridThetaRangeMechanism
//   anything else (connected)  -> BFS spanning-tree fallback with the
//                                 certified (possibly large) stretch
//
// The planner never silently weakens the guarantee: the chosen
// mechanism's Guarantee() always states (ε, G) for the *original*
// policy, with stretch already folded in.

#ifndef BLOWFISH_CORE_PLANNER_H_
#define BLOWFISH_CORE_PLANNER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/blowfish_mechanism.h"
#include "core/policy.h"

namespace blowfish {

class GridThetaRangeMechanism;

/// \brief What the caller wants answered.
struct PlanRequest {
  Policy policy;
  /// Prefer data-dependent estimation (DAWA) over Laplace for the
  /// transformed database.
  bool prefer_data_dependent = false;
  /// Empty and never read: the planner always certifies spanner
  /// stretch itself. It keeps three-element initializers
  /// (`PlanRequest{policy, dd, {}}`, as perfbench/src writes them)
  /// compiling.
  struct Retired {};
  Retired retired_hint = {};
};

/// \brief A selected mechanism plus the reasoning.
struct Plan {
  BlowfishMechanismPtr mechanism;
  std::string kind;       ///< strategy family (see header comment)
  std::string rationale;  ///< human-readable justification
  int64_t stretch = 1;    ///< 1 unless a spanner was needed
  /// Non-null exactly for kind "grid-theta-range": the slab mechanism
  /// behind the histogram adapter, which answers explicit range
  /// workloads by per-query reconstruction — O(q · edges) instead of
  /// the adapter's O(k² · edges) full-histogram release. Shared with
  /// `mechanism` (the adapter), so it lives as long as the plan.
  std::shared_ptr<const GridThetaRangeMechanism> range_mechanism;
  /// Approximate resident footprint of the plan (mechanism, policy
  /// transform, per-slab systems), modeled from the policy's domain
  /// and edge counts at planning time. Summed into
  /// plan_cache_stats().bytes and the engine_plan_cache_bytes gauge;
  /// an estimate, not an accounting — nothing evicts by it.
  size_t approx_bytes = 0;
  /// Preformatted audit suffix ("policy 'X' via <kind>") filled in by
  /// the serving layer when it caches the plan, so a warm submit's
  /// ledger entry shares one string for the plan's whole lifetime
  /// instead of formatting a label per charge. Held through its own
  /// shared_ptr (not an aliasing pointer into the plan) so append-only
  /// audit ledgers retain the short string, never the mechanisms.
  /// Null outside the engine.
  std::shared_ptr<const std::string> audit_context;
};

/// Chooses and instantiates a mechanism for the request. Every
/// successful plan carries a non-null `mechanism`; 2D θ>=2 threshold
/// policies return kind "grid-theta-range" backed by the
/// GridThetaHistogramAdapter (callers with explicit range workloads
/// over large domains may still prefer GridThetaRangeMechanism's
/// per-query reconstruction directly).
Result<Plan> PlanMechanism(PlanRequest request);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_PLANNER_H_
