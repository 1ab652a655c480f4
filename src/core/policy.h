// Blowfish privacy policies (Section 3). A policy bundles the domain
// shape with a policy graph G whose edges are the value pairs an
// adversary must not distinguish (Definitions 3.1-3.3). Factories
// cover every policy the paper evaluates plus the two degenerate
// policies that recover classical differential privacy.

#ifndef BLOWFISH_CORE_POLICY_H_
#define BLOWFISH_CORE_POLICY_H_

#include <string>

#include "graph/builders.h"
#include "graph/graph.h"

namespace blowfish {

/// \brief A Blowfish privacy policy: a named policy graph over a
/// (possibly multi-dimensional) domain.
struct Policy {
  std::string name;
  DomainShape domain;
  Graph graph;

  size_t domain_size() const { return domain.size(); }
};

/// Unbounded differential privacy: star to ⊥ — P_G is the identity and
/// Blowfish degenerates to Definition 2.1/2.2.
Policy UnboundedDpPolicy(size_t k);

/// Bounded differential privacy: the complete graph on T.
Policy BoundedDpPolicy(size_t k);

/// The line policy G¹_k of Section 3 ("Line Graph": binned salaries).
Policy LinePolicy(size_t k);

/// The 1D distance-threshold policy Gθ_k (Section 5.1).
Policy Theta1DPolicy(size_t k, size_t theta);

/// The d-dimensional distance-threshold policy Gθ_{k^d} over an
/// arbitrary grid domain; θ=1 on a square 2D domain is the grid policy
/// of Sections 1 and 3 (geo-indistinguishability-like).
Policy GridPolicy(const DomainShape& domain, size_t theta);

/// The names Theta1DPolicy ("G^θ_k") and GridPolicy ("G^θ_{AxB}") give
/// their policies. The Gθ mechanisms state their guarantees under these
/// canonical names, whatever the name of the policy they certify.
std::string Theta1DPolicyName(size_t k, size_t theta);
std::string GridPolicyName(const DomainShape& domain, size_t theta);

/// Appendix E's sensitive-attribute policy: values are tuples over
/// `domain`; neighbors differ in exactly one *sensitive* attribute.
/// Generally disconnected.
Policy SensitiveAttributePolicy(const DomainShape& domain,
                                const std::vector<size_t>& sensitive_dims);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_POLICY_H_
