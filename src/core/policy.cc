#include "core/policy.h"

namespace blowfish {

Policy UnboundedDpPolicy(size_t k) {
  return Policy{"unbounded-DP", DomainShape({k}), StarBottomGraph(k)};
}

Policy BoundedDpPolicy(size_t k) {
  return Policy{"bounded-DP", DomainShape({k}), CompleteGraph(k)};
}

Policy LinePolicy(size_t k) {
  return Policy{"G^1_" + std::to_string(k), DomainShape({k}), LineGraph(k)};
}

Policy Theta1DPolicy(size_t k, size_t theta) {
  DomainShape domain({k});
  return Policy{Theta1DPolicyName(k, theta), domain,
                DistanceThresholdGraph(domain, theta)};
}

Policy GridPolicy(const DomainShape& domain, size_t theta) {
  return Policy{GridPolicyName(domain, theta), domain,
                DistanceThresholdGraph(domain, theta)};
}

std::string Theta1DPolicyName(size_t k, size_t theta) {
  return "G^" + std::to_string(theta) + "_" + std::to_string(k);
}

std::string GridPolicyName(const DomainShape& domain, size_t theta) {
  std::string dims;
  for (size_t i = 0; i < domain.num_dims(); ++i) {
    if (i > 0) dims += "x";
    dims += std::to_string(domain.dim(i));
  }
  return "G^" + std::to_string(theta) + "_{" + dims + "}";
}

Policy SensitiveAttributePolicy(const DomainShape& domain,
                                const std::vector<size_t>& sensitive_dims) {
  return Policy{"sensitive-attrs", domain,
                SensitiveAttributeGraph(domain, sensitive_dims)};
}

}  // namespace blowfish
