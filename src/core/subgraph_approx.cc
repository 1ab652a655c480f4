#include "core/subgraph_approx.h"

#include <utility>

#include "common/check.h"
#include "graph/algorithms.h"

namespace blowfish {

LineSpanner BuildLineThetaSpanner(size_t k, size_t theta) {
  BF_CHECK_GE(theta, 1u);
  BF_CHECK_GE(k, 2u);
  BF_CHECK_MSG(k % theta == 0, "Hθ_k requires θ | k (the paper's setting)");
  LineSpanner spanner{Graph(), theta, {}};
  std::vector<Graph::Edge> edges;
  edges.reserve(k - 1);  // a tree
  spanner.group_ends.reserve(k / theta);
  // Red vertices sit at positions θ-1, 2θ-1, ..., k-1 (0-based). Group
  // m collects every edge whose right endpoint is red vertex
  // r = (m+1)θ-1: the θ-1 non-red vertices to its left plus the edge
  // from the previous red vertex (absent for the first group).
  for (size_t m = 0; m < k / theta; ++m) {
    const size_t red = (m + 1) * theta - 1;
    if (m > 0) edges.push_back({m * theta - 1, red});  // previous red
    for (size_t u = m * theta; u < red; ++u) edges.push_back({u, red});
    spanner.group_ends.push_back(edges.size());
  }
  BF_CHECK_EQ(edges.size(), k - 1);
  spanner.graph = Graph(k, std::move(edges));
  return spanner;
}

GridSpanner BuildGridThetaSpanner(const DomainShape& domain, size_t block) {
  BF_CHECK_GE(block, 1u);
  const size_t d = domain.num_dims();
  for (size_t i = 0; i < d; ++i) {
    BF_CHECK_MSG(domain.dim(i) % block == 0,
                 "grid spanner requires block | dim");
  }
  GridSpanner spanner{Graph(), block, {}, {}};
  spanner.red_of.resize(domain.size());
  spanner.internal_edge.assign(domain.size(), SIZE_MAX);

  // Red corner of the block containing coordinate c along one axis:
  // (floor(c / block) + 1) * block - 1.
  std::vector<size_t> coords;
  for (size_t u = 0; u < domain.size(); ++u) {
    domain.Unflatten(u, &coords);
    for (size_t& c : coords) c = (c / block + 1) * block - 1;
    spanner.red_of[u] = domain.Flatten(coords);
  }
  // Internal edges: non-red vertex -> its red corner.
  std::vector<Graph::Edge> edges;
  edges.reserve(d * domain.size());  // >= (k^d - reds) + d·reds
  for (size_t u = 0; u < domain.size(); ++u) {
    if (spanner.red_of[u] != u) {
      spanner.internal_edge[u] = edges.size();
      edges.push_back({u, spanner.red_of[u]});
    }
  }
  // External edges: red corners form a coarse grid (adjacent blocks).
  for (size_t u = 0; u < domain.size(); ++u) {
    if (spanner.red_of[u] != u) continue;  // red vertices only
    domain.Unflatten(u, &coords);
    for (size_t i = 0; i < d; ++i) {
      if (coords[i] + block < domain.dim(i)) {
        coords[i] += block;
        edges.push_back({u, domain.Flatten(coords)});
        coords[i] -= block;
      }
    }
  }
  spanner.graph = Graph(domain.size(), std::move(edges));
  return spanner;
}

Result<SpannerCertificate> CertifySpanner(const Policy& original,
                                          Policy spanner) {
  if (original.domain_size() != spanner.domain_size()) {
    return Status::InvalidArgument("spanner domain mismatch");
  }
  const int64_t stretch = MaxEdgeStretch(original.graph, spanner.graph);
  if (stretch < 0) {
    return Status::InvalidArgument(
        "spanner does not connect every policy edge");
  }
  return SpannerCertificate{std::move(spanner), stretch};
}

Result<SpannerCertificate> LineThetaSpannerFor(const Policy& theta_policy,
                                               size_t theta) {
  const size_t k = theta_policy.domain_size();
  if (k % theta != 0) {
    return Status::InvalidArgument("Hθ_k requires θ | k");
  }
  LineSpanner line = BuildLineThetaSpanner(k, theta);
  Policy spanner{"H^" + std::to_string(theta) + "_" + std::to_string(k),
                 theta_policy.domain, std::move(line.graph)};
  return CertifySpanner(theta_policy, std::move(spanner));
}

}  // namespace blowfish
