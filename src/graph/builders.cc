#include "graph/builders.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/check.h"

namespace blowfish {

DomainShape::DomainShape(std::vector<size_t> dims) : dims_(std::move(dims)) {
  BF_CHECK(!dims_.empty());
  size_ = 1;
  for (size_t d : dims_) {
    BF_CHECK_GT(d, 0u);
    size_ *= d;
  }
}

size_t DomainShape::Flatten(const std::vector<size_t>& coords) const {
  BF_CHECK_EQ(coords.size(), dims_.size());
  size_t idx = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    BF_CHECK_LT(coords[i], dims_[i]);
    idx = idx * dims_[i] + coords[i];
  }
  return idx;
}

void DomainShape::Unflatten(size_t index, std::vector<size_t>* coords) const {
  BF_CHECK_LT(index, size_);
  coords->resize(dims_.size());
  for (size_t i = dims_.size(); i-- > 0;) {
    (*coords)[i] = index % dims_[i];
    index /= dims_[i];
  }
}

size_t DomainShape::L1Distance(size_t a, size_t b) const {
  BF_CHECK_LT(a, size_);
  BF_CHECK_LT(b, size_);
  size_t dist = 0;
  for (size_t i = dims_.size(); i-- > 0;) {
    const size_t ca = a % dims_[i];
    const size_t cb = b % dims_[i];
    dist += ca > cb ? ca - cb : cb - ca;
    a /= dims_[i];
    b /= dims_[i];
  }
  return dist;
}

Graph LineGraph(size_t k) {
  BF_CHECK_GE(k, 2u);
  std::vector<Graph::Edge> edges;
  for (size_t i = 0; i + 1 < k; ++i) edges.push_back({i, i + 1});
  return Graph(k, std::move(edges));
}

Graph CycleGraph(size_t k) {
  BF_CHECK_GE(k, 3u);
  std::vector<Graph::Edge> edges = LineGraph(k).edges();
  edges.push_back({k - 1, 0});
  return Graph(k, std::move(edges));
}

Graph CompleteGraph(size_t k) {
  BF_CHECK_GE(k, 2u);
  std::vector<Graph::Edge> edges;
  for (size_t i = 0; i < k; ++i)
    for (size_t j = i + 1; j < k; ++j) edges.push_back({i, j});
  return Graph(k, std::move(edges));
}

Graph StarBottomGraph(size_t k) {
  BF_CHECK_GE(k, 1u);
  std::vector<Graph::Edge> edges;
  for (size_t i = 0; i < k; ++i) edges.push_back({i, Graph::kBottom});
  return Graph(k, std::move(edges));
}

namespace {

// Enumerates nonzero integer offsets delta with sum |delta_i| <= theta
// whose first nonzero coordinate is positive, so each unordered vertex
// pair is generated exactly once.
void EnumerateOffsets(size_t dim, size_t num_dims, int64_t remaining,
                      bool fixed_positive, std::vector<int64_t>* current,
                      std::vector<std::vector<int64_t>>* out) {
  if (dim == num_dims) {
    if (fixed_positive) out->push_back(*current);
    return;
  }
  const int64_t lo = fixed_positive ? -remaining : 0;
  for (int64_t v = lo; v <= remaining; ++v) {
    (*current)[dim] = v;
    const bool next_fixed = fixed_positive || v > 0;
    // Once the leading coordinate is 0, a negative value would make the
    // first nonzero coordinate negative; skip those branches.
    if (!fixed_positive && v < 0) continue;
    EnumerateOffsets(dim + 1, num_dims, remaining - std::llabs(v), next_fixed,
                     current, out);
  }
}

}  // namespace

Graph DistanceThresholdGraph(const DomainShape& domain, size_t theta) {
  BF_CHECK_GE(theta, 1u);
  const size_t d = domain.num_dims();
  std::vector<std::vector<int64_t>> offsets;
  std::vector<int64_t> current(d, 0);
  EnumerateOffsets(0, d, static_cast<int64_t>(theta), false, &current,
                   &offsets);

  std::vector<Graph::Edge> edges;
  edges.reserve(DistanceThresholdEdgeCount(domain, theta));
  std::vector<size_t> coords;
  std::vector<size_t> other(d);
  for (size_t u = 0; u < domain.size(); ++u) {
    domain.Unflatten(u, &coords);
    for (const auto& delta : offsets) {
      bool ok = true;
      for (size_t i = 0; i < d; ++i) {
        const int64_t c = static_cast<int64_t>(coords[i]) + delta[i];
        if (c < 0 || c >= static_cast<int64_t>(domain.dim(i))) {
          ok = false;
          break;
        }
        other[i] = static_cast<size_t>(c);
      }
      if (ok) edges.push_back({u, domain.Flatten(other)});
    }
  }
  return Graph(domain.size(), std::move(edges));
}

size_t DistanceThresholdEdgeCount(const DomainShape& domain, size_t theta) {
  size_t diameter = 0;  // no offset reaches farther than this
  for (size_t i = 0; i < domain.num_dims(); ++i) diameter += domain.dim(i) - 1;
  theta = std::min(theta, diameter);
  // pairs[b]: Σ over offsets of the dims seen so far with ‖δ‖₁ = b of
  // the in-grid pair counts Π (n_i − |δ_i|).
  std::vector<size_t> pairs(theta + 1, 0);
  pairs[0] = 1;
  for (size_t i = 0; i < domain.num_dims(); ++i) {
    const size_t n = domain.dim(i);
    std::vector<size_t> next(theta + 1, 0);
    for (size_t b = 0; b <= theta; ++b) {
      for (size_t t = 0; t <= b && t < n; ++t) {
        next[b] += pairs[b - t] * (t == 0 ? n : 2 * (n - t));  // ±t
      }
    }
    pairs = std::move(next);
  }
  size_t ordered = 0;
  for (size_t b = 1; b <= theta; ++b) ordered += pairs[b];
  return ordered / 2;
}

Graph SensitiveAttributeGraph(const DomainShape& domain,
                              const std::vector<size_t>& sensitive_dims) {
  std::vector<Graph::Edge> edges;
  std::vector<size_t> coords;
  for (size_t u = 0; u < domain.size(); ++u) {
    domain.Unflatten(u, &coords);
    for (size_t dim : sensitive_dims) {
      BF_CHECK_LT(dim, domain.num_dims());
      const size_t c = coords[dim];
      for (size_t v = c + 1; v < domain.dim(dim); ++v) {
        coords[dim] = v;
        edges.push_back({u, domain.Flatten(coords)});
      }
      coords[dim] = c;
    }
  }
  return Graph(domain.size(), std::move(edges));
}

}  // namespace blowfish
