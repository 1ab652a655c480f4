#include "core/mechanisms_2d.h"

#include <map>

#include "common/check.h"
#include "mech/privelet.h"

namespace blowfish {

GridBlowfishMechanism::GridBlowfishMechanism(PolicyTransform transform)
    : transform_(std::move(transform)) {
  BuildLineGroups();
}

Result<std::unique_ptr<GridBlowfishMechanism>> GridBlowfishMechanism::Create(
    Policy policy) {
  if (policy.domain.num_dims() < 2) {
    return Status::InvalidArgument(
        "grid strategy needs a >=2-dimensional domain; use the tree "
        "transform for 1D line policies");
  }
  // Validate θ=1 structure: every edge connects L1-distance-1 vertices.
  for (const Graph::Edge& e : policy.graph.edges()) {
    if (e.v == Graph::kBottom ||
        policy.domain.L1Distance(e.u, e.v) != 1) {
      return Status::InvalidArgument(
          "grid strategy requires the θ=1 grid policy graph");
    }
  }
  Result<PolicyTransform> transform = PolicyTransform::Create(std::move(policy));
  if (!transform.ok()) return transform.status();
  // The reduction must keep edge columns aligned with original edges.
  if (transform.ValueOrDie().num_edges() !=
      transform.ValueOrDie().policy().graph.num_edges()) {
    return Status::Internal("grid reduction changed the edge count");
  }
  return std::unique_ptr<GridBlowfishMechanism>(
      new GridBlowfishMechanism(std::move(transform).ValueOrDie()));
}

void GridBlowfishMechanism::BuildLineGroups() {
  const Graph& g = transform_.policy().graph;
  const DomainShape& dom = transform_.policy().domain;
  const size_t d = dom.num_dims();

  std::map<std::pair<size_t, size_t>, size_t> line_of;  // (dim, plane) -> idx
  const std::vector<Graph::Edge>& edges = g.edges();
  std::vector<size_t> cu, cv, rest;  // reused for every edge
  for (size_t e = 0; e < edges.size(); ++e) {
    dom.Unflatten(edges[e].u, &cu);
    dom.Unflatten(edges[e].v, &cv);
    size_t dd = SIZE_MAX;
    for (size_t i = 0; i < d; ++i) {
      if (cu[i] != cv[i]) {
        BF_CHECK_EQ(dd, SIZE_MAX);
        dd = i;
      }
    }
    BF_CHECK_NE(dd, SIZE_MAX);
    const size_t plane = std::min(cu[dd], cv[dd]);
    const auto key = std::make_pair(dd, plane);
    auto it = line_of.find(key);
    if (it == line_of.end()) {
      // New line: its cells are indexed by the remaining d-1 coords.
      std::vector<size_t> rest_dims;
      for (size_t i = 0; i < d; ++i) {
        if (i != dd) rest_dims.push_back(dom.dim(i));
      }
      if (rest_dims.empty()) rest_dims.push_back(1);
      group_shapes_.emplace_back(rest_dims);
      groups_.emplace_back(group_shapes_.back().size(), SIZE_MAX);
      it = line_of.emplace(key, groups_.size() - 1).first;
    }
    rest.clear();
    for (size_t i = 0; i < d; ++i) {
      if (i != dd) rest.push_back(cu[i]);
    }
    if (rest.empty()) rest.push_back(0);
    const size_t pos = group_shapes_[it->second].Flatten(rest);
    BF_CHECK_EQ(groups_[it->second][pos], SIZE_MAX);
    groups_[it->second][pos] = e;
  }
  // Every edge must land in exactly one line slot.
  size_t placed = 0;
  for (const auto& group : groups_) {
    for (size_t slot : group) {
      BF_CHECK_NE(slot, SIZE_MAX);
      ++placed;
    }
  }
  BF_CHECK_EQ(placed, edges.size());

  // One Privelet instance per line shape, shared by every line of
  // that shape and every release (building the wavelet weights per
  // Run() used to dominate the warm release cost).
  std::map<std::vector<size_t>, std::shared_ptr<const PriveletMechanism>>
      by_shape;
  group_mechanisms_.reserve(groups_.size());
  for (const DomainShape& shape : group_shapes_) {
    auto it = by_shape.find(shape.dims());
    if (it == by_shape.end()) {
      it = by_shape
               .emplace(shape.dims(),
                        std::make_shared<const PriveletMechanism>(shape))
               .first;
    }
    group_mechanisms_.push_back(it->second);
  }
}

namespace {
/// Noise-free half of a grid release: the edge-domain transform and
/// the public database size.
struct GridPrecompute : BlowfishMechanism::ReleasePrecompute {
  Vector xg;
  double n = 0.0;
  size_t ApproxBytes() const override {
    return sizeof(GridPrecompute) + xg.capacity() * sizeof(double);
  }
  std::string_view SerialFamily() const override { return "grid/1"; }
  void EncodePayload(BlowfishMechanism::PrecomputePayload* out) const override {
    out->vectors = {xg};
    out->scalars = {n};
  }
};
}  // namespace

std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>
GridBlowfishMechanism::PrecomputeRelease(const Vector& x) const {
  auto pre = std::make_shared<GridPrecompute>();
  pre->xg = transform_.TransformDatabase(x);
  pre->n = Sum(x);
  return pre;
}

std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>
GridBlowfishMechanism::DecodePrecompute(
    std::string_view family, const PrecomputePayload& payload) const {
  if (family != "grid/1") return nullptr;
  if (payload.vectors.size() != 1 || payload.scalars.size() != 1) {
    return nullptr;
  }
  auto pre = std::make_shared<GridPrecompute>();
  pre->xg = payload.vectors[0];
  pre->n = payload.scalars[0];
  if (pre->xg.size() != transform_.num_edges()) return nullptr;
  return pre;
}

void GridBlowfishMechanism::RunPrecomputed(const ReleasePrecompute& pre,
                                           double epsilon, Rng* rng,
                                           ReleaseWorkspace* ws,
                                           Vector* out) const {
  const auto& grid_pre = static_cast<const GridPrecompute&>(pre);
  const Vector& xg = grid_pre.xg;
  BF_CHECK_EQ(xg.size(), transform_.num_edges());
  BF_CHECK_GT(epsilon, 0.0);
  Vector& noisy = ws->noisy;
  noisy.assign(xg.size(), 0.0);
  // Each line runs its (shared, immutable) Privelet instance at the
  // full budget — lines are disjoint, so parallel composition applies.
  Vector& line = ws->group;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    line.resize(groups_[gi].size());
    for (size_t i = 0; i < line.size(); ++i) line[i] = xg[groups_[gi][i]];
    group_mechanisms_[gi]->Release(line.data(), epsilon, rng, ws, line.data());
    for (size_t i = 0; i < line.size(); ++i) noisy[groups_[gi][i]] = line[i];
  }
  // A grid policy is connected: one removed vertex, whose total is n.
  transform_.ReconstructHistogram(noisy, &grid_pre.n, 1, &ws->kept, out);
}

PrivacyGuarantee GridBlowfishMechanism::Guarantee(double epsilon) const {
  return PrivacyGuarantee{epsilon,
                          "(" + std::to_string(epsilon) + ", " +
                              transform_.policy().name +
                              ")-Blowfish (Theorem 4.1)"};
}

}  // namespace blowfish
