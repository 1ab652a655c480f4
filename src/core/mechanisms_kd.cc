#include "core/mechanisms_kd.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "graph/algorithms.h"
#include "mech/privelet.h"
#include "mech/release_workspace.h"

namespace blowfish {

Result<std::unique_ptr<GridThetaRangeMechanism>>
GridThetaRangeMechanism::Create(const Policy& grid_policy, size_t theta) {
  if (theta < 2) {
    return Status::InvalidArgument(
        "Gθ grid strategy needs θ >= 2; θ = 1 is GridBlowfishMechanism");
  }
  const DomainShape& domain = grid_policy.domain;
  if (domain.num_dims() != 2 || domain.dim(0) != domain.dim(1) ||
      grid_policy.graph.has_bottom() ||
      grid_policy.graph.num_edges() !=
          DistanceThresholdEdgeCount(domain, theta)) {
    return Status::InvalidArgument(
        "grid θ strategy needs G^θ over a square 2D domain");
  }
  const size_t k = domain.dim(0);
  const size_t block = std::max<size_t>(1, theta / 2);
  if (k % block != 0 || k < 2 * block) {
    return Status::InvalidArgument("grid θ strategy requires block | k");
  }

  auto m = std::unique_ptr<GridThetaRangeMechanism>(
      new GridThetaRangeMechanism());
  m->k_ = k;
  m->theta_ = theta;
  m->block_ = block;
  m->original_policy_name_ = GridPolicyName(domain, theta);

  GridSpanner spanner = BuildGridThetaSpanner(domain, block);
  // Lemma 4.5: certify the stretch on the real k×k domain.
  m->stretch_ = MaxEdgeStretch(grid_policy.graph, spanner.graph);
  if (m->stretch_ < 0) return Status::Internal("spanner failed to connect");

  // Edge metadata, aligned with P_G columns (the reduction keeps edge
  // order; the removed vertex is the policy-graph corner, which is red,
  // so no duplicate edges arise).
  const std::vector<Graph::Edge>& edges = spanner.graph.edges();
  m->edge_info_.resize(edges.size());
  std::map<std::pair<size_t, size_t>, size_t> line_of;
  const size_t reds_per_dim = k / block;
  for (size_t e = 0; e < edges.size(); ++e) {
    EdgeInfo& info = m->edge_info_[e];
    info.u = edges[e].u;
    info.v = edges[e].v;
    // Internal edges run black -> red, so an estimate enters a range
    // with sign +1 at its black cell; the slab tables rely on it.
    info.internal = spanner.internal_edge[edges[e].u] == e;
    BF_CHECK_NE(spanner.internal_edge[edges[e].v], e);
    if (!info.internal) {
      // External edge between adjacent red corners; group by line.
      const size_t cu[2] = {edges[e].u / k, edges[e].u % k};
      const size_t cv[2] = {edges[e].v / k, edges[e].v % k};
      const size_t dd = (cu[0] != cv[0]) ? 0 : 1;
      const size_t other = (dd == 0) ? 1 : 0;
      const size_t plane = std::min(cu[dd], cv[dd]) / block;  // block index
      auto key = std::make_pair(dd, plane);
      auto it = line_of.find(key);
      if (it == line_of.end()) {
        m->external_lines_.emplace_back(reds_per_dim, SIZE_MAX);
        it = line_of.emplace(key, m->external_lines_.size() - 1).first;
      }
      const size_t pos = cu[other] / block;  // same for cv
      BF_CHECK_EQ(m->external_lines_[it->second][pos], SIZE_MAX);
      m->external_lines_[it->second][pos] = e;
    }
  }
  // Each external line holds one edge per red position along the free
  // axis (m = k/block of them).
  for (const auto& line : m->external_lines_) {
    for (size_t slot : line) BF_CHECK_NE(slot, SIZE_MAX);
  }

  Policy h_policy{"H^" + std::to_string(theta) + "_{" + std::to_string(k) +
                      "x" + std::to_string(k) + "}",
                  domain, std::move(spanner.graph)};
  Result<PolicyTransform> transform = PolicyTransform::Create(std::move(h_policy));
  if (!transform.ok()) return transform.status();
  m->transform_ = std::move(transform).ValueOrDie();
  if (m->transform_.num_edges() != m->edge_info_.size()) {
    return Status::Internal("θ-grid reduction changed the edge count");
  }
  m->line_privelet_ =
      std::make_shared<const PriveletMechanism>(DomainShape({reds_per_dim}));
  m->row_privelet_ =
      std::make_shared<const PriveletMechanism>(DomainShape({block, k}));
  m->col_privelet_ =
      std::make_shared<const PriveletMechanism>(DomainShape({k, block}));
  return m;
}

void GridThetaRangeMechanism::DrawEstimates(const Vector& xg, double epsilon,
                                            Rng* rng, ReleaseWorkspace* ws,
                                            Estimates* est) const {
  BF_CHECK_GT(epsilon, 0.0);
  BF_CHECK_EQ(xg.size(), edge_info_.size());
  const double eps_prime = epsilon / static_cast<double>(stretch_);
  est->row.assign(k_ * k_, 0.0);
  est->col.assign(k_ * k_, 0.0);
  est->ext.assign(xg.size(), 0.0);

  // External: one 1D Privelet per red-grid line at full ε' (disjoint),
  // each released in place in the gathered line.
  Vector& sub = ws->group;
  sub.resize(k_ / block_);
  for (const std::vector<size_t>& line : external_lines_) {
    for (size_t i = 0; i < line.size(); ++i) sub[i] = xg[line[i]];
    line_privelet_->Release(sub.data(), eps_prime, rng, ws, sub.data());
    for (size_t i = 0; i < line.size(); ++i) est->ext[line[i]] = sub[i];
  }

  // Internal: the slab systems over the k×k grid of black cells (red
  // cells stay zero). Row slab b is rows [b·s, (b+1)·s), a contiguous
  // run of the row-major grid, released straight from the grid; column
  // slab b is columns [b·s, (b+1)·s), gathered and released in place.
  Vector& cells = ws->cells;
  cells.assign(k_ * k_, 0.0);
  for (size_t e = 0; e < edge_info_.size(); ++e) {
    if (edge_info_[e].internal) cells[edge_info_[e].u] = xg[e];
  }
  const size_t slab = block_ * k_;
  Vector& col_slab = ws->group;
  col_slab.resize(slab);
  for (size_t b = 0; b < k_ / block_; ++b) {
    for (size_t i = 0; i < k_; ++i) {
      std::copy_n(&cells[i * k_ + b * block_], block_, &col_slab[i * block_]);
    }
    row_privelet_->Release(&cells[b * slab], eps_prime / 2.0, rng, ws,
                           &est->row[b * slab]);
    col_privelet_->Release(col_slab.data(), eps_prime / 2.0, rng, ws,
                           col_slab.data());
    for (size_t i = 0; i < k_; ++i) {
      std::copy_n(&col_slab[i * block_], block_,
                  &est->col[i * k_ + b * block_]);
    }
  }
}

void GridThetaRangeMechanism::Tabulate(const Estimates& est,
                                       Releases* rel) const {
  const size_t w = k_ + 1;
  rel->ext.assign(w * w, 0.0);
  rel->row.assign(w * w, 0.0);
  rel->col.assign(w * w, 0.0);
  // Cell (i, j) goes to entry (i + 1, j + 1); prefix sums follow.
  const auto at = [&](size_t c) { return (c / k_ + 1) * w + c % k_ + 1; };
  for (size_t e = 0; e < edge_info_.size(); ++e) {
    const EdgeInfo& info = edge_info_[e];
    if (info.internal) {
      rel->row[at(info.u)] = est.row[info.u];
      rel->col[at(info.u)] = est.col[info.u];
    } else {
      rel->ext[at(info.u)] += est.ext[e];
      rel->ext[at(info.v)] -= est.ext[e];
    }
  }
  // Rows first, each a running sum carried in a register; then each
  // row adds the finished row above it.
  for (Vector* table : {&rel->ext, &rel->row, &rel->col}) {
    double* t = table->data();
    for (size_t i = 1; i < w; ++i) {
      double run = t[i * w];
      for (size_t j = 1; j < w; ++j) {
        run = t[i * w + j] + run;
        t[i * w + j] = run;
      }
    }
    for (size_t i = 1; i < w; ++i) {
      for (size_t j = 1; j < w; ++j) t[i * w + j] += t[(i - 1) * w + j];
    }
  }
}

Vector GridThetaRangeMechanism::AnswerRanges(const RangeWorkload& workload,
                                             const Vector& x, double epsilon,
                                             Rng* rng) const {
  return AnswerRangesOnTransformed(workload, PrecomputeTransformed(x),
                                   Sum(x), epsilon, rng);
}

double GridThetaRangeMechanism::AnswerOneRange(size_t r1, size_t r2,
                                               size_t c1, size_t c2,
                                               const Releases& rel,
                                               double n) const {
  const size_t w = k_ + 1;
  // Table sum over the cells [i0, i1)×[j0, j1); 0 when empty.
  const auto rect = [w](const Vector& t, size_t i0, size_t i1, size_t j0,
                        size_t j1) {
    if (i0 >= i1 || j0 >= j1) return 0.0;
    return t[i1 * w + j1] - t[i0 * w + j1] - t[i1 * w + j0] + t[i0 * w + j0];
  };
  const size_t s = block_;
  // First row (column) of r1's (c1's) block, and the end of the last
  // block that closes inside the range: a black cell before row_end
  // (col_end) has its red row (column) at or before r2 (c2).
  const size_t row_start = r1 / s * s, col_start = c1 / s * s;
  const size_t row_end = (r2 + 1) / s * s, col_end = (c2 + 1) / s * s;

  // Case-II constant q[corner] * n, then the external lines.
  double acc = (r2 == k_ - 1 && c2 == k_ - 1) ? n : 0.0;
  acc += rect(rel.ext, r1, r2 + 1, c1, c2 + 1);
  // Figure 7d strips. Black inside, red below r2: row slabs.
  acc += rect(rel.row, std::max(r1, row_end), r2 + 1, c1, c2 + 1);
  // Black inside, red right of c2 (not below r2): column slabs.
  acc += rect(rel.col, r1, row_end, std::max(c1, col_end), c2 + 1);
  // Red inside, black above r1: row slabs.
  if (row_start + s - 1 <= r2) {
    acc -= rect(rel.row, row_start, r1, col_start, col_end);
  }
  // Red inside, black left of c1 (not above r1): column slabs.
  if (col_start + s - 1 <= c2) {
    acc -= rect(rel.col, r1, row_end, col_start, c1);
  }
  return acc;
}

Vector GridThetaRangeMechanism::AnswerRangesOnTransformed(
    const RangeWorkload& workload, const Vector& xg, double n,
    double epsilon, Rng* rng) const {
  BF_CHECK_EQ(workload.domain().num_dims(), 2u);
  BF_CHECK_EQ(workload.domain().size(), k_ * k_);
  ReleaseWorkspace& ws = ReleaseWorkspace::ForThisThread();
  DrawEstimates(xg, epsilon, rng, &ws, &ws.slab_estimates);
  Tabulate(ws.slab_estimates, &ws.slab_tables);

  Vector answers(workload.num_queries(), 0.0);
  for (size_t qi = 0; qi < workload.num_queries(); ++qi) {
    const size_t* lo = workload.lo(qi);
    const size_t* hi = workload.hi(qi);
    answers[qi] = AnswerOneRange(lo[0], hi[0], lo[1], hi[1], ws.slab_tables, n);
  }
  return answers;
}

std::unique_ptr<GridThetaRangeMechanism::RangeCursor>
GridThetaRangeMechanism::BeginRanges(RangeWorkload workload, const Vector& xg,
                                     double n, double epsilon,
                                     Rng* rng) const {
  BF_CHECK_EQ(workload.domain().num_dims(), 2u);
  BF_CHECK_EQ(workload.domain().size(), k_ * k_);
  // All noise for the submit is drawn here — the cursor's chunks are
  // post-processing, so pausing or abandoning it leaks nothing beyond
  // the releases the charge already covered. The cursor owns its
  // tables: it outlives this call and may run on another thread.
  ReleaseWorkspace& ws = ReleaseWorkspace::ForThisThread();
  DrawEstimates(xg, epsilon, rng, &ws, &ws.slab_estimates);
  Releases rel;
  Tabulate(ws.slab_estimates, &rel);
  return std::unique_ptr<RangeCursor>(
      new RangeCursor(this, std::move(workload), std::move(rel), n));
}

size_t GridThetaRangeMechanism::RangeCursor::AnswerNext(size_t count,
                                                        Vector* out) {
  const size_t end = std::min(next_ + count, workload_.num_queries());
  const size_t produced = end - next_;
  out->reserve(out->size() + produced);
  for (; next_ < end; ++next_) {
    const size_t* lo = workload_.lo(next_);
    const size_t* hi = workload_.hi(next_);
    out->push_back(
        mech_->AnswerOneRange(lo[0], hi[0], lo[1], hi[1], releases_, n_));
  }
  return produced;
}

void GridThetaRangeMechanism::ReleaseHistogramOnTransformed(
    const Vector& xg, double n, double epsilon, Rng* rng,
    ReleaseWorkspace* ws, Vector* out) const {
  DrawEstimates(xg, epsilon, rng, ws, &ws->slab_estimates);
  Tabulate(ws->slab_estimates, &ws->slab_tables);

  out->resize(k_ * k_);
  for (size_t i = 0; i < k_; ++i) {
    for (size_t j = 0; j < k_; ++j) {
      (*out)[i * k_ + j] = AnswerOneRange(i, i, j, j, ws->slab_tables, n);
    }
  }
}

PrivacyGuarantee GridThetaRangeMechanism::Guarantee(double epsilon) const {
  return PrivacyGuarantee{
      epsilon, "(" + std::to_string(epsilon) + ", " + original_policy_name_ +
                   ")-Blowfish (Thm 4.1 + Lemma 4.5, stretch " +
                   std::to_string(stretch_) + ")"};
}

}  // namespace blowfish
