#include "core/grid_theta_adapter.h"

#include "common/check.h"

namespace blowfish {

Result<std::unique_ptr<GridThetaHistogramAdapter>>
GridThetaHistogramAdapter::Create(const Policy& grid_policy, size_t theta) {
  Result<std::unique_ptr<GridThetaRangeMechanism>> inner =
      GridThetaRangeMechanism::Create(grid_policy, theta);
  if (!inner.ok()) return inner.status();
  return std::unique_ptr<GridThetaHistogramAdapter>(
      new GridThetaHistogramAdapter(std::move(inner).ValueOrDie(),
                                    grid_policy.domain_size()));
}

std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>
GridThetaHistogramAdapter::PrecomputeRelease(const Vector& x) const {
  BF_CHECK_EQ(x.size(), num_cells_);
  auto pre = std::make_shared<SlabPrecompute>();
  pre->xg = inner_->PrecomputeTransformed(x);
  pre->n = Sum(x);
  return pre;
}

void GridThetaHistogramAdapter::RunPrecomputed(const ReleasePrecompute& pre,
                                               double epsilon, Rng* rng,
                                               ReleaseWorkspace* ws,
                                               Vector* out) const {
  const auto& slab_pre = static_cast<const SlabPrecompute&>(pre);
  inner_->ReleaseHistogramOnTransformed(slab_pre.xg, slab_pre.n, epsilon, rng,
                                        ws, out);
}

}  // namespace blowfish
