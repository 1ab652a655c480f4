#include "core/mechanisms_1d.h"

#include <algorithm>

#include "common/check.h"
#include "mech/consistency.h"
#include "mech/partitioned.h"
#include "mech/privelet.h"

namespace blowfish {

TreeTransformMechanism::TreeTransformMechanism(PolicyTransform transform,
                                               HistogramMechanismPtr inner,
                                               Options options)
    : transform_(std::move(transform)),
      inner_(std::move(inner)),
      options_(std::move(options)) {
  label_ = options_.label.empty()
               ? "TreeTransform[" + inner_->name() + "]@" +
                     transform_.policy().name
               : options_.label;
}

Result<std::unique_ptr<TreeTransformMechanism>> TreeTransformMechanism::Create(
    PolicyTransform transform, HistogramMechanismPtr inner, Options options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("tree transform: inner mechanism required");
  }
  if (!transform.is_tree()) {
    return Status::InvalidArgument(
        "tree transform requires a tree-reducible policy (Theorem 4.3); "
        "use the matrix-mechanism strategies or a spanner instead");
  }
  return std::unique_ptr<TreeTransformMechanism>(new TreeTransformMechanism(
      std::move(transform), std::move(inner), std::move(options)));
}

Result<std::unique_ptr<TreeTransformMechanism>> TreeTransformMechanism::Create(
    Policy policy, HistogramMechanismPtr inner, Options options) {
  Result<PolicyTransform> transform = PolicyTransform::Create(std::move(policy));
  if (!transform.ok()) return transform.status();
  return Create(std::move(transform).ValueOrDie(), std::move(inner),
                std::move(options));
}

Result<std::unique_ptr<TreeTransformMechanism>> TreeTransformMechanism::Create(
    Policy policy, HistogramMechanismPtr inner) {
  return Create(std::move(policy), std::move(inner), Options());
}

namespace {
/// Noise-free half of a tree-transform release: the transformed
/// database and the (public) component totals.
struct TreePrecompute : BlowfishMechanism::ReleasePrecompute {
  Vector xg;
  Vector component_totals;
  size_t ApproxBytes() const override {
    return sizeof(TreePrecompute) +
           (xg.capacity() + component_totals.capacity()) * sizeof(double);
  }
  std::string_view SerialFamily() const override { return "tree/1"; }
  void EncodePayload(BlowfishMechanism::PrecomputePayload* out) const override {
    out->vectors = {xg, component_totals};
    out->scalars.clear();
  }
};
}  // namespace

std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>
TreeTransformMechanism::PrecomputeRelease(const Vector& x) const {
  auto pre = std::make_shared<TreePrecompute>();
  pre->xg = transform_.TransformDatabase(x);
  pre->component_totals = transform_.ComponentTotals(x);
  if (options_.enforce_monotone) {
    // The projection is only the paper's consistency step if the true
    // transformed database satisfies the constraint.
    BF_CHECK_MSG(std::is_sorted(pre->xg.begin(), pre->xg.end()),
                 "enforce_monotone requires a monotone transformed database "
                 "(line-policy prefix sums)");
  }
  return pre;
}

std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>
TreeTransformMechanism::DecodePrecompute(
    std::string_view family, const PrecomputePayload& payload) const {
  // Every structural property RunPrecomputed assumes is re-validated
  // here; any mismatch means the payload was recorded for a different
  // policy/transform and the caller must recompute (fail-open).
  if (family != "tree/1") return nullptr;
  if (payload.vectors.size() != 2 || !payload.scalars.empty()) return nullptr;
  auto pre = std::make_shared<TreePrecompute>();
  pre->xg = payload.vectors[0];
  pre->component_totals = payload.vectors[1];
  if (pre->xg.size() != transform_.num_edges()) return nullptr;
  if (pre->component_totals.size() != transform_.reduction().removed.size()) {
    return nullptr;
  }
  if (options_.enforce_monotone &&
      !std::is_sorted(pre->xg.begin(), pre->xg.end())) {
    return nullptr;
  }
  return pre;
}

void TreeTransformMechanism::RunPrecomputed(const ReleasePrecompute& pre,
                                            double epsilon, Rng* rng,
                                            ReleaseWorkspace* ws,
                                            Vector* out) const {
  BF_CHECK_GT(epsilon, 0.0);
  const auto& tree_pre = static_cast<const TreePrecompute&>(pre);
  inner_->Run(tree_pre.xg, epsilon, rng, ws, &ws->noisy);
  if (options_.enforce_monotone) IsotonicRegression(&ws->noisy, &ws->pava);
  // Component totals are public under a bounded policy (neighboring
  // databases share them by Definition 3.2).
  transform_.ReconstructHistogram(ws->noisy, tree_pre.component_totals.data(),
                                  tree_pre.component_totals.size(), &ws->kept,
                                  out);
}

PrivacyGuarantee TreeTransformMechanism::Guarantee(double epsilon) const {
  return PrivacyGuarantee{epsilon,
                          "(" + std::to_string(epsilon) + ", " +
                              transform_.policy().name + ")-Blowfish"};
}

SpannerMechanism::SpannerMechanism(std::string original_policy_name,
                                   int64_t stretch,
                                   BlowfishMechanismPtr inner)
    : original_policy_name_(std::move(original_policy_name)),
      stretch_(stretch),
      inner_(std::move(inner)) {
  BF_CHECK_GE(stretch_, 1);
  BF_CHECK(inner_ != nullptr);
  label_ = inner_->name() + "/stretch" + std::to_string(stretch_);
}

PrivacyGuarantee SpannerMechanism::Guarantee(double epsilon) const {
  return PrivacyGuarantee{epsilon,
                          "(" + std::to_string(epsilon) + ", " +
                              original_policy_name_ + ")-Blowfish"};
}

HistogramMechanismPtr MakeGroupedPriveletForLineSpanner(
    const LineSpanner& spanner) {
  auto factory = [](size_t size) -> HistogramMechanismPtr {
    return std::make_shared<PriveletMechanism>(DomainShape({size}));
  };
  return std::make_shared<PartitionedMechanism>(
      spanner.group_ends, factory, "GroupedPrivelet");
}

Result<std::unique_ptr<SpannerMechanism>> MakeThetaLineMechanism(
    const Policy& theta_policy, size_t theta, HistogramMechanismPtr inner,
    const std::string& label, bool use_grouped_privelet) {
  const DomainShape& domain = theta_policy.domain;
  if (domain.num_dims() != 1 || theta == 0 ||
      theta_policy.graph.has_bottom() ||
      theta_policy.graph.num_edges() !=
          DistanceThresholdEdgeCount(domain, theta)) {
    return Status::InvalidArgument(
        "theta line mechanism: policy is not G^θ_k over a 1D domain");
  }
  const size_t k = domain.size();
  Result<SpannerCertificate> cert = LineThetaSpannerFor(theta_policy, theta);
  if (!cert.ok()) return cert.status();
  SpannerCertificate c = std::move(cert).ValueOrDie();

  HistogramMechanismPtr effective_inner = inner;
  if (use_grouped_privelet) {
    effective_inner =
        MakeGroupedPriveletForLineSpanner(BuildLineThetaSpanner(k, theta));
  }
  if (effective_inner == nullptr) {
    return Status::InvalidArgument("theta line mechanism: inner required");
  }

  TreeTransformMechanism::Options options;
  options.label = label;
  Result<std::unique_ptr<TreeTransformMechanism>> tree =
      TreeTransformMechanism::Create(std::move(c.spanner),
                                     std::move(effective_inner), options);
  if (!tree.ok()) return tree.status();
  return std::make_unique<SpannerMechanism>(Theta1DPolicyName(k, theta),
                                            c.stretch,
                                            std::move(tree).ValueOrDie());
}

}  // namespace blowfish
