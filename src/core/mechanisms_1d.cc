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
    Policy policy, HistogramMechanismPtr inner, Options options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("tree transform: inner mechanism required");
  }
  Result<PolicyTransform> transform = PolicyTransform::Create(std::move(policy));
  if (!transform.ok()) return transform.status();
  if (!transform.ValueOrDie().is_tree()) {
    return Status::InvalidArgument(
        "tree transform requires a tree-reducible policy (Theorem 4.3); "
        "use the matrix-mechanism strategies or a spanner instead");
  }
  return std::unique_ptr<TreeTransformMechanism>(new TreeTransformMechanism(
      std::move(transform).ValueOrDie(), std::move(inner),
      std::move(options)));
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
  bool EncodePayload(BlowfishMechanism::PrecomputePayload* out) const override {
    out->vectors = {xg, component_totals};
    out->scalars.clear();
    return true;
  }
};
}  // namespace

Vector TreeTransformMechanism::Run(const Vector& x, double epsilon,
                                   Rng* rng) const {
  TreePrecompute pre;
  pre.xg = transform_.TransformDatabase(x);
  pre.component_totals = transform_.ComponentTotals(x);
  if (options_.enforce_monotone) {
    // The projection is only the paper's consistency step if the true
    // transformed database satisfies the constraint.
    BF_CHECK_MSG(std::is_sorted(pre.xg.begin(), pre.xg.end()),
                 "enforce_monotone requires a monotone transformed database "
                 "(line-policy prefix sums)");
  }
  return RunPrecomputed(pre, epsilon, rng);
}

std::shared_ptr<const BlowfishMechanism::ReleasePrecompute>
TreeTransformMechanism::PrecomputeRelease(const Vector& x) const {
  auto pre = std::make_shared<TreePrecompute>();
  pre->xg = transform_.TransformDatabase(x);
  pre->component_totals = transform_.ComponentTotals(x);
  if (options_.enforce_monotone) {
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

Vector TreeTransformMechanism::RunPrecomputed(const ReleasePrecompute& pre,
                                              double epsilon,
                                              Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  const auto& tree_pre = static_cast<const TreePrecompute&>(pre);
  Vector xg_noisy = inner_->Run(tree_pre.xg, epsilon, rng);
  if (options_.enforce_monotone) {
    xg_noisy = IsotonicRegression(xg_noisy);
  }
  // Component totals are public under a bounded policy (neighboring
  // databases share them by Definition 3.2).
  return transform_.ReconstructHistogram(xg_noisy,
                                         tree_pre.component_totals);
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

Vector SpannerMechanism::Run(const Vector& x, double epsilon,
                             Rng* rng) const {
  BF_CHECK_GT(epsilon, 0.0);
  // Lemma 4.5: an (ε/ℓ, H) mechanism is (ε, G)-Blowfish private.
  return inner_->Run(x, epsilon / static_cast<double>(stretch_), rng);
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
    size_t k, size_t theta, HistogramMechanismPtr inner,
    const std::string& label, bool use_grouped_privelet) {
  const Policy original = Theta1DPolicy(k, theta);
  Result<SpannerCertificate> cert = LineThetaSpannerFor(original, theta);
  if (!cert.ok()) return cert.status();
  const SpannerCertificate& c = cert.ValueOrDie();

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
      TreeTransformMechanism::Create(c.spanner, std::move(effective_inner),
                                     options);
  if (!tree.ok()) return tree.status();
  return std::make_unique<SpannerMechanism>(original.name, c.stretch,
                                            std::move(tree).ValueOrDie());
}

}  // namespace blowfish
