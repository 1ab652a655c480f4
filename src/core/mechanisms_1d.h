// Blowfish mechanisms for tree-reducible policies (Sections 5.2.1,
// 5.3.1, 5.4).
//
// TreeTransformMechanism is Algorithm 1 in its general form: transform
// the database with P_G⁻¹ (for the line policy this yields prefix
// sums), estimate the transformed database with *any* ε-DP histogram
// mechanism (Theorem 4.3 covers all mechanisms when the reduced policy
// graph is a tree — Laplace gives the paper's data-independent
// strategy, DAWA the data-dependent one), optionally project onto the
// non-decreasing constraint (Section 5.4.2), and lift the estimate
// back to the original domain.
//
// SpannerMechanism wraps any Blowfish mechanism for a substitute
// policy H with certified stretch ℓ and runs it at budget ε/ℓ,
// yielding an (ε, G) guarantee by Lemma 4.5 / Corollary 4.6. Combined
// with TreeTransformMechanism over Hθ_k this is the Section 5.3.1
// strategy; with a grouped-Privelet inner mechanism it is exactly
// Theorem 5.5.

#ifndef BLOWFISH_CORE_MECHANISMS_1D_H_
#define BLOWFISH_CORE_MECHANISMS_1D_H_

#include <memory>

#include "common/check.h"
#include "common/status.h"
#include "core/blowfish_mechanism.h"
#include "core/subgraph_approx.h"
#include "core/transform.h"

namespace blowfish {

/// \brief Theorem 4.3 mechanism for tree-reducible policies.
class TreeTransformMechanism : public BlowfishMechanism {
 public:
  struct Options {
    /// Project the noisy transformed database onto non-decreasing
    /// sequences (valid — and checked at run time — when the true
    /// transformed database is monotone, e.g. line policies where it
    /// is the prefix-sum vector).
    bool enforce_monotone = false;
    /// Display-name override.
    std::string label;
  };

  /// Fails unless the reduced policy graph is a tree (Theorem 4.3's
  /// hypothesis). The transform-taking form adopts a transform the
  /// caller already built; the policy-taking forms build it and
  /// delegate.
  static Result<std::unique_ptr<TreeTransformMechanism>> Create(
      PolicyTransform transform, HistogramMechanismPtr inner,
      Options options);
  static Result<std::unique_ptr<TreeTransformMechanism>> Create(
      Policy policy, HistogramMechanismPtr inner, Options options);
  static Result<std::unique_ptr<TreeTransformMechanism>> Create(
      Policy policy, HistogramMechanismPtr inner);

  std::string name() const override { return label_; }
  PrivacyGuarantee Guarantee(double epsilon) const override;

  /// Caches the transformed database and component totals — the
  /// noise-free half of a release; RunPrecomputed only draws noise and
  /// lifts the estimate back.
  std::shared_ptr<const ReleasePrecompute> PrecomputeRelease(
      const Vector& x) const override;
  using BlowfishMechanism::RunPrecomputed;
  void RunPrecomputed(const ReleasePrecompute& pre, double epsilon, Rng* rng,
                      ReleaseWorkspace* ws, Vector* out) const override;

  /// Restores a snapshot-persisted "tree/1" precompute. Null on any
  /// family/shape mismatch (the caller then recomputes from data).
  std::shared_ptr<const ReleasePrecompute> DecodePrecompute(
      std::string_view family, const PrecomputePayload& payload) const override;

  const PolicyTransform& transform() const { return transform_; }

 private:
  TreeTransformMechanism(PolicyTransform transform,
                         HistogramMechanismPtr inner, Options options);

  PolicyTransform transform_;
  HistogramMechanismPtr inner_;
  Options options_;
  std::string label_;
};

/// \brief Lemma 4.5 wrapper: runs an (·, H)-Blowfish mechanism at
/// budget ε/ℓ to obtain an (ε, G)-Blowfish guarantee.
class SpannerMechanism : public BlowfishMechanism {
 public:
  SpannerMechanism(std::string original_policy_name, int64_t stretch,
                   BlowfishMechanismPtr inner);

  std::string name() const override { return label_; }
  PrivacyGuarantee Guarantee(double epsilon) const override;
  int64_t stretch() const { return stretch_; }
  /// The (·, H)-Blowfish mechanism run at ε/ℓ.
  const BlowfishMechanism& inner() const { return *inner_; }

  /// Delegates to the inner mechanism (the stretch division only
  /// rescales ε, which belongs to the noisy phase).
  std::shared_ptr<const ReleasePrecompute> PrecomputeRelease(
      const Vector& x) const override {
    return inner_->PrecomputeRelease(x);
  }
  using BlowfishMechanism::RunPrecomputed;
  void RunPrecomputed(const ReleasePrecompute& pre, double epsilon, Rng* rng,
                      ReleaseWorkspace* ws, Vector* out) const override {
    BF_CHECK_GT(epsilon, 0.0);
    // Lemma 4.5: an (ε/ℓ, H) mechanism is (ε, G)-Blowfish private.
    inner_->RunPrecomputed(pre, epsilon / static_cast<double>(stretch_), rng,
                           ws, out);
  }
  std::shared_ptr<const ReleasePrecompute> DecodePrecompute(
      std::string_view family, const PrecomputePayload& payload) const override {
    return inner_->DecodePrecompute(family, payload);
  }

 private:
  std::string original_policy_name_;
  int64_t stretch_;
  BlowfishMechanismPtr inner_;
  std::string label_;
};

/// Theorem 5.5's inner mechanism for Hθ_k: Privelet instances over the
/// θ-sized edge groups of the line spanner (parallel composition).
HistogramMechanismPtr MakeGroupedPriveletForLineSpanner(
    const LineSpanner& spanner);

/// Builder for the Gθ_k mechanisms of Section 5.3.1 / Section 6:
/// spanner Hθ_k + inner tree mechanism at budget ε/stretch.
/// `theta_policy` is Gθ_k (Theta1DPolicy, or a registered policy the
/// planner has detected as one; a policy whose edge count differs is
/// refused). `inner` runs on the transformed database (e.g. Laplace =
/// the experiments' "Transformed + Laplace", DAWA = "Trans + Dawa",
/// grouped Privelet = Theorem 5.5).
///
/// Every call certifies the spanner's stretch against the given
/// policy's graph (MaxEdgeStretch, well under a millisecond at
/// k=4096); the result's stretch() is that certified value. The
/// guarantee names the canonical G^θ_k.
Result<std::unique_ptr<SpannerMechanism>> MakeThetaLineMechanism(
    const Policy& theta_policy, size_t theta, HistogramMechanismPtr inner,
    const std::string& label, bool use_grouped_privelet = false);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_MECHANISMS_1D_H_
