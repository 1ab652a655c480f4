#include "core/data_dependent.h"

#include "core/mechanisms_1d.h"
#include "mech/dawa.h"
#include "mech/laplace.h"

namespace blowfish {

namespace {

Result<BlowfishMechanismPtr> MakeLineVariant(size_t k,
                                             HistogramMechanismPtr inner,
                                             bool monotone,
                                             const std::string& label) {
  TreeTransformMechanism::Options options;
  options.enforce_monotone = monotone;
  options.label = label;
  Result<std::unique_ptr<TreeTransformMechanism>> mech =
      TreeTransformMechanism::Create(LinePolicy(k), std::move(inner),
                                     options);
  if (!mech.ok()) return mech.status();
  return BlowfishMechanismPtr(std::move(mech).ValueOrDie());
}

Result<BlowfishMechanismPtr> MakeThetaLineVariant(
    size_t k, size_t theta, HistogramMechanismPtr inner,
    const std::string& label, bool use_grouped_privelet = false) {
  Result<std::unique_ptr<SpannerMechanism>> mech = MakeThetaLineMechanism(
      k, theta, std::move(inner), label, use_grouped_privelet);
  if (!mech.ok()) return mech.status();
  return BlowfishMechanismPtr(std::move(mech).ValueOrDie());
}

}  // namespace

Result<BlowfishMechanismPtr> MakeTransformedLaplace(size_t k) {
  return MakeLineVariant(k, std::make_shared<LaplaceMechanism>(),
                         /*monotone=*/false, "Transformed + Laplace");
}

Result<BlowfishMechanismPtr> MakeTransformedConsistent(size_t k) {
  return MakeLineVariant(k, std::make_shared<LaplaceMechanism>(),
                         /*monotone=*/true, "Transformed + ConsistentEst");
}

Result<BlowfishMechanismPtr> MakeTransformedDawa(size_t k,
                                                 bool with_consistency) {
  return MakeLineVariant(k, std::make_shared<DawaMechanism>(),
                         with_consistency,
                         with_consistency ? "Trans + Dawa + Cons"
                                          : "Trans + Dawa");
}

Result<BlowfishMechanismPtr> MakeThetaTransformedLaplace(size_t k,
                                                         size_t theta) {
  return MakeThetaLineVariant(k, theta, std::make_shared<LaplaceMechanism>(),
                              "Transformed + Laplace");
}

Result<BlowfishMechanismPtr> MakeThetaTransformedDawa(size_t k,
                                                      size_t theta) {
  return MakeThetaLineVariant(k, theta, std::make_shared<DawaMechanism>(),
                              "Trans + Dawa");
}

Result<BlowfishMechanismPtr> MakeThetaGroupedPrivelet(size_t k,
                                                      size_t theta) {
  return MakeThetaLineVariant(k, theta, nullptr, "GroupedPrivelet",
                              /*use_grouped_privelet=*/true);
}

}  // namespace blowfish
