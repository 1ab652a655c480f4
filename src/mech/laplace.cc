#include "mech/laplace.h"

#include "common/check.h"

namespace blowfish {

void AddLaplaceNoise(double scale, Rng* rng, Vector* v) {
  BF_CHECK(rng != nullptr);
  for (double& value : *v) value += rng->Laplace(scale);
}

void LaplaceMechanism::Run(const Vector& x, double epsilon, Rng* rng,
                           ReleaseWorkspace* /*ws*/, Vector* out) const {
  BF_CHECK_GT(epsilon, 0.0);
  *out = x;
  AddLaplaceNoise(1.0 / epsilon, rng, out);
}

double LaplaceTotalSquaredError(size_t num_queries, double sensitivity,
                                double epsilon) {
  const double scale = sensitivity / epsilon;
  return 2.0 * static_cast<double>(num_queries) * scale * scale;
}

}  // namespace blowfish
