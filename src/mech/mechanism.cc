#include "mech/mechanism.h"

#include "mech/release_workspace.h"

namespace blowfish {

Vector HistogramMechanism::Run(const Vector& x, double epsilon,
                               Rng* rng) const {
  Vector out;
  Run(x, epsilon, rng, &ReleaseWorkspace::ForThisThread(), &out);
  return out;
}

void HistogramMechanism::Run(const Vector& x, double epsilon, Rng* rng,
                             ReleaseWorkspace* /*ws*/, Vector* out) const {
  *out = Run(x, epsilon, rng);
}

}  // namespace blowfish
