// The Laplace mechanism (Dwork et al., Theorem 2.1 in the paper): for
// a workload with L1 sensitivity ∆, add iid Laplace(∆/ε) noise to each
// true answer. As a histogram estimator (W = I_k, ∆ = 1) it is the
// optimal data-independent strategy for the identity workload.

#ifndef BLOWFISH_MECH_LAPLACE_H_
#define BLOWFISH_MECH_LAPLACE_H_

#include "mech/mechanism.h"

namespace blowfish {

/// \brief Histogram release via x + Lap(1/ε)^k.
class LaplaceMechanism : public HistogramMechanism {
 public:
  using HistogramMechanism::Run;
  void Run(const Vector& x, double epsilon, Rng* rng, ReleaseWorkspace* ws,
           Vector* out) const override;
  std::string name() const override { return "Laplace"; }
};

/// Adds iid Laplace(scale) noise to `v` in place.
void AddLaplaceNoise(double scale, Rng* rng, Vector* v);

/// Theorem 2.1: expected *total* squared error of the Laplace mechanism
/// answering q queries of L1 sensitivity ∆ at budget ε: 2 q ∆² / ε².
double LaplaceTotalSquaredError(size_t num_queries, double sensitivity,
                                double epsilon);

}  // namespace blowfish

#endif  // BLOWFISH_MECH_LAPLACE_H_
