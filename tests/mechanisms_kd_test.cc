// The Theorem 5.6 slab strategy for Gθ_{k²}.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/mechanisms_kd.h"
#include "mech/privelet.h"
#include "rng/rng.h"
#include "workload/builders.h"

namespace blowfish {

// Reaches the mechanism's per-edge estimates and summed-area
// reconstruction, so both can be checked against a per-edge oracle.
class GridThetaRangeMechanismTestPeer {
 public:
  explicit GridThetaRangeMechanismTestPeer(const GridThetaRangeMechanism& m)
      : m_(m) {}

  /// Draws one submit's per-edge estimates and tabulates them.
  void Draw(const Vector& xg, double epsilon, Rng* rng) {
    ReleaseWorkspace ws;
    m_.DrawEstimates(xg, epsilon, rng, &ws, &est_);
    m_.Tabulate(est_, &rel_);
  }

  double Tables(const size_t* lo, const size_t* hi, double n) const {
    return m_.AnswerOneRange(lo[0], hi[0], lo[1], hi[1], rel_, n);
  }

  /// The per-edge reconstruction: every spanner edge contributes
  /// (q[u] − q[v]) times its estimate, internal edges picking their
  /// slab system by the Figure 7d strip rule.
  double PerEdge(const size_t* lo, const size_t* hi, double n) const {
    const size_t k = m_.k_, block = m_.block_;
    const size_t r1 = lo[0], r2 = hi[0];
    const size_t c1 = lo[1], c2 = hi[1];
    const auto inside = [&](size_t i, size_t j) {
      return i >= r1 && i <= r2 && j >= c1 && j <= c2;
    };
    double acc = inside(k - 1, k - 1) ? n : 0.0;
    for (size_t e = 0; e < m_.edge_info_.size(); ++e) {
      const auto& info = m_.edge_info_[e];
      const double coef = (inside(info.u / k, info.u % k) ? 1.0 : 0.0) -
                          (inside(info.v / k, info.v % k) ? 1.0 : 0.0);
      if (coef == 0.0) continue;
      double est;
      if (!info.internal) {
        est = est_.ext[e];
      } else {
        // The black endpoint is u; its cell indexes the slab estimates.
        const size_t bi = info.u / k, bj = info.u % k;
        const size_t red_i = (bi / block + 1) * block - 1;
        // Black inside: top overflow -> horizontal strip. Red inside:
        // bottom/left underflow.
        const bool use_row = inside(bi, bj) ? red_i > r2 : bi < r1;
        est = use_row ? est_.row[info.u] : est_.col[info.u];
      }
      acc += coef * est;
    }
    return acc;
  }

 private:
  const GridThetaRangeMechanism& m_;
  GridThetaRangeMechanism::Estimates est_;
  GridThetaRangeMechanism::Releases rel_;
};

namespace {

// The Gθ policy over a k×k domain, as the planner hands it over.
Policy SquareGrid(size_t k, size_t theta) {
  return GridPolicy(DomainShape({k, k}), theta);
}

// Checks the summed-area reconstruction against the per-edge oracle on
// every query of `queries`, over noisy estimates (row and column
// estimates of an edge differ, so a strip read from the wrong slab
// system shows).
void ExpectTablesMatchPerEdge(size_t k, size_t theta,
                              const RangeWorkload& queries) {
  auto mech =
      GridThetaRangeMechanism::Create(SquareGrid(k, theta), theta).ValueOrDie();
  const DomainShape domain({k, k});
  Rng rng(17 * k + theta);
  Vector x(domain.size());
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 20));
  GridThetaRangeMechanismTestPeer peer(*mech);
  peer.Draw(mech->PrecomputeTransformed(x), 0.5, &rng);
  const double n = Sum(x);
  for (size_t i = 0; i < queries.num_queries(); ++i) {
    const size_t* lo = queries.lo(i);
    const size_t* hi = queries.hi(i);
    const double oracle = peer.PerEdge(lo, hi, n);
    ASSERT_NEAR(peer.Tables(lo, hi, n), oracle,
                1e-9 * std::max(1.0, std::abs(oracle)))
        << "k=" << k << " θ=" << theta << " rows [" << lo[0] << ","
        << hi[0] << "] cols [" << lo[1] << "," << hi[1] << "]";
  }
}

TEST(GridTheta, SummedAreaReconstructionMatchesPerEdgeOnEveryRange) {
  for (size_t k : {8, 12}) {
    for (size_t theta = 2; theta <= 6; ++theta) {
      const size_t block = std::max<size_t>(1, theta / 2);
      if (k % block != 0) continue;
      std::vector<RangeQuery> all;
      for (size_t r1 = 0; r1 < k; ++r1) {
        for (size_t r2 = r1; r2 < k; ++r2) {
          for (size_t c1 = 0; c1 < k; ++c1) {
            for (size_t c2 = c1; c2 < k; ++c2) {
              all.push_back({{r1, c1}, {r2, c2}});
            }
          }
        }
      }
      ExpectTablesMatchPerEdge(
          k, theta, RangeWorkload("all", DomainShape({k, k}), all));
    }
  }
}

TEST(GridTheta, SummedAreaReconstructionMatchesPerEdgeOnRandomRanges) {
  for (size_t k : {16, 32}) {
    for (size_t theta = 2; theta <= 6; ++theta) {
      const size_t block = std::max<size_t>(1, theta / 2);
      if (k % block != 0) continue;
      Rng qrng(k + theta);
      ExpectTablesMatchPerEdge(
          k, theta, RandomRanges(DomainShape({k, k}), 2000, &qrng));
    }
  }
}

TEST(GridTheta, OneShotAndCursorAnswersAreBitIdenticalToPerQueryReference) {
  // The reference reads each query's corners out of RangeQuery lo/hi
  // vectors: the flat corner storage must answer bit for bit as
  // per-query storage does.
  struct Case {
    size_t k, theta;
    RangeWorkload ranges;
  };
  Rng qrng(2015);
  const Case cases[] = {
      {32, 4, RandomRanges(DomainShape({32, 32}), 1024, &qrng)},
      {8, 2, AllRangesNd(DomainShape({8, 8}))}};
  for (const Case& c : cases) {
    auto mech =
        GridThetaRangeMechanism::Create(SquareGrid(c.k, c.theta), c.theta)
            .ValueOrDie();
    Rng xrng(c.k);
    Vector x(c.k * c.k);
    for (double& v : x) v = static_cast<double>(xrng.UniformInt(0, 20));
    const Vector xg = mech->PrecomputeTransformed(x);
    const double n = Sum(x);

    Rng ref_rng(99);
    GridThetaRangeMechanismTestPeer peer(*mech);
    peer.Draw(xg, 0.5, &ref_rng);
    Vector reference;
    for (size_t i = 0; i < c.ranges.num_queries(); ++i) {
      const RangeQuery q{{c.ranges.lo(i)[0], c.ranges.lo(i)[1]},
                         {c.ranges.hi(i)[0], c.ranges.hi(i)[1]}};
      reference.push_back(peer.Tables(q.lo.data(), q.hi.data(), n));
    }

    Rng one_shot_rng(99);
    EXPECT_EQ(mech->AnswerRangesOnTransformed(c.ranges, xg, n, 0.5,
                                              &one_shot_rng),
              reference)
        << "k=" << c.k;
    // In chunks, as a result stream reads the cursor.
    Rng cursor_rng(99);
    auto cursor = mech->BeginRanges(c.ranges, xg, n, 0.5, &cursor_rng);
    Vector chunked;
    while (!cursor->done()) cursor->AnswerNext(100, &chunked);
    EXPECT_EQ(chunked, reference) << "k=" << c.k;
  }
}

TEST(GridTheta, RejectsThetaOne) {
  EXPECT_FALSE(GridThetaRangeMechanism::Create(SquareGrid(8, 1), 1).ok());
}

TEST(GridTheta, CreateCertifiesSmallStretch) {
  auto mech =
      GridThetaRangeMechanism::Create(SquareGrid(16, 4), 4).ValueOrDie();
  EXPECT_GE(mech->stretch(), 1);
  EXPECT_LE(mech->stretch(), 8);
  EXPECT_EQ(mech->block(), 2u);
}

TEST(GridTheta, NoiseFreeAnswersAreExact) {
  const size_t k = 12;
  auto mech = GridThetaRangeMechanism::Create(SquareGrid(k, 4), 4).ValueOrDie();
  const DomainShape domain({k, k});
  Rng rng(1);
  Vector x(domain.size());
  for (double& v : x) v = static_cast<double>(rng.UniformInt(0, 9));
  const RangeWorkload w = RandomRanges(domain, 100, &rng);
  const Vector truth = w.Answer(x);
  const Vector answers = mech->AnswerRanges(w, x, 1e9, &rng);
  ASSERT_EQ(answers.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(answers[i], truth[i], 1e-3) << "query " << i;
  }
}

TEST(GridTheta, UnbiasedUnderNoise) {
  const size_t k = 8;
  auto mech = GridThetaRangeMechanism::Create(SquareGrid(k, 2), 2).ValueOrDie();
  const DomainShape domain({k, k});
  Vector x(domain.size(), 3.0);
  // A handful of fixed queries.
  std::vector<RangeQuery> queries{{{1, 1}, {5, 6}},
                                  {{0, 0}, {7, 7}},
                                  {{2, 3}, {2, 3}},
                                  {{4, 0}, {6, 7}}};
  const RangeWorkload w("probe", domain, queries);
  const Vector truth = w.Answer(x);
  Rng rng(2);
  const Vector xg = mech->PrecomputeTransformed(x);
  Vector mean(truth.size(), 0.0);
  const size_t trials = 1500;
  for (size_t t = 0; t < trials; ++t) {
    const Vector est =
        mech->AnswerRangesOnTransformed(w, xg, Sum(x), 2.0, &rng);
    for (size_t i = 0; i < est.size(); ++i) mean[i] += est[i] / trials;
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(mean[i], truth[i], std::max(3.0, 0.05 * truth[i]));
  }
}

// Every query's mean over `trials` submits lies within five standard
// errors of the truth.
void ExpectUnbiased(size_t k, size_t theta, size_t trials) {
  auto mech =
      GridThetaRangeMechanism::Create(SquareGrid(k, theta), theta).ValueOrDie();
  const DomainShape domain({k, k});
  Vector x(domain.size(), 3.0);
  Rng qrng(k * theta);
  RangeWorkload w = RandomRanges(domain, 6, &qrng);
  std::vector<RangeQuery> queries;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    queries.push_back({{w.lo(i)[0], w.lo(i)[1]}, {w.hi(i)[0], w.hi(i)[1]}});
  }
  queries.push_back({{0, 0}, {k - 1, k - 1}});
  queries.push_back({{k / 2, k / 2}, {k / 2, k / 2}});
  w = RangeWorkload("probe", domain, queries);
  const Vector truth = w.Answer(x);
  Rng rng(theta);
  const Vector xg = mech->PrecomputeTransformed(x);
  Vector sum(truth.size(), 0.0), sum_sq(truth.size(), 0.0);
  for (size_t t = 0; t < trials; ++t) {
    const Vector est =
        mech->AnswerRangesOnTransformed(w, xg, Sum(x), 2.0, &rng);
    for (size_t i = 0; i < est.size(); ++i) {
      sum[i] += est[i];
      sum_sq[i] += est[i] * est[i];
    }
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    const double mean = sum[i] / trials;
    const double var = std::max(0.0, sum_sq[i] / trials - mean * mean);
    EXPECT_NEAR(mean, truth[i], 5.0 * std::sqrt(var / trials) + 1e-6)
        << "k=" << k << " θ=" << theta << " query " << i;
  }
}

TEST(GridTheta, UnbiasedUnderNoiseK16Theta3) { ExpectUnbiased(16, 3, 1500); }

TEST(GridTheta, UnbiasedUnderNoiseK16Theta4) { ExpectUnbiased(16, 4, 1500); }

namespace {

// Mean per-query squared error of the slab mechanism / Privelet pair
// on a uniform database.
std::pair<double, double> CompareAgainstPrivelet(size_t k, size_t theta,
                                                 double eps) {
  auto mech =
      GridThetaRangeMechanism::Create(SquareGrid(k, theta), theta).ValueOrDie();
  const DomainShape domain({k, k});
  Rng qrng(3);
  const RangeWorkload w = RandomRanges(domain, 200, &qrng);
  Vector x(domain.size(), 1.0);
  const Vector truth = w.Answer(x);
  const Vector xg = mech->PrecomputeTransformed(x);
  double blowfish_err = 0.0;
  const size_t trials = 5;
  for (size_t t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    const Vector est =
        mech->AnswerRangesOnTransformed(w, xg, Sum(x), eps, &rng);
    blowfish_err += MeanSquaredError(truth, est) / trials;
  }
  PriveletMechanism privelet{domain};
  double privelet_err = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    Rng rng(200 + t);
    const Vector est = privelet.Run(x, eps / 2.0, &rng);
    privelet_err += MeanSquaredError(truth, w.Answer(est)) / trials;
  }
  return {blowfish_err, privelet_err};
}

}  // namespace

TEST(GridTheta, BeatsPriveletForSmallTheta) {
  // θ=2 (block 1): the spanner is the unit grid with stretch 2, and
  // the per-line strategy beats ε/2 Privelet already at k=64.
  const auto [blowfish_err, privelet_err] = CompareAgainstPrivelet(64, 2, 0.1);
  EXPECT_LT(blowfish_err, privelet_err);
}

TEST(GridTheta, RelativeErrorImprovesWithDomainSize) {
  // Theorem 5.6's asymptotics: O(d³ log³θ log^{3(d-1)}k) vs Privelet's
  // O(log^{3d}k) — at fixed θ the ratio Blowfish/DP must fall as k
  // grows ("better than Privelet when d·logθ is small compared to
  // log k", Section 5.3.2 discussion).
  const auto [b32, p32] = CompareAgainstPrivelet(32, 4, 0.1);
  const auto [b64, p64] = CompareAgainstPrivelet(64, 4, 0.1);
  EXPECT_LT(b64 / p64, b32 / p32);
}

TEST(GridTheta, GuaranteeMentionsStretchAndPolicy) {
  auto mech = GridThetaRangeMechanism::Create(SquareGrid(8, 2), 2).ValueOrDie();
  const PrivacyGuarantee g = mech->Guarantee(1.0);
  EXPECT_NE(g.neighbor_model.find("G^2_{8x8}"), std::string::npos);
  EXPECT_NE(g.neighbor_model.find("stretch"), std::string::npos);
}

}  // namespace
}  // namespace blowfish
