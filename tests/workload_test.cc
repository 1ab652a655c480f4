#include <gtest/gtest.h>

#include "workload/builders.h"
#include "workload/workload.h"

namespace blowfish {
namespace {

TEST(Workload, IdentitySensitivityIsOne) {
  // Example 2.2: ∆ I_k = 1.
  const Workload w = IdentityWorkload(6);
  EXPECT_DOUBLE_EQ(w.SensitivityUnbounded(), 1.0);
  EXPECT_EQ(w.Answer({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}),
            (Vector{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
}

TEST(Workload, CumulativeSensitivityIsK) {
  // Example 2.2: ∆ C_k = k.
  const Workload w = CumulativeWorkload(5);
  EXPECT_DOUBLE_EQ(w.SensitivityUnbounded(), 5.0);
  EXPECT_EQ(w.Answer({1.0, 1.0, 1.0, 1.0, 1.0}),
            (Vector{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(RangeWorkload, AllRanges1DCountsAndAnswers) {
  const RangeWorkload w = AllRanges1D(4);
  EXPECT_EQ(w.num_queries(), 10u);  // k(k+1)/2
  const Vector x{1.0, 2.0, 3.0, 4.0};
  const Vector ans = w.Answer(x);
  // Find q(1, 2) (0-based) = 5.
  bool found = false;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    if (w.queries()[i].lo[0] == 1 && w.queries()[i].hi[0] == 2) {
      EXPECT_DOUBLE_EQ(ans[i], 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RangeWorkload, AnswerMatchesExplicitMatrix1D) {
  const RangeWorkload w = AllRanges1D(6);
  const Workload explicit_w = w.ToWorkload();
  Vector x{3.0, 1.0, 4.0, 1.0, 5.0, 9.0};
  const Vector fast = w.Answer(x);
  const Vector slow = explicit_w.Answer(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) EXPECT_NEAR(fast[i], slow[i], 1e-9);
}

TEST(RangeWorkload, AnswerMatchesExplicitMatrix2D) {
  Rng rng(31);
  const DomainShape domain({5, 7});
  const RangeWorkload w = RandomRanges(domain, 50, &rng);
  Vector x(domain.size());
  for (double& v : x) v = rng.UniformInt(0, 9);
  const Vector fast = w.Answer(x);
  const Vector slow = w.ToWorkload().Answer(x);
  for (size_t i = 0; i < fast.size(); ++i) EXPECT_NEAR(fast[i], slow[i], 1e-9);
}

TEST(RangeWorkload, AnswerMatchesExplicitMatrix3D) {
  Rng rng(32);
  const DomainShape domain({3, 4, 3});
  const RangeWorkload w = RandomRanges(domain, 40, &rng);
  Vector x(domain.size());
  for (double& v : x) v = rng.UniformInt(0, 5);
  const Vector fast = w.Answer(x);
  const Vector slow = w.ToWorkload().Answer(x);
  for (size_t i = 0; i < fast.size(); ++i) EXPECT_NEAR(fast[i], slow[i], 1e-9);
}

TEST(RangeWorkload, AnswerWithUnitExtentAxesMatchesExplicitMatrix) {
  // A unit-extent axis makes a summed-area pass a no-op block walk (its
  // stride equals its block), the edge of the pass loop's bounds.
  for (const std::vector<size_t>& dims :
       {std::vector<size_t>{1, 7}, std::vector<size_t>{4, 1, 3},
        std::vector<size_t>{5, 1}}) {
    const DomainShape domain(dims);
    const RangeWorkload w = AllRangesNd(domain);
    Vector x(domain.size());
    for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(3 * i % 11);
    const Vector fast = w.Answer(x);
    const Vector slow = w.ToWorkload().Answer(x);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i) EXPECT_EQ(fast[i], slow[i]);
  }
}

TEST(RangeWorkload, AllRangesNdCount) {
  const DomainShape domain({3, 3});
  const RangeWorkload w = AllRangesNd(domain);
  EXPECT_EQ(w.num_queries(), 36u);  // (3*4/2)^2
}

TEST(RangeWorkload, RandomRangesInBounds) {
  Rng rng(33);
  const DomainShape domain({10, 20});
  const RangeWorkload w = RandomRanges(domain, 200, &rng);
  EXPECT_EQ(w.num_queries(), 200u);
  for (const RangeQuery& q : w.queries()) {
    EXPECT_LE(q.lo[0], q.hi[0]);
    EXPECT_LE(q.lo[1], q.hi[1]);
    EXPECT_LT(q.hi[0], 10u);
    EXPECT_LT(q.hi[1], 20u);
  }
}

TEST(RangeWorkload, HistogramRangesIsIdentity) {
  const DomainShape domain({4, 2});
  const RangeWorkload w = HistogramRanges(domain);
  EXPECT_EQ(w.num_queries(), 8u);
  Vector x{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(w.Answer(x), x);
}

TEST(RangeWorkload, FullDomainRangeEqualsTotal) {
  const DomainShape domain({6});
  const RangeWorkload w("total", domain, {RangeQuery{{0}, {5}}});
  EXPECT_DOUBLE_EQ(w.Answer({1, 1, 1, 1, 1, 1})[0], 6.0);
}

TEST(RangeWorkloadDeath, RejectsInvertedBounds) {
  const DomainShape domain({5});
  EXPECT_DEATH(RangeWorkload("bad", domain, {RangeQuery{{3}, {1}}}),
               "CHECK failed");
  EXPECT_DEATH(RangeWorkload("oob", domain, {RangeQuery{{0}, {5}}}),
               "CHECK failed");
}

}  // namespace
}  // namespace blowfish
