#include <gtest/gtest.h>

#include <cstdint>

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
    if (w.lo(i)[0] == 1 && w.hi(i)[0] == 2) {
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
  for (size_t i = 0; i < w.num_queries(); ++i) {
    const size_t* lo = w.lo(i);
    const size_t* hi = w.hi(i);
    EXPECT_LE(lo[0], hi[0]);
    EXPECT_LE(lo[1], hi[1]);
    EXPECT_LT(hi[0], 10u);
    EXPECT_LT(hi[1], 20u);
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

// Bit-level oracle for the flat corner layout: the same summed-area
// passes, then inclusion-exclusion over each query's RangeQuery lo/hi
// vectors in the same corner order with the same
// `acc += sign * sat[index]` sequence.
Vector ReferenceSummedAreaTable(const DomainShape& domain, const Vector& x) {
  Vector sat = x;
  size_t block = domain.size();
  for (size_t dim = 0; dim < domain.num_dims(); ++dim) {
    const size_t s = block / domain.dim(dim);
    for (size_t start = 0; start < sat.size(); start += block) {
      for (size_t i = start + s; i < start + block; ++i) sat[i] += sat[i - s];
    }
    block = s;
  }
  return sat;
}

double ReferenceAnswer(const DomainShape& domain, const Vector& sat,
                       const RangeQuery& q) {
  const size_t d = domain.num_dims();
  double acc = 0.0;
  for (size_t mask = 0; mask < (size_t{1} << d); ++mask) {
    bool valid = true;
    int sign = 1;
    size_t index = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      size_t coord = q.hi[dim];
      if (mask & (size_t{1} << dim)) {
        sign = -sign;
        if (q.lo[dim] == 0) {
          valid = false;
          break;
        }
        coord = q.lo[dim] - 1;
      }
      index = index * domain.dim(dim) + coord;
    }
    if (!valid) continue;
    acc += sign * sat[index];
  }
  return acc;
}

// The workload's queries as per-query corner vectors.
std::vector<RangeQuery> QueriesOf(const RangeWorkload& w) {
  const size_t d = w.domain().num_dims();
  std::vector<RangeQuery> queries;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    queries.push_back({std::vector<size_t>(w.lo(i), w.lo(i) + d),
                       std::vector<size_t>(w.hi(i), w.hi(i) + d)});
  }
  return queries;
}

TEST(RangeWorkload, AnswersAreBitIdenticalToPerQueryVectorReference) {
  Rng rng(2015);
  const RangeWorkload workloads[] = {
      AllRangesNd(DomainShape({5, 12})), AllRangesNd(DomainShape({3, 4, 8})),
      RandomRanges(DomainShape({4096}), 1000, &rng),
      RandomRanges(DomainShape({32, 32}), 1024, &rng),
      // Unit extents, a one-cell domain, and every lo = 0 branch of a
      // 1-D domain.
      AllRangesNd(DomainShape({1, 7})), AllRangesNd(DomainShape({7, 1})),
      AllRangesNd(DomainShape({1})), AllRanges1D(64)};
  for (const RangeWorkload& w : workloads) {
    // Non-integer cells, so any reordered addition changes the bits.
    Vector x(w.domain().size());
    for (double& v : x) v = rng.Uniform(-3.0, 40.0);
    const Vector sat = ReferenceSummedAreaTable(w.domain(), x);
    Vector reference;
    for (const RangeQuery& q : QueriesOf(w)) {
      reference.push_back(ReferenceAnswer(w.domain(), sat, q));
    }
    EXPECT_EQ(w.Answer(x), reference) << w.name();
    // One answerer read per query, as a result stream reads it chunk by
    // chunk.
    const SummedAreaAnswerer answerer(w.domain(), x);
    Vector streamed;
    for (size_t i = 0; i < w.num_queries(); ++i) {
      streamed.push_back(answerer.Answer(w.lo(i), w.hi(i)));
    }
    EXPECT_EQ(streamed, reference) << w.name();
  }
}

TEST(RangeWorkload, RandomRangesDrawOrderIsPinned) {
  // FNV-1a over every corner (lo then hi per query) of one seeded
  // 1D and one 2D draw, then the next generator word: a change to the
  // order or number of draws changes the hash.
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  Rng rng(1905);
  for (const DomainShape& domain :
       {DomainShape({4096}), DomainShape({32, 32})}) {
    const RangeWorkload w = RandomRanges(domain, 1024, &rng);
    ASSERT_EQ(w.num_queries(), 1024u);
    for (size_t i = 0; i < w.num_queries(); ++i) {
      for (size_t dim = 0; dim < domain.num_dims(); ++dim) mix(w.lo(i)[dim]);
      for (size_t dim = 0; dim < domain.num_dims(); ++dim) mix(w.hi(i)[dim]);
    }
  }
  mix(rng());
  // Recorded from the builder that stored one RangeQuery per query.
  EXPECT_EQ(hash, 0x2f1114a1f179ca64ull);
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
