#include "workload/builders.h"

#include "common/check.h"

namespace blowfish {

Workload IdentityWorkload(size_t k) {
  return Workload("I_" + std::to_string(k), SparseMatrix::Identity(k));
}

Workload CumulativeWorkload(size_t k) {
  std::vector<Triplet> triplets;
  triplets.reserve(k * (k + 1) / 2);
  for (size_t i = 0; i < k; ++i)
    for (size_t j = 0; j <= i; ++j) triplets.push_back({i, j, 1.0});
  return Workload("C_" + std::to_string(k),
                  SparseMatrix::FromTriplets(k, k, std::move(triplets)));
}

RangeWorkload AllRanges1D(size_t k) {
  std::vector<size_t> corners;
  corners.reserve(k * (k + 1));
  for (size_t l = 0; l < k; ++l) {
    for (size_t r = l; r < k; ++r) {
      corners.push_back(l);
      corners.push_back(r);
    }
  }
  return RangeWorkload::FromCorners("R_" + std::to_string(k), DomainShape({k}),
                                    std::move(corners));
}

namespace {

void CrossRanges(const DomainShape& domain, size_t dim,
                 std::vector<size_t>* lo, std::vector<size_t>* hi,
                 std::vector<size_t>* corners) {
  if (dim == domain.num_dims()) {
    corners->insert(corners->end(), lo->begin(), lo->end());
    corners->insert(corners->end(), hi->begin(), hi->end());
    return;
  }
  for (size_t l = 0; l < domain.dim(dim); ++l) {
    for (size_t r = l; r < domain.dim(dim); ++r) {
      (*lo)[dim] = l;
      (*hi)[dim] = r;
      CrossRanges(domain, dim + 1, lo, hi, corners);
    }
  }
}

}  // namespace

RangeWorkload AllRangesNd(const DomainShape& domain) {
  std::vector<size_t> corners;
  std::vector<size_t> lo(domain.num_dims()), hi(domain.num_dims());
  CrossRanges(domain, 0, &lo, &hi, &corners);
  return RangeWorkload::FromCorners("R_nd", domain, std::move(corners));
}

RangeWorkload RandomRanges(const DomainShape& domain, size_t count,
                           Rng* rng) {
  BF_CHECK(rng != nullptr);
  const size_t d = domain.num_dims();
  std::vector<size_t> corners(2 * d * count);
  for (size_t i = 0; i < count; ++i) {
    size_t* lo = corners.data() + 2 * d * i;
    size_t* hi = lo + d;
    for (size_t dim = 0; dim < d; ++dim) {
      size_t a = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(domain.dim(dim)) - 1));
      size_t b = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(domain.dim(dim)) - 1));
      if (a > b) std::swap(a, b);
      lo[dim] = a;
      hi[dim] = b;
    }
  }
  return RangeWorkload::FromCorners("random_ranges", domain,
                                    std::move(corners));
}

RangeWorkload MarginalWorkload(const DomainShape& domain,
                               const std::vector<size_t>& dims) {
  const size_t d = domain.num_dims();
  for (size_t dim : dims) BF_CHECK_LT(dim, d);
  // Enumerate value combinations of the marginal dimensions; the other
  // dimensions span their full extent.
  std::vector<size_t> corners;
  std::vector<size_t> lo(d), hi(d);
  std::vector<size_t> values(dims.size(), 0);
  bool done = dims.empty();
  do {
    lo.assign(d, 0);
    for (size_t i = 0; i < d; ++i) hi[i] = domain.dim(i) - 1;
    for (size_t j = 0; j < dims.size(); ++j) {
      lo[dims[j]] = values[j];
      hi[dims[j]] = values[j];
    }
    corners.insert(corners.end(), lo.begin(), lo.end());
    corners.insert(corners.end(), hi.begin(), hi.end());
    // Odometer over the marginal dimensions.
    done = true;
    for (size_t j = dims.size(); j-- > 0;) {
      if (values[j] + 1 < domain.dim(dims[j])) {
        ++values[j];
        done = false;
        break;
      }
      values[j] = 0;
    }
  } while (!done);
  // Note: empty `dims` yields exactly one query — the total count.
  return RangeWorkload::FromCorners("marginal", domain, std::move(corners));
}

RangeWorkload HistogramRanges(const DomainShape& domain) {
  std::vector<size_t> corners;
  corners.reserve(2 * domain.num_dims() * domain.size());
  for (size_t i = 0; i < domain.size(); ++i) {
    const std::vector<size_t> c = domain.Unflatten(i);
    corners.insert(corners.end(), c.begin(), c.end());
    corners.insert(corners.end(), c.begin(), c.end());
  }
  return RangeWorkload::FromCorners("histogram", domain, std::move(corners));
}

}  // namespace blowfish
