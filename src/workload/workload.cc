#include "workload/workload.h"

#include "common/check.h"

namespace blowfish {

RangeWorkload::RangeWorkload(std::string name, DomainShape domain,
                             const std::vector<RangeQuery>& queries)
    : name_(std::move(name)),
      domain_(std::move(domain)),
      num_queries_(queries.size()) {
  const size_t d = domain_.num_dims();
  corners_.reserve(2 * d * num_queries_);
  for (const RangeQuery& q : queries) {
    BF_CHECK_EQ(q.lo.size(), d);
    BF_CHECK_EQ(q.hi.size(), d);
    corners_.insert(corners_.end(), q.lo.begin(), q.lo.end());
    corners_.insert(corners_.end(), q.hi.begin(), q.hi.end());
  }
  CheckCorners();
}

RangeWorkload RangeWorkload::FromCorners(std::string name, DomainShape domain,
                                         std::vector<size_t> corners) {
  RangeWorkload w;
  w.name_ = std::move(name);
  w.domain_ = std::move(domain);
  w.num_queries_ = corners.size() / (2 * w.domain_.num_dims());
  w.corners_ = std::move(corners);
  w.CheckCorners();
  return w;
}

void RangeWorkload::CheckCorners() const {
  const size_t d = domain_.num_dims();
  BF_CHECK_EQ(corners_.size(), 2 * d * num_queries_);
  for (size_t qi = 0; qi < num_queries_; ++qi) {
    const size_t* l = lo(qi);
    const size_t* h = hi(qi);
    for (size_t dim = 0; dim < d; ++dim) {
      BF_CHECK_LE(l[dim], h[dim]);
      BF_CHECK_LT(h[dim], domain_.dim(dim));
    }
  }
}

namespace {

// Summed-area table over the row-major flattened domain: after the
// d-th pass, sat[i] holds the sum of x over the dominated box in the
// first d dimensions. A pass along an axis of stride s walks blocks of
// extent·s cells; in each block, every cell past the first s adds the
// cell s before it.
Vector SummedAreaTable(const DomainShape& domain, const Vector& x) {
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

}  // namespace

SummedAreaAnswerer::SummedAreaAnswerer(DomainShape domain, const Vector& x)
    : domain_(std::move(domain)) {
  BF_CHECK_EQ(x.size(), domain_.size());
  sat_ = SummedAreaTable(domain_, x);
}

double SummedAreaAnswerer::Answer(const size_t* lo, const size_t* hi) const {
  const size_t d = domain_.num_dims();
  double acc = 0.0;
  // Inclusion-exclusion over the 2^d corners of the box.
  for (size_t mask = 0; mask < (size_t{1} << d); ++mask) {
    bool valid = true;
    int sign = 1;
    size_t index = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      size_t coord = hi[dim];
      if (mask & (size_t{1} << dim)) {
        sign = -sign;
        if (lo[dim] == 0) {
          valid = false;
          break;
        }
        coord = lo[dim] - 1;
      }
      BF_CHECK_LT(coord, domain_.dim(dim));
      index = index * domain_.dim(dim) + coord;
    }
    if (!valid) continue;
    acc += sign * sat_[index];
  }
  return acc;
}

Vector RangeWorkload::Answer(const Vector& x) const {
  const SummedAreaAnswerer answerer(domain_, x);
  Vector out(num_queries_, 0.0);
  for (size_t qi = 0; qi < num_queries_; ++qi) {
    out[qi] = answerer.Answer(lo(qi), hi(qi));
  }
  return out;
}

Workload RangeWorkload::ToWorkload() const {
  std::vector<Triplet> triplets;
  const size_t d = domain_.num_dims();
  std::vector<size_t> coords(d);
  for (size_t qi = 0; qi < num_queries_; ++qi) {
    const size_t* l = lo(qi);
    const size_t* h = hi(qi);
    // Enumerate all cells in the box with an odometer walk.
    coords.assign(l, l + d);
    bool done = false;
    while (!done) {
      triplets.push_back({qi, domain_.Flatten(coords), 1.0});
      done = true;
      for (size_t dim = d; dim-- > 0;) {
        if (coords[dim] < h[dim]) {
          ++coords[dim];
          done = false;
          break;
        }
        coords[dim] = l[dim];
      }
    }
  }
  return Workload(name_, SparseMatrix::FromTriplets(
                             num_queries_, domain_.size(),
                             std::move(triplets)));
}

}  // namespace blowfish
