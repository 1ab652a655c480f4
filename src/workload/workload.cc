#include "workload/workload.h"

#include "common/check.h"

namespace blowfish {

RangeWorkload::RangeWorkload(std::string name, DomainShape domain,
                             std::vector<RangeQuery> queries)
    : name_(std::move(name)),
      domain_(std::move(domain)),
      queries_(std::move(queries)) {
  for (const RangeQuery& q : queries_) {
    BF_CHECK_EQ(q.lo.size(), domain_.num_dims());
    BF_CHECK_EQ(q.hi.size(), domain_.num_dims());
    for (size_t d = 0; d < domain_.num_dims(); ++d) {
      BF_CHECK_LE(q.lo[d], q.hi[d]);
      BF_CHECK_LT(q.hi[d], domain_.dim(d));
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

double SummedAreaAnswerer::Answer(const RangeQuery& q) const {
  const size_t d = domain_.num_dims();
  double acc = 0.0;
  // Inclusion-exclusion over the 2^d corners of the box.
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
  Vector out(queries_.size(), 0.0);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    out[qi] = answerer.Answer(queries_[qi]);
  }
  return out;
}

Workload RangeWorkload::ToWorkload() const {
  std::vector<Triplet> triplets;
  const size_t d = domain_.num_dims();
  std::vector<size_t> coords(d);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const RangeQuery& q = queries_[qi];
    // Enumerate all cells in the box with an odometer walk.
    coords = q.lo;
    bool done = false;
    while (!done) {
      triplets.push_back({qi, domain_.Flatten(coords), 1.0});
      done = true;
      for (size_t dim = d; dim-- > 0;) {
        if (coords[dim] < q.hi[dim]) {
          ++coords[dim];
          done = false;
          break;
        }
        coords[dim] = q.lo[dim];
      }
    }
  }
  return Workload(name_, SparseMatrix::FromTriplets(
                             queries_.size(), domain_.size(),
                             std::move(triplets)));
}

}  // namespace blowfish
