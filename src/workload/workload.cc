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

// Summed-area table over the row-major flattened domain, written into
// `sat`: after the d-th pass, sat[i] holds the sum of x over the
// dominated box in the first d dimensions. A pass along an axis of
// stride s walks blocks of extent·s cells; in each block, every row of
// s cells past the first adds the row before it. The last axis has
// stride 1, so its pass is a running sum per line, carried in a
// register rather than reloaded from the cell just stored.
void SummedAreaTable(const DomainShape& domain, const Vector& x, Vector* sat) {
  *sat = x;
  double* t = sat->data();
  const size_t n = sat->size();
  const size_t last = domain.num_dims() - 1;
  size_t block = n;
  for (size_t dim = 0; dim < last; ++dim) {
    const size_t s = block / domain.dim(dim);
    for (size_t start = 0; start < n; start += block) {
      for (size_t row = start + s; row < start + block; row += s) {
        double* cur = t + row;
        const double* prev = cur - s;
        for (size_t j = 0; j < s; ++j) cur[j] += prev[j];
      }
    }
    block = s;
  }
  for (size_t start = 0; start < n; start += block) {
    double run = t[start];
    for (size_t i = start + 1; i < start + block; ++i) {
      run = t[i] + run;
      t[i] = run;
    }
  }
}

// The readers below sum the box's corners by inclusion-exclusion, in
// mask order: bit `dim` of the mask takes lo[dim] - 1 in place of
// hi[dim] and flips the sign; a corner with lo[dim] == 0 lies outside
// the table and is skipped. The 1-D and 2-D readers unroll that loop
// with the same additions in the same order, and check every corner
// they can read at once: hi < extent and lo - 1 < extent.

double ReadBox1(const double* sat, size_t n0, const size_t* lo,
                const size_t* hi) {
  BF_CHECK(hi[0] < n0 && lo[0] <= n0);
  double acc = 0.0;
  acc += sat[hi[0]];
  if (lo[0] != 0) acc += -sat[lo[0] - 1];
  return acc;
}

double ReadBox2(const double* sat, size_t n0, size_t n1, const size_t* lo,
                const size_t* hi) {
  BF_CHECK(hi[0] < n0 && lo[0] <= n0 && hi[1] < n1 && lo[1] <= n1);
  const double* hi_row = sat + hi[0] * n1;
  double acc = 0.0;
  acc += hi_row[hi[1]];
  if (lo[0] != 0) acc += -sat[(lo[0] - 1) * n1 + hi[1]];
  if (lo[1] != 0) {
    acc += -hi_row[lo[1] - 1];
    if (lo[0] != 0) acc += sat[(lo[0] - 1) * n1 + lo[1] - 1];
  }
  return acc;
}

double ReadBoxN(const DomainShape& domain, const double* sat,
                const size_t* lo, const size_t* hi) {
  const size_t d = domain.num_dims();
  double acc = 0.0;
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
      BF_CHECK_LT(coord, domain.dim(dim));
      index = index * domain.dim(dim) + coord;
    }
    if (!valid) continue;
    acc += sign * sat[index];
  }
  return acc;
}

double ReadBox(const DomainShape& domain, const double* sat, const size_t* lo,
               const size_t* hi) {
  switch (domain.num_dims()) {
    case 1:
      return ReadBox1(sat, domain.dim(0), lo, hi);
    case 2:
      return ReadBox2(sat, domain.dim(0), domain.dim(1), lo, hi);
    default:
      return ReadBoxN(domain, sat, lo, hi);
  }
}

}  // namespace

SummedAreaAnswerer::SummedAreaAnswerer(DomainShape domain, const Vector& x)
    : domain_(std::move(domain)) {
  BF_CHECK_EQ(x.size(), domain_.size());
  SummedAreaTable(domain_, x, &sat_);
}

double SummedAreaAnswerer::Answer(const size_t* lo, const size_t* hi) const {
  return ReadBox(domain_, sat_.data(), lo, hi);
}

Vector RangeWorkload::Answer(const Vector& x) const {
  Vector sat, out;
  Answer(x, &sat, &out);
  return out;
}

void RangeWorkload::Answer(const Vector& x, Vector* sat, Vector* out) const {
  BF_CHECK_EQ(x.size(), domain_.size());
  SummedAreaTable(domain_, x, sat);
  out->resize(num_queries_);
  for (size_t qi = 0; qi < num_queries_; ++qi) {
    (*out)[qi] = ReadBox(domain_, sat->data(), lo(qi), hi(qi));
  }
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
