#include "mech/privelet.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "mech/release_workspace.h"

namespace blowfish {

namespace {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

size_t Log2(size_t n) {
  size_t h = 0;
  while ((size_t{1} << h) < n) ++h;
  return h;
}

// Applies `fn` to every 1D line of `data` along `axis` of the grid
// `dims` (row-major layout): gathers the line into `line`, transforms,
// scatters. The lines start at the first `stride` cells of each block
// of extent·stride cells, in ascending order.
template <typename Fn>
void ForEachLine(Vector* data, const std::vector<size_t>& dims, size_t axis,
                 Vector* line, Fn&& fn) {
  size_t stride = 1;
  for (size_t i = axis + 1; i < dims.size(); ++i) stride *= dims[i];
  const size_t extent = dims[axis];
  const size_t block = extent * stride;
  line->resize(extent);
  for (size_t start = 0; start < data->size(); start += block) {
    for (size_t base = start; base < start + stride; ++base) {
      for (size_t j = 0; j < extent; ++j) {
        (*line)[j] = (*data)[base + j * stride];
      }
      fn(line);
      for (size_t j = 0; j < extent; ++j) {
        (*data)[base + j * stride] = (*line)[j];
      }
    }
  }
}

}  // namespace

void HaarForward(Vector* v, Vector* scratch) {
  const size_t n = v->size();
  BF_CHECK_MSG(IsPowerOfTwo(n), "Haar transform requires power-of-two length");
  Vector& tmp = *scratch;
  tmp.resize(n);
  for (size_t m = n; m > 1; m /= 2) {
    const size_t half = m / 2;
    for (size_t j = 0; j < half; ++j) {
      const double a = (*v)[2 * j];
      const double b = (*v)[2 * j + 1];
      tmp[j] = 0.5 * (a + b);
      tmp[half + j] = 0.5 * (a - b);
    }
    for (size_t j = 0; j < m; ++j) (*v)[j] = tmp[j];
  }
}

void HaarInverse(Vector* v, Vector* scratch) {
  const size_t n = v->size();
  BF_CHECK_MSG(IsPowerOfTwo(n), "Haar transform requires power-of-two length");
  Vector& tmp = *scratch;
  tmp.resize(n);
  for (size_t m = 2; m <= n; m *= 2) {
    const size_t half = m / 2;
    for (size_t j = 0; j < half; ++j) {
      const double avg = (*v)[j];
      const double diff = (*v)[half + j];
      tmp[2 * j] = avg + diff;
      tmp[2 * j + 1] = avg - diff;
    }
    for (size_t j = 0; j < m; ++j) (*v)[j] = tmp[j];
  }
}

void HaarForward(Vector* v) {
  Vector scratch;
  HaarForward(v, &scratch);
}

void HaarInverse(Vector* v) {
  Vector scratch;
  HaarInverse(v, &scratch);
}

Vector HaarWeights(size_t n) {
  BF_CHECK_MSG(IsPowerOfTwo(n), "Haar weights require power-of-two length");
  Vector w(n);
  w[0] = static_cast<double>(n);
  for (size_t i = 1; i < n; ++i) {
    // i in [2^j, 2^{j+1}) holds a height-(h-j) coefficient with weight
    // 2^{h-j} = n / 2^j.
    size_t p = 1;
    while (p * 2 <= i) p *= 2;
    w[i] = static_cast<double>(n) / static_cast<double>(p);
  }
  return w;
}

PriveletMechanism::PriveletMechanism(DomainShape domain)
    : domain_(std::move(domain)) {
  std::vector<size_t> padded_dims;
  sensitivity_ = 1.0;
  for (size_t i = 0; i < domain_.num_dims(); ++i) {
    const size_t p = NextPowerOfTwo(domain_.dim(i));
    padded_dims.push_back(p);
    sensitivity_ *= static_cast<double>(Log2(p) + 1);
  }
  padded_ = DomainShape(padded_dims);
  padded_index_.resize(domain_.size());
  for (size_t i = 0; i < domain_.size(); ++i) {
    padded_index_[i] = padded_.Flatten(domain_.Unflatten(i));
  }
  // Per-cell weight = product over axes of the 1D coefficient weight of
  // the cell's coordinate along that axis.
  coefficient_weights_.assign(padded_.size(), 1.0);
  for (size_t axis = 0; axis < padded_.num_dims(); ++axis) {
    const Vector axis_weights = HaarWeights(padded_.dim(axis));
    for (size_t i = 0; i < padded_.size(); ++i) {
      coefficient_weights_[i] *= axis_weights[padded_.Unflatten(i)[axis]];
    }
  }
}

void PriveletMechanism::Run(const Vector& x, double epsilon, Rng* rng,
                            ReleaseWorkspace* ws, Vector* out) const {
  BF_CHECK_EQ(x.size(), domain_.size());
  out->resize(domain_.size());
  Release(x.data(), epsilon, rng, ws, out->data());
}

void PriveletMechanism::Release(const double* x, double epsilon, Rng* rng,
                                ReleaseWorkspace* ws, double* out) const {
  BF_CHECK_GT(epsilon, 0.0);
  BF_CHECK(rng != nullptr);

  // Embed into the padded grid.
  Vector& padded = ws->padded;
  padded.assign(padded_.size(), 0.0);
  for (size_t i = 0; i < domain_.size(); ++i) padded[padded_index_[i]] = x[i];
  // One line buffer and one Haar scratch serve every line of every axis;
  // reserving the widest axis up front keeps non-square domains (the
  // slab releases) from regrowing them per axis.
  const std::vector<size_t>& dims = padded_.dims();
  const size_t widest = *std::max_element(dims.begin(), dims.end());
  Vector& line = ws->line;
  Vector& scratch = ws->haar;
  line.reserve(widest);
  scratch.reserve(widest);
  // Forward transform along each axis.
  for (size_t axis = 0; axis < dims.size(); ++axis) {
    ForEachLine(&padded, dims, axis, &line,
                [&](Vector* l) { HaarForward(l, &scratch); });
  }
  // Generalized Laplace noise: scale sensitivity/(eps * weight).
  for (size_t i = 0; i < padded.size(); ++i) {
    padded[i] += rng->Laplace(sensitivity_ / (epsilon * coefficient_weights_[i]));
  }
  // Inverse transform.
  for (size_t axis = 0; axis < dims.size(); ++axis) {
    ForEachLine(&padded, dims, axis, &line,
                [&](Vector* l) { HaarInverse(l, &scratch); });
  }
  // Crop back to the logical domain.
  for (size_t i = 0; i < domain_.size(); ++i) out[i] = padded[padded_index_[i]];
}

}  // namespace blowfish
