#include "mech/privelet.h"

#include <cmath>

#include "common/check.h"

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
// `dims` (row-major layout): gathers the line, transforms, scatters.
template <typename Fn>
void ForEachLine(Vector* data, const std::vector<size_t>& dims, size_t axis,
                 Fn&& fn) {
  const size_t d = dims.size();
  std::vector<size_t> stride(d, 1);
  for (size_t i = d - 1; i-- > 0;) stride[i] = stride[i + 1] * dims[i + 1];
  const size_t extent = dims[axis];
  const size_t s = stride[axis];
  const size_t total = data->size();
  Vector line(extent);
  // Enumerate all positions with coordinate 0 along `axis`.
  for (size_t base = 0; base < total; ++base) {
    if ((base / s) % extent != 0) continue;
    for (size_t j = 0; j < extent; ++j) line[j] = (*data)[base + j * s];
    fn(&line);
    for (size_t j = 0; j < extent; ++j) (*data)[base + j * s] = line[j];
  }
}

}  // namespace

void HaarForward(Vector* v) {
  const size_t n = v->size();
  BF_CHECK_MSG(IsPowerOfTwo(n), "Haar transform requires power-of-two length");
  Vector tmp(n);
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

void HaarInverse(Vector* v) {
  const size_t n = v->size();
  BF_CHECK_MSG(IsPowerOfTwo(n), "Haar transform requires power-of-two length");
  Vector tmp(n);
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

Vector PriveletMechanism::Run(const Vector& x, double epsilon,
                              Rng* rng) const {
  BF_CHECK_EQ(x.size(), domain_.size());
  BF_CHECK_GT(epsilon, 0.0);
  BF_CHECK(rng != nullptr);

  // Embed into the padded grid.
  Vector padded(padded_.size(), 0.0);
  for (size_t i = 0; i < domain_.size(); ++i) padded[padded_index_[i]] = x[i];
  // Forward transform along each axis.
  for (size_t axis = 0; axis < padded_.num_dims(); ++axis) {
    ForEachLine(&padded, padded_.dims(), axis,
                [](Vector* line) { HaarForward(line); });
  }
  // Generalized Laplace noise: scale sensitivity/(eps * weight).
  for (size_t i = 0; i < padded.size(); ++i) {
    padded[i] += rng->Laplace(sensitivity_ / (epsilon * coefficient_weights_[i]));
  }
  // Inverse transform.
  for (size_t axis = 0; axis < padded_.num_dims(); ++axis) {
    ForEachLine(&padded, padded_.dims(), axis,
                [](Vector* line) { HaarInverse(line); });
  }
  // Crop back to the logical domain.
  Vector out(domain_.size());
  for (size_t i = 0; i < domain_.size(); ++i) out[i] = padded[padded_index_[i]];
  return out;
}

}  // namespace blowfish
