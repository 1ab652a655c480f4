// Linear query workloads (Section 2). A workload is a q x k matrix W
// whose rows are linear queries over the histogram vector x; the
// answer is W x. Two representations coexist:
//
//  * `Workload` wraps a sparse matrix and is the exact object the
//    theory manipulates (transforms, sensitivities, pseudoinverses).
//  * `RangeWorkload` keeps multi-dimensional range queries implicit
//    (lo/hi corners) and answers them in O(domain + q) via summed-area
//    tables; experiments at domain size 4096 or 100x100 with 10^4
//    queries never materialize W. Its corners live in one flat array,
//    so copying, moving or destroying a workload costs a few
//    allocations whatever its query count.
//
// `RangeWorkload::ToWorkload()` bridges the two for small domains.

#ifndef BLOWFISH_WORKLOAD_WORKLOAD_H_
#define BLOWFISH_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "graph/builders.h"
#include "linalg/sparse.h"

namespace blowfish {

/// \brief A workload of linear queries with an explicit sparse matrix.
class Workload {
 public:
  Workload() = default;
  Workload(std::string name, SparseMatrix matrix)
      : name_(std::move(name)), matrix_(std::move(matrix)) {}

  const std::string& name() const { return name_; }
  const SparseMatrix& matrix() const { return matrix_; }
  size_t num_queries() const { return matrix_.rows(); }
  size_t domain_size() const { return matrix_.cols(); }

  /// Exact answers W x.
  Vector Answer(const Vector& x) const { return matrix_.MultiplyVector(x); }

  /// L1 sensitivity under unbounded differential privacy
  /// (Definition 2.3): max column L1 norm.
  double SensitivityUnbounded() const { return matrix_.MaxColumnL1(); }

 private:
  std::string name_;
  SparseMatrix matrix_;
};

/// \brief An axis-aligned range query over a d-dimensional grid domain;
/// bounds are inclusive cell coordinates. The type for building a
/// RangeWorkload; the workload stores corners flat.
struct RangeQuery {
  std::vector<size_t> lo;
  std::vector<size_t> hi;
};

/// \brief A summed-area table over one histogram, reusable across any
/// number of range queries on the same domain. Building the table is
/// the O(domain · d) part of range answering; holding it lets chunked
/// consumers (the engine's result streams) answer query blocks in
/// O(q · 2^d) without re-scanning the histogram per chunk. Immutable
/// after construction and safe to share across threads.
class SummedAreaAnswerer {
 public:
  SummedAreaAnswerer(DomainShape domain, const Vector& x);

  /// The exact answer to the inclusive range [lo, hi], each pointing
  /// at num_dims() coordinates (RangeWorkload::lo/hi); identical
  /// arithmetic (inclusion-exclusion corner order) to
  /// RangeWorkload::Answer, so chunked answers concatenate
  /// bit-identically to the one-shot call.
  double Answer(const size_t* lo, const size_t* hi) const;

 private:
  DomainShape domain_;
  Vector sat_;
};

/// \brief Implicit workload of d-dimensional range queries.
///
/// Corners are stored flat: query qi occupies 2·d consecutive entries,
/// its d `lo` coordinates then its d `hi` coordinates. A copy is one
/// allocation for the corners plus the domain's extents (and the name
/// past the small-string limit), however many queries it holds, and
/// the answer loops read the corners contiguously.
class RangeWorkload {
 public:
  /// Checks every query: d coordinates per corner, lo <= hi < extent.
  RangeWorkload(std::string name, DomainShape domain,
                const std::vector<RangeQuery>& queries);

  /// Takes corners already in the flat layout (2·d entries per query,
  /// lo then hi); the same checks as the RangeQuery constructor.
  static RangeWorkload FromCorners(std::string name, DomainShape domain,
                                   std::vector<size_t> corners);

  const std::string& name() const { return name_; }
  const DomainShape& domain() const { return domain_; }
  size_t num_queries() const { return num_queries_; }
  /// Query qi's inclusive corners, domain().num_dims() entries each.
  const size_t* lo(size_t qi) const {
    return corners_.data() + 2 * domain_.num_dims() * qi;
  }
  const size_t* hi(size_t qi) const { return lo(qi) + domain_.num_dims(); }

  /// Exact answers via a summed-area table: O(domain + q * 2^d).
  Vector Answer(const Vector& x) const;
  /// The same answers into `out`, building the table in `sat`; both
  /// are resized, so a caller that keeps them allocates nothing.
  void Answer(const Vector& x, Vector* sat, Vector* out) const;

  /// Materializes the explicit sparse workload (use at small domains).
  Workload ToWorkload() const;

 private:
  RangeWorkload() = default;
  void CheckCorners() const;

  std::string name_;
  DomainShape domain_;
  size_t num_queries_ = 0;
  std::vector<size_t> corners_;
};

}  // namespace blowfish

#endif  // BLOWFISH_WORKLOAD_WORKLOAD_H_
