#ifndef LAYOUTDB_MODEL_LAYOUT_H_
#define LAYOUTDB_MODEL_LAYOUT_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace ldb {

/// A layout: the N x M matrix L of the paper (Section 3), where L[i][j] is
/// the fraction of object i assigned to storage target j.
///
/// A layout is *valid* when every row sums to 1 (integrity constraint) and
/// no target's assigned bytes exceed its capacity (capacity constraint). It
/// is *regular* (Def. 2) when, within each row, all nonzero entries are
/// equal — i.e., each object is striped evenly across a subset of targets,
/// which is what LVM-style round-robin striping can implement.
class Layout {
 public:
  /// Creates an all-zero N x M layout.
  Layout(int num_objects, int num_targets);

  int num_objects() const { return n_; }
  int num_targets() const { return m_; }

  double At(int i, int j) const { return data_[Index(i, j)]; }
  void Set(int i, int j, double v) { data_[Index(i, j)] = v; }

  /// Mutable raw row access (length M), used by the solver.
  double* Row(int i) { return &data_[Index(i, 0)]; }
  const double* Row(int i) const { return &data_[Index(i, 0)]; }

  /// The whole matrix, row-major (N x M): column j is data()[i·M + j].
  const double* data() const { return data_.data(); }

  /// Sum of row i (should be 1 for valid layouts).
  double RowSum(int i) const;

  /// Bytes a fraction `fraction` of a `size`-byte object takes on a target
  /// (rounded up; the per-cell term of BytesPerTarget).
  static int64_t CellBytes(double fraction, int64_t size) {
    return static_cast<int64_t>(
        std::ceil(fraction * static_cast<double>(size)));
  }

  /// Bytes of each target consumed under this layout for objects of the
  /// given sizes.
  std::vector<int64_t> BytesPerTarget(const std::vector<int64_t>& sizes) const;

  /// Checks the integrity constraint (rows sum to 1 within `tol`).
  bool SatisfiesIntegrity(double tol = 1e-6) const;

  /// Checks the capacity constraint.
  bool SatisfiesCapacity(const std::vector<int64_t>& sizes,
                         const std::vector<int64_t>& capacities) const;

  /// Valid = integrity + capacity.
  bool IsValid(const std::vector<int64_t>& sizes,
               const std::vector<int64_t>& capacities,
               double tol = 1e-6) const;

  /// True when every row's nonzero entries are equal within `tol`
  /// (paper Definition 2). Entries below `tol` count as zero.
  bool IsRegular(double tol = 1e-6) const;

  /// For a regular layout row, the list of targets holding object i
  /// (entries > tol), in target order.
  std::vector<int> TargetsOf(int i, double tol = 1e-6) const;

  /// Sets row i to a regular layout over `targets` (each gets 1/k).
  void SetRowRegular(int i, const std::vector<int>& targets);

  /// Stripe-everything-everywhere: every object spread evenly over all
  /// targets — the paper's primary baseline.
  static Layout StripeEverythingEverywhere(int num_objects, int num_targets);

  /// Renders the layout as a percentage table (objects as rows). `names`
  /// may be empty (indices are used) or one name per object.
  std::string ToString(const std::vector<std::string>& names = {}) const;

  friend bool operator==(const Layout& a, const Layout& b) {
    return a.n_ == b.n_ && a.m_ == b.m_ && a.data_ == b.data_;
  }

 private:
  // Inline: the column evaluators and the regularizer call it per cell.
  size_t Index(int i, int j) const {
    LDB_CHECK_GE(i, 0);
    LDB_CHECK_LT(i, n_);
    LDB_CHECK_GE(j, 0);
    LDB_CHECK_LT(j, m_);
    return static_cast<size_t>(i) * static_cast<size_t>(m_) +
           static_cast<size_t>(j);
  }

  int n_;
  int m_;
  std::vector<double> data_;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_LAYOUT_H_
