#include "model/layout.h"

#include <cmath>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

Layout::Layout(int num_objects, int num_targets)
    : n_(num_objects), m_(num_targets) {
  LDB_CHECK_GT(n_, 0);
  LDB_CHECK_GT(m_, 0);
  data_.assign(static_cast<size_t>(n_) * static_cast<size_t>(m_), 0.0);
}

size_t Layout::Index(int i, int j) const {
  LDB_CHECK_GE(i, 0);
  LDB_CHECK_LT(i, n_);
  LDB_CHECK_GE(j, 0);
  LDB_CHECK_LT(j, m_);
  return static_cast<size_t>(i) * static_cast<size_t>(m_) +
         static_cast<size_t>(j);
}

double Layout::RowSum(int i) const {
  double sum = 0.0;
  for (int j = 0; j < m_; ++j) sum += At(i, j);
  return sum;
}

std::vector<int64_t> Layout::BytesPerTarget(
    const std::vector<int64_t>& sizes) const {
  LDB_CHECK_EQ(sizes.size(), static_cast<size_t>(n_));
  std::vector<int64_t> bytes(static_cast<size_t>(m_), 0);
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < m_; ++j) {
      bytes[static_cast<size_t>(j)] +=
          CellBytes(At(i, j), sizes[static_cast<size_t>(i)]);
    }
  }
  return bytes;
}

bool Layout::SatisfiesIntegrity(double tol) const {
  for (int i = 0; i < n_; ++i) {
    if (std::fabs(RowSum(i) - 1.0) > tol) return false;
    for (int j = 0; j < m_; ++j) {
      if (At(i, j) < -tol || At(i, j) > 1.0 + tol) return false;
    }
  }
  return true;
}

bool Layout::SatisfiesCapacity(const std::vector<int64_t>& sizes,
                               const std::vector<int64_t>& capacities) const {
  LDB_CHECK_EQ(capacities.size(), static_cast<size_t>(m_));
  const std::vector<int64_t> bytes = BytesPerTarget(sizes);
  for (int j = 0; j < m_; ++j) {
    if (bytes[static_cast<size_t>(j)] > capacities[static_cast<size_t>(j)]) {
      return false;
    }
  }
  return true;
}

bool Layout::IsValid(const std::vector<int64_t>& sizes,
                     const std::vector<int64_t>& capacities,
                     double tol) const {
  return SatisfiesIntegrity(tol) && SatisfiesCapacity(sizes, capacities);
}

bool Layout::IsRegular(double tol) const {
  for (int i = 0; i < n_; ++i) {
    double nonzero = -1.0;
    for (int j = 0; j < m_; ++j) {
      const double v = At(i, j);
      if (v <= tol) continue;
      if (nonzero < 0.0) {
        nonzero = v;
      } else if (std::fabs(v - nonzero) > tol) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> Layout::TargetsOf(int i, double tol) const {
  std::vector<int> targets;
  for (int j = 0; j < m_; ++j) {
    if (At(i, j) > tol) targets.push_back(j);
  }
  return targets;
}

void Layout::SetRowRegular(int i, const std::vector<int>& targets) {
  LDB_CHECK(!targets.empty());
  for (int j = 0; j < m_; ++j) Set(i, j, 0.0);
  const double share = 1.0 / static_cast<double>(targets.size());
  for (int j : targets) Set(i, j, share);
}

Layout Layout::StripeEverythingEverywhere(int num_objects, int num_targets) {
  Layout l(num_objects, num_targets);
  const double share = 1.0 / static_cast<double>(num_targets);
  for (int i = 0; i < num_objects; ++i) {
    for (int j = 0; j < num_targets; ++j) l.Set(i, j, share);
  }
  return l;
}

std::string Layout::ToString(const std::vector<std::string>& names) const {
  LDB_CHECK(names.empty() || names.size() == static_cast<size_t>(n_));
  std::vector<std::string> header{"Object"};
  for (int j = 0; j < m_; ++j) header.push_back(StrFormat("T%d", j));
  TextTable table(std::move(header));
  for (int i = 0; i < n_; ++i) {
    std::vector<std::string> row;
    row.push_back(names.empty() ? StrFormat("obj%d", i) : names[static_cast<size_t>(i)]);
    for (int j = 0; j < m_; ++j) {
      const double v = At(i, j);
      row.push_back(v <= 1e-9 ? "." : StrFormat("%.0f%%", 100.0 * v));
    }
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

}  // namespace ldb
