#include "model/cost_model.h"

#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

std::vector<double> Log2Axis(const std::vector<double>& axis) {
  std::vector<double> out;
  out.reserve(axis.size());
  for (double v : axis) out.push_back(std::log2(v));
  return out;
}

}  // namespace

Result<CostModel> CostModel::Create(std::string device_model,
                                    std::vector<double> size_axis,
                                    std::vector<double> run_axis,
                                    std::vector<double> contention_axis,
                                    std::vector<double> read_costs,
                                    std::vector<double> write_costs) {
  if (device_model.empty()) {
    return Status::InvalidArgument("device model name required");
  }
  for (double s : size_axis) {
    if (s <= 0) return Status::InvalidArgument("sizes must be positive");
  }
  for (double q : run_axis) {
    if (q < 1) return Status::InvalidArgument("run counts must be >= 1");
  }
  for (double c : contention_axis) {
    if (c < 0) return Status::InvalidArgument("contention must be >= 0");
  }
  for (double v : read_costs) {
    if (!(v > 0) || !std::isfinite(v)) {
      return Status::InvalidArgument("read costs must be positive finite");
    }
  }
  for (double v : write_costs) {
    if (!(v > 0) || !std::isfinite(v)) {
      return Status::InvalidArgument("write costs must be positive finite");
    }
  }
  auto read = GridInterpolator::Create(
      {Log2Axis(size_axis), Log2Axis(run_axis), contention_axis}, read_costs);
  if (!read.ok()) return read.status();
  auto write = GridInterpolator::Create(
      {Log2Axis(size_axis), Log2Axis(run_axis), contention_axis},
      write_costs);
  if (!write.ok()) return write.status();
  return CostModel(std::move(device_model), std::move(size_axis),
                   std::move(run_axis), std::move(contention_axis),
                   std::move(read).value(), std::move(write).value());
}

CostModel::CostModel(std::string device_model, std::vector<double> size_axis,
                     std::vector<double> run_axis,
                     std::vector<double> contention_axis,
                     GridInterpolator read, GridInterpolator write)
    : device_model_(std::move(device_model)),
      size_axis_(std::move(size_axis)),
      run_axis_(std::move(run_axis)),
      contention_axis_(std::move(contention_axis)),
      read_(std::move(read)),
      write_(std::move(write)) {}

double CostModel::Cost(bool is_write, double request_size_bytes,
                       double run_count, double contention) const {
  LDB_CHECK_GT(request_size_bytes, 0.0);
  LDB_CHECK_GE(run_count, 1.0);
  LDB_CHECK_GE(contention, 0.0);
  const double point[3] = {std::log2(request_size_bytes),
                           std::log2(run_count), contention};
  return is_write ? write_.At(point, 3) : read_.At(point, 3);
}

namespace {

/// d(log2 x)/dx = 1 / (x · ln 2).
constexpr double kLn2 = 0.6931471805599453094;

}  // namespace

double CostModel::CostWithGrad(bool is_write, double request_size_bytes,
                               double run_count, double contention,
                               double* d_run, double* d_chi) const {
  LDB_CHECK_GT(request_size_bytes, 0.0);
  LDB_CHECK_GE(run_count, 1.0);
  LDB_CHECK_GE(contention, 0.0);
  const double point[3] = {std::log2(request_size_bytes),
                           std::log2(run_count), contention};
  double grad[3];
  const double cost = (is_write ? write_ : read_).AtWithGrad(point, 3, grad);
  *d_run = grad[1] / (run_count * kLn2);
  *d_chi = grad[2];
  return cost;
}

void CostModel::CostBatch(bool is_write, size_t count, const double* size,
                          const double* run, const double* chi, double* out,
                          CostBatchScratch* scratch) const {
  LDB_CHECK(scratch != nullptr);
  scratch->log2_size.resize(count);
  scratch->log2_run.resize(count);
  for (size_t q = 0; q < count; ++q) {
    scratch->log2_size[q] = std::log2(size[q]);
    scratch->log2_run[q] = std::log2(run[q]);
  }
  CostBatchLog2(is_write, count, scratch->log2_size.data(),
                scratch->log2_run.data(), chi, out);
}

void CostModel::CostBatchLog2(bool is_write, size_t count,
                              const double* log2_size, const double* log2_run,
                              const double* chi, double* out) const {
  const double* coords[3] = {log2_size, log2_run, chi};
  (is_write ? write_ : read_).AtBatch(count, coords, out);
}

void CostModel::CostWithGradBatch(bool is_write, size_t count,
                                  const double* size, const double* run,
                                  const double* chi, double* cost,
                                  double* d_run, double* d_chi,
                                  CostBatchScratch* scratch) const {
  LDB_CHECK(scratch != nullptr);
  scratch->log2_size.resize(count);
  scratch->log2_run.resize(count);
  for (size_t q = 0; q < count; ++q) {
    scratch->log2_size[q] = std::log2(size[q]);
    scratch->log2_run[q] = std::log2(run[q]);
  }
  CostWithGradBatchLog2(is_write, count, scratch->log2_size.data(),
                        scratch->log2_run.data(), run, chi, cost, d_run,
                        d_chi);
}

void CostModel::CostWithGradBatchLog2(bool is_write, size_t count,
                                      const double* log2_size,
                                      const double* log2_run,
                                      const double* run, const double* chi,
                                      double* cost, double* d_run,
                                      double* d_chi,
                                      double* value_cost) const {
  // The size axis' partial is skipped (null grads[0]); `d_run` receives
  // the log2-run partial in place and is chain-ruled to the raw run below.
  double* grads[3] = {nullptr, d_run, d_chi};
  const double* coords[3] = {log2_size, log2_run, chi};
  (is_write ? write_ : read_)
      .AtWithGradBatch(count, coords, cost, grads, value_cost);
  for (size_t q = 0; q < count; ++q) {
    d_run[q] /= run[q] * kLn2;
  }
}

std::string CostModel::ToText() const {
  std::ostringstream out;
  out.precision(17);
  out << "costmodel v1 " << device_model_ << "\n";
  auto dump = [&out](const char* tag, const std::vector<double>& v) {
    out << tag << " " << v.size();
    for (double x : v) out << " " << x;
    out << "\n";
  };
  dump("sizes", size_axis_);
  dump("runs", run_axis_);
  dump("contention", contention_axis_);
  dump("read", read_.values());
  dump("write", write_.values());
  return out.str();
}

Result<CostModel> CostModel::FromText(const std::string& text) {
  std::istringstream in(text);
  std::string magic, version, device;
  in >> magic >> version >> device;
  if (magic != "costmodel" || version != "v1" || device.empty()) {
    return Status::InvalidArgument("bad cost model header");
  }
  auto load = [&in](const char* tag,
                    std::vector<double>* v) -> Status {
    std::string seen;
    size_t n = 0;
    if (!(in >> seen >> n) || seen != tag) {
      return Status::InvalidArgument(
          StrFormat("bad cost model section, expected %s", tag));
    }
    v->resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (!(in >> (*v)[i])) {
        return Status::InvalidArgument("truncated cost model section");
      }
    }
    return Status::Ok();
  };
  std::vector<double> sizes, runs, chi, reads, writes;
  LDB_RETURN_IF_ERROR(load("sizes", &sizes));
  LDB_RETURN_IF_ERROR(load("runs", &runs));
  LDB_RETURN_IF_ERROR(load("contention", &chi));
  LDB_RETURN_IF_ERROR(load("read", &reads));
  LDB_RETURN_IF_ERROR(load("write", &writes));
  return Create(device, std::move(sizes), std::move(runs), std::move(chi),
                std::move(reads), std::move(writes));
}

}  // namespace ldb
