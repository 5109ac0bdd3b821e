#ifndef LAYOUTDB_MODEL_COST_MODEL_H_
#define LAYOUTDB_MODEL_COST_MODEL_H_

#include <string>
#include <vector>

#include "util/interp.h"
#include "util/status.h"

namespace ldb {

/// Reusable buffers for the batched cost lookups. One instance per caller:
/// the scratch is not thread-safe, while the CostModel itself stays shared
/// and immutable.
struct CostBatchScratch {
  std::vector<double> log2_size;
  std::vector<double> log2_run;
};

/// Black-box per-request cost model for one device type (paper Section
/// 5.2.2): tabulated mean service times over a calibration grid of
/// (request size, run count, contention factor), interpolated between grid
/// points. One table for reads, one for writes.
///
/// Request size and run count are interpolated on log2 axes (their effect
/// is multiplicative); the contention factor is interpolated on its raw,
/// non-uniform axis. Queries outside the calibrated range clamp to the
/// boundary.
class CostModel {
 public:
  /// Builds a model from calibration results.
  ///
  /// \param device_model device model name this table was calibrated for.
  /// \param size_axis request sizes (bytes), strictly increasing.
  /// \param run_axis run counts, strictly increasing, starting at 1.
  /// \param contention_axis contention factors, strictly increasing from 0.
  /// \param read_costs,write_costs row-major over
  ///   (size, run, contention), in seconds per request.
  static Result<CostModel> Create(std::string device_model,
                                  std::vector<double> size_axis,
                                  std::vector<double> run_axis,
                                  std::vector<double> contention_axis,
                                  std::vector<double> read_costs,
                                  std::vector<double> write_costs);

  /// Mean service time (seconds) of a request with the given properties.
  /// `is_write` selects the table; inputs are clamped to the grid.
  double Cost(bool is_write, double request_size_bytes, double run_count,
              double contention) const;

  /// Fused value + derivative lookup: returns Cost(...) and fills the
  /// partial derivatives with respect to the *raw* run count and contention
  /// factor (the log2 run axis is chain-ruled internally). The size
  /// derivative is not exposed: request sizes are constants of the layout
  /// problem, only rates, run counts, and χ move with the layout.
  /// Derivatives are 0 along clamped axes (see GridInterpolator).
  double CostWithGrad(bool is_write, double request_size_bytes,
                      double run_count, double contention, double* d_run,
                      double* d_chi) const;

  /// Structure-of-arrays batch of Cost lookups: arrays hold `count`
  /// queries. Preconditions per query match Cost(); `scratch` carries the
  /// log2-transformed coordinates between calls so steady-state batches
  /// allocate nothing.
  void CostBatch(bool is_write, size_t count, const double* size,
                 const double* run, const double* chi, double* out,
                 CostBatchScratch* scratch) const;

  /// Batched CostWithGrad: `d_run`/`d_chi` receive per-query derivatives
  /// with respect to the raw run count and the contention factor.
  void CostWithGradBatch(bool is_write, size_t count, const double* size,
                         const double* run, const double* chi, double* cost,
                         double* d_run, double* d_chi,
                         CostBatchScratch* scratch) const;

  /// CostBatch over coordinates already in the tables' log domain:
  /// `log2_size`/`log2_run` hold log2-transformed sizes and run counts.
  /// Callers holding SoA query batches (the target model's batched column
  /// evaluator) compute log2(size) once per query template and log2(run)
  /// once per object instead of twice per query here — the transcendental
  /// transforms are a visible slice of the batched pass otherwise.
  void CostBatchLog2(bool is_write, size_t count, const double* log2_size,
                     const double* log2_run, const double* chi,
                     double* out) const;

  /// Batched CostWithGrad over log-domain coordinates. The raw `run` array
  /// is still required to chain-rule `d_run` back to the raw run count.
  /// A non-null `value_cost` also receives every cost exactly as
  /// CostBatchLog2 prices it (GridInterpolator::AtWithGradBatch's `at_out`).
  void CostWithGradBatchLog2(bool is_write, size_t count,
                             const double* log2_size, const double* log2_run,
                             const double* run, const double* chi,
                             double* cost, double* d_run, double* d_chi,
                             double* value_cost = nullptr) const;

  /// Convenience wrappers matching the paper's Cost^R_j / Cost^W_j.
  double ReadCost(double size, double run, double chi) const {
    return Cost(false, size, run, chi);
  }
  double WriteCost(double size, double run, double chi) const {
    return Cost(true, size, run, chi);
  }

  const std::string& device_model() const { return device_model_; }

  /// Serializes to a plain-text format (one header line, axes, values).
  std::string ToText() const;

  /// Parses a model previously produced by ToText().
  static Result<CostModel> FromText(const std::string& text);

 private:
  CostModel(std::string device_model, std::vector<double> size_axis,
            std::vector<double> run_axis, std::vector<double> contention_axis,
            GridInterpolator read, GridInterpolator write);

  std::string device_model_;
  // Raw axes kept for serialization; interpolators hold log2 axes.
  std::vector<double> size_axis_;
  std::vector<double> run_axis_;
  std::vector<double> contention_axis_;
  GridInterpolator read_;
  GridInterpolator write_;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_COST_MODEL_H_
