#include "model/target_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ldb {

namespace {

/// Rates below this are treated as "object not present on target".
constexpr double kRateEpsilon = 1e-12;

/// Stand-in for χ → ∞ when pricing the gradient of an absent object: as
/// its fraction leaves zero, a positive interference accumulator divided
/// by a vanishing own rate sends χ beyond any calibration axis, where
/// lookups clamp. Any value past the axis end prices that limit exactly.
constexpr double kClampedChi = 1e30;

}  // namespace

TargetModel::TargetModel(std::vector<TargetModelInfo> targets,
                         LvmLayoutModel layout_model)
    : targets_(std::move(targets)), layout_model_(layout_model) {
  LDB_CHECK(!targets_.empty());
  for (const TargetModelInfo& t : targets_) {
    LDB_CHECK(t.cost_model != nullptr);
    LDB_CHECK_GT(t.num_members, 0);
    LDB_CHECK_GT(t.stripe_bytes, 0);
  }
}

double TargetModel::ObjectTerm(const TargetModelInfo& tgt,
                               const WorkloadSet& workloads,
                               const double* rate, int i,
                               double fraction) const {
  const double rate_ij = rate[i];
  if (rate_ij <= kRateEpsilon) return 0.0;
  const WorkloadDesc& wi = workloads[static_cast<size_t>(i)];

  // χ_ij (Eq. 2): temporally-correlated competing requests per own
  // request, plus the self-overlap extension — an object's own
  // concurrent streams compete with each other wherever the object is
  // placed, so the fitted mean concurrent-request count is added
  // directly (it does not dilute with striping: the streams follow the
  // object onto every target).
  double interfering = 0.0;
  if (wi.has_sparse_overlap()) {
    const size_t nnz = wi.overlap_index.size();
    for (size_t s = 0; s < nnz; ++s) {
      const int k = wi.overlap_index[s];
      if (k == i) continue;
      const double rate_kj = rate[k];
      if (rate_kj <= kRateEpsilon) continue;
      interfering += rate_kj * wi.overlap_value[s];
    }
  } else {
    const int n = static_cast<int>(workloads.size());
    for (int k = 0; k < n; ++k) {
      if (k == i) continue;
      const double rate_kj = rate[k];
      if (rate_kj <= kRateEpsilon) continue;
      interfering += rate_kj * wi.overlap[static_cast<size_t>(k)];
    }
  }
  const double chi =
      interfering / rate_ij + wi.overlap_with(static_cast<size_t>(i));
  return PerObjectUtilization(tgt, layout_model_.Transform(wi, fraction),
                              chi);
}

double TargetModel::TargetUtilizationInternal(
    const WorkloadSet& workloads, const Layout& layout, int j,
    std::vector<double>* mu_i) const {
  const int n = layout.num_objects();
  const TargetModelInfo& tgt = targets_[static_cast<size_t>(j)];
  if (mu_i != nullptr) mu_i->assign(static_cast<size_t>(n), 0.0);

  // Pass 1: every object's request rate on the target.
  std::vector<double> rate(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rate[static_cast<size_t>(i)] =
        layout_model_
            .Transform(workloads[static_cast<size_t>(i)],
                       std::max(0.0, layout.At(i, j)))
            .total_rate();
  }

  // Pass 2: contention factors (Eq. 2) and utilizations (Eq. 1), summed in
  // index order (absent objects add +0.0).
  double mu_j = 0.0;
  for (int i = 0; i < n; ++i) {
    const double mu_ij = ObjectTerm(tgt, workloads, rate.data(), i,
                                    std::max(0.0, layout.At(i, j)));
    if (mu_i != nullptr) (*mu_i)[static_cast<size_t>(i)] = mu_ij;
    mu_j += mu_ij;
  }
  return mu_j;
}

double TargetModel::PerObjectUtilization(const TargetModelInfo& tgt,
                                         const PerTargetWorkload& wij,
                                         double chi) const {
  // Per-request member-busy-seconds, normalized by the member count so
  // the result is a utilization contribution.
  //
  // RAID0: a request of B bytes touches `involved` members, each
  // transferring ~B/involved: involved * Cost(B/involved) / k.
  // RAID1: reads land on one member (Cost(B)/k); writes go to every
  // member (k * Cost(B) / k = Cost(B)).
  // RAID5: reads stripe over the k-1 data members like RAID0; writes add
  // a parity read-modify-write (~2 extra chunk accesses per row).
  auto member_cost = [&](bool is_write, double size) {
    if (size <= 0.0) return 0.0;
    const double k = tgt.num_members;
    const double chunks =
        std::ceil(size / static_cast<double>(tgt.stripe_bytes));
    switch (tgt.raid_level) {
      case RaidLevel::kRaid1: {
        const double cost =
            tgt.cost_model->Cost(is_write, size, wij.run_count, chi);
        return is_write ? cost : cost / k;
      }
      case RaidLevel::kRaid5: {
        const double data_cols = std::max(1.0, k - 1);
        const double involved = std::min(data_cols, std::max(1.0, chunks));
        const double per_member_size = size / involved;
        double busy = involved * tgt.cost_model->Cost(is_write,
                                                      per_member_size,
                                                      wij.run_count, chi);
        if (is_write) {
          // Parity RMW: one read + one write of a chunk-sized extent on
          // the parity member per touched row.
          const double rows = std::max(1.0, chunks / data_cols);
          const double parity_size =
              std::min(size, static_cast<double>(tgt.stripe_bytes));
          busy += rows * (tgt.cost_model->Cost(false, parity_size,
                                               wij.run_count, chi) +
                          tgt.cost_model->Cost(true, parity_size,
                                               wij.run_count, chi));
        }
        return busy / k;
      }
      case RaidLevel::kRaid0:
        break;
    }
    const double involved = std::min(k, std::max(1.0, chunks));
    const double per_member_size = size / involved;
    return tgt.cost_model->Cost(is_write, per_member_size, wij.run_count,
                                chi) *
           involved / k;
  };
  // One explicit fused multiply-add: the rounding then cannot depend on
  // how the compiler contracts the sum at each inlined call site.
  const double read = wij.read_rate * member_cost(false, wij.read_size);
  return std::fma(wij.write_rate, member_cost(true, wij.write_size), read);
}

double TargetModel::TargetUtilization(const WorkloadSet& workloads,
                                      const Layout& layout, int j) const {
  LDB_CHECK_GE(j, 0);
  LDB_CHECK_LT(j, num_targets());
  LDB_CHECK_EQ(workloads.size(), static_cast<size_t>(layout.num_objects()));
  return TargetUtilizationInternal(workloads, layout, j, nullptr);
}

std::vector<double> TargetModel::Utilizations(
    const WorkloadSet& workloads, const Layout& layout,
    std::vector<double>* mu_ij) const {
  const int n = layout.num_objects();
  const int m = layout.num_targets();
  LDB_CHECK_EQ(m, num_targets());
  LDB_CHECK_EQ(workloads.size(), static_cast<size_t>(n));
  if (mu_ij != nullptr) {
    mu_ij->assign(static_cast<size_t>(n) * static_cast<size_t>(m), 0.0);
  }
  std::vector<double> mu(static_cast<size_t>(m), 0.0);
  std::vector<double> mu_i;
  for (int j = 0; j < m; ++j) {
    mu[static_cast<size_t>(j)] = TargetUtilizationInternal(
        workloads, layout, j, mu_ij != nullptr ? &mu_i : nullptr);
    if (mu_ij != nullptr) {
      for (int i = 0; i < n; ++i) {
        (*mu_ij)[static_cast<size_t>(i) * static_cast<size_t>(m) +
                 static_cast<size_t>(j)] = mu_i[static_cast<size_t>(i)];
      }
    }
  }
  return mu;
}

double TargetModel::MaxUtilization(const WorkloadSet& workloads,
                                   const Layout& layout) const {
  const std::vector<double> mu = Utilizations(workloads, layout);
  return *std::max_element(mu.begin(), mu.end());
}

namespace {

/// The column evaluator behind TargetModel::MakeColumnEvaluator: µ_j and
/// its exact gradient in one structure-of-arrays pass:
///
///   µ_j = Σ_i µ_ij,   µ_ij = λ^R_ij·mcR_i + λ^W_ij·mcW_i
///
/// where each member cost mc is a fixed linear combination of cost-table
/// lookups at (size_i, run_i(f_i), χ_i) with sizes and coefficients
/// constant in the layout (precomputed once as a query template). The
/// total derivative w.r.t. the object's own fraction f_i = L_ij splits
/// into
///
///   ∂µ_j/∂f_i = λ^R_i·mcR_i + λ^W_i·mcW_i            (rates scale with f)
///             + (∂µ_ij/∂run_i) · run_i'(f_i)          (run-count branch)
///             + (∂µ_ij/∂χ_i) · (−I_i·λ_i/r_i²)        (own χ shift)
///             + λ_i · Σ_{k≠i} (∂µ_kj/∂χ_k)·O_k[i]/r_k (cross χ shifts)
///
/// with λ_i the object's total rate, r_i = λ_i·f_i its on-target rate and
/// I_i its interference accumulator. The cross sum over all i is one
/// transposed overlap-matrix·vector product — the same O(N²) asymptotics
/// as the interference accumulators, but a two-op inner loop over
/// contiguous arrays. All interpolator queries of the pass run through the
/// cost model's batched fused value+gradient lookups, for present objects
/// only: an absent object's mc terms are limit prices cached at
/// construction, and only its rate-scale term is non-zero.
class TargetColumnContext final : public ColumnEvaluator {
 public:
  /// Builds everything that depends only on the workloads and the target:
  /// overlap diagonals, the query template and the absent-object limit
  /// prices (one gradient-pass worth of lookups, paid once).
  TargetColumnContext(const TargetModel* model, const WorkloadSet* workloads,
                      int j)
      : model_(model), workloads_(workloads), j_(j) {
    const size_t un = workloads_->size();
    diag_.resize(un);
    for (size_t i = 0; i < un; ++i) {
      diag_[i] = (*workloads_)[i].overlap_with(i);
    }
    BuildQueryTemplate(model_->target_info(j_), un);
    BuildLimitPrices(un);
  }

  double Evaluate(const Layout& layout) override {
    return BatchedColumn(layout, nullptr);
  }

  double EvaluateWithGradient(const Layout& layout, double* grad) override {
    return BatchedColumn(layout, grad);
  }

  int64_t interp_queries() const override { return queries_; }

 private:
  /// One cost-table lookup of an object's member-cost expression. Sizes
  /// and coefficients depend only on the workload and the target geometry,
  /// so the per-object lookup lists are templated once and reused by every
  /// batched pass.
  struct QueryTemplate {
    bool write_table;  ///< which cost table the lookup hits
    bool write_role;   ///< scaled by the write rate (else the read rate)
    double log2_size;  ///< member request size, log2 bytes (the size axis
                       ///< is log-domain and sizes never change, so the
                       ///< transform happens once at template build)
    double coef;       ///< member-cost coefficient (involved/k, rows/k, …)
  };

  /// Structure-of-arrays buffers for one table's queries of a pass. Size
  /// and run coordinates are kept in the cost tables' log2 domain; the raw
  /// run count rides along only for the d_run chain rule. `cost` holds the
  /// prices as the value kernel rounds them, `grad_cost` as the gradient
  /// kernel does (the two differ in the last place).
  struct QueryBatch {
    std::vector<double> log2_size, log2_run, run, chi, coef, cost, grad_cost,
        d_run, d_chi;
    std::vector<int> obj;
    std::vector<char> role;  // 1 = write-role

    void Clear() {
      log2_size.clear();
      log2_run.clear();
      run.clear();
      chi.clear();
      coef.clear();
      obj.clear();
      role.clear();
    }
  };

  /// Mirrors PerObjectUtilization's member_cost structure into per-object
  /// query templates (one flattened list, per-object spans in
  /// tmpl_begin_).
  void BuildQueryTemplate(const TargetModelInfo& tgt, size_t un) {
    tmpl_.clear();
    tmpl_begin_.assign(un + 1, 0);
    const double k = tgt.num_members;
    const double stripe = static_cast<double>(tgt.stripe_bytes);
    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& w = (*workloads_)[i];
      for (int dir = 0; dir < 2; ++dir) {
        const bool write = dir == 1;
        const double rate = write ? w.write_rate : w.read_rate;
        const double size = write ? w.write_size : w.read_size;
        // A zero-rate direction multiplies out of the value and of every
        // gradient term; a zero-size request costs nothing (member_cost).
        if (rate <= 0.0 || size <= 0.0) continue;
        const double chunks = std::ceil(size / stripe);
        switch (tgt.raid_level) {
          case RaidLevel::kRaid1:
            tmpl_.push_back(
                {write, write, std::log2(size), write ? 1.0 : 1.0 / k});
            break;
          case RaidLevel::kRaid5: {
            const double data_cols = std::max(1.0, k - 1);
            const double involved = std::min(data_cols, std::max(1.0, chunks));
            tmpl_.push_back(
                {write, write, std::log2(size / involved), involved / k});
            if (write) {
              const double rows = std::max(1.0, chunks / data_cols);
              const double parity_size = std::min(size, stripe);
              tmpl_.push_back({false, true, std::log2(parity_size), rows / k});
              tmpl_.push_back({true, true, std::log2(parity_size), rows / k});
            }
            break;
          }
          case RaidLevel::kRaid0: {
            const double involved = std::min(k, std::max(1.0, chunks));
            tmpl_.push_back(
                {write, write, std::log2(size / involved), involved / k});
            break;
          }
        }
      }
      tmpl_begin_[i + 1] = tmpl_.size();
    }
  }

  /// Transform's run count in the fraction → 0+ limit: the round-robin
  /// split branch (run ∝ fraction) is unreachable there, leaving the
  /// constant branches.
  double LimitRunCount(const WorkloadDesc& w) const {
    const double stripe =
        static_cast<double>(model_->layout_model().stripe_bytes());
    const double b = w.mean_size();
    double run = w.run_count;
    if (b > 0.0 && w.run_count * b >= stripe) run = stripe / b;
    return run < 1.0 ? 1.0 : run;
  }

  /// Appends object i's template queries at run count `run` and contention
  /// factor `chi` to the pass's per-table batches.
  void GatherQueries(size_t i, double run, double chi) {
    const double log2_run = std::log2(run);  // once per object, not query
    for (size_t q = tmpl_begin_[i]; q < tmpl_begin_[i + 1]; ++q) {
      const QueryTemplate& t = tmpl_[q];
      QueryBatch& b = qb_[t.write_table ? 1 : 0];
      b.log2_size.push_back(t.log2_size);
      b.log2_run.push_back(log2_run);
      b.run.push_back(run);
      b.chi.push_back(chi);
      b.coef.push_back(t.coef);
      b.obj.push_back(static_cast<int>(i));
      b.role.push_back(t.write_role ? 1 : 0);
    }
  }

  /// Runs the gathered batches through the cost tables (read table, then
  /// write table) and accumulates each object's member costs in that
  /// order: with `value`, the value kernel's prices into mc_*; with
  /// `gradient`, the gradient kernel's into grad_mc_* together with the
  /// run and χ partials. µ_j is summed from the former and ∂µ_j/∂L_ij from
  /// the latter, so a fused pass returns the value-only pass's µ_j bit for
  /// bit. With both, each query is located once and priced both ways.
  /// Kept out of line: inlined into each caller with its flags constant,
  /// the accumulation loop is specialized per call site, and which of its
  /// products the compiler fuses into FMAs — so the sums' last bits —
  /// would then depend on the caller (the limit-price build must round
  /// exactly as the gradient pass does).
  [[gnu::noinline]] void PriceQueries(size_t un, bool value, bool gradient) {
    const TargetModelInfo& tgt = model_->target_info(j_);
    if (value) {
      mc_read_.assign(un, 0.0);
      mc_write_.assign(un, 0.0);
    }
    if (gradient) {
      grad_mc_read_.assign(un, 0.0);
      grad_mc_write_.assign(un, 0.0);
      drun_read_.assign(un, 0.0);
      drun_write_.assign(un, 0.0);
      dchi_read_.assign(un, 0.0);
      dchi_write_.assign(un, 0.0);
    }
    for (int t = 0; t < 2; ++t) {
      QueryBatch& b = qb_[t];
      const size_t count = b.log2_size.size();
      if (count == 0) continue;
      queries_ += static_cast<int64_t>(count);
      if (value) b.cost.resize(count);
      if (gradient) {
        b.grad_cost.resize(count);
        b.d_run.resize(count);
        b.d_chi.resize(count);
        tgt.cost_model->CostWithGradBatchLog2(
            t == 1, count, b.log2_size.data(), b.log2_run.data(),
            b.run.data(), b.chi.data(), b.grad_cost.data(), b.d_run.data(),
            b.d_chi.data(), value ? b.cost.data() : nullptr);
      } else {
        tgt.cost_model->CostBatchLog2(t == 1, count, b.log2_size.data(),
                                      b.log2_run.data(), b.chi.data(),
                                      b.cost.data());
      }
      // Each member-cost product is rounded before it is added: it feeds
      // both role branches, so it is never contracted into an FMA, while
      // each partial's product has one use and is. These are the roundings
      // the value and gradient passes have always produced; the solver
      // regression test pins them.
      for (size_t q = 0; q < count; ++q) {
        const size_t uo = static_cast<size_t>(b.obj[q]);
        const double coef = b.coef[q];
        const bool write = b.role[q] != 0;
        if (value) {
          const double term = coef * b.cost[q];
          if (write) {
            mc_write_[uo] += term;
          } else {
            mc_read_[uo] += term;
          }
        }
        if (gradient) {
          const double term = coef * b.grad_cost[q];
          if (write) {
            grad_mc_write_[uo] += term;
            drun_write_[uo] += coef * b.d_run[q];
            dchi_write_[uo] += coef * b.d_chi[q];
          } else {
            grad_mc_read_[uo] += term;
            drun_read_[uo] += coef * b.d_run[q];
            dchi_read_[uo] += coef * b.d_chi[q];
          }
        }
      }
    }
  }

  /// Prices every object's member costs at the fraction → 0+ limit, where
  /// an absent object's gradient is the rate-scale term λ^R·mcR + λ^W·mcW.
  /// The limit point — run count LimitRunCount, χ = kClampedChi when
  /// anything interferes (I_i > 0), else the diagonal — does not depend on
  /// the layout beyond that one bit, so both variants are priced here,
  /// through the gradient pass's own gather and accumulation: the cached
  /// sums equal the ones the pass would compute bit for bit.
  void BuildLimitPrices(size_t un) {
    for (int clamped = 0; clamped < 2; ++clamped) {
      qb_[0].Clear();
      qb_[1].Clear();
      for (size_t i = 0; i < un; ++i) {
        GatherQueries(i, LimitRunCount((*workloads_)[i]),
                      clamped != 0 ? kClampedChi : diag_[i]);
      }
      PriceQueries(un, /*value=*/false, /*gradient=*/true);
      limit_read_[clamped] = grad_mc_read_;
      limit_write_[clamped] = grad_mc_write_;
    }
  }

  /// The shared batched kernel: µ_j(layout), plus grad[i] = ∂µ_j/∂L_ij
  /// when `grad` is non-null.
  double BatchedColumn(const Layout& layout, double* grad) {
    const size_t un = static_cast<size_t>(layout.num_objects());
    LDB_CHECK_EQ(un, diag_.size());

    bper_.resize(un);
    bfrac_.resize(un);
    brate_.resize(un);
    binterf_.resize(un);
    for (size_t i = 0; i < un; ++i) {
      bfrac_[i] = std::max(0.0, layout.At(static_cast<int>(i), j_));
      bper_[i] =
          model_->layout_model().Transform((*workloads_)[i], bfrac_[i]);
      const double r = bper_[i].total_rate();
      brate_[i] = r <= kRateEpsilon ? 0.0 : r;
    }

    // Interference accumulators: one contiguous overlap-row · rate dot
    // product per object — the column's O(N²) work, shaped so the
    // compiler can vectorize it. The value-only pass skips absent rows;
    // the gradient pass needs every row (an absent object's cached limit
    // price depends on whether anything interferes with it).
    const double* rate = brate_.data();
    for (size_t i = 0; i < un; ++i) {
      if (grad == nullptr && rate[i] <= 0.0) {
        binterf_[i] = 0.0;
        continue;
      }
      const WorkloadDesc& wi = (*workloads_)[i];
      // Four fixed-order accumulator lanes: reassociates the sum the same
      // way on every run and thread count, and gives the compiler
      // independent chains to turn into vector FMAs (the sparse row's
      // rate gathers included).
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      double dot;
      if (wi.has_sparse_overlap()) {
        const int32_t* idx = wi.overlap_index.data();
        const double* val = wi.overlap_value.data();
        const size_t nnz = wi.overlap_index.size();
        size_t s = 0;
        for (; s + 4 <= nnz; s += 4) {
          acc0 += rate[idx[s]] * val[s];
          acc1 += rate[idx[s + 1]] * val[s + 1];
          acc2 += rate[idx[s + 2]] * val[s + 2];
          acc3 += rate[idx[s + 3]] * val[s + 3];
        }
        dot = (acc0 + acc1) + (acc2 + acc3);
        for (; s < nnz; ++s) dot += rate[idx[s]] * val[s];
      } else {
        const double* o = wi.overlap.data();
        size_t k = 0;
        for (; k + 4 <= un; k += 4) {
          acc0 += rate[k] * o[k];
          acc1 += rate[k + 1] * o[k + 1];
          acc2 += rate[k + 2] * o[k + 2];
          acc3 += rate[k + 3] * o[k + 3];
        }
        dot = (acc0 + acc1) + (acc2 + acc3);
        for (; k < un; ++k) dot += rate[k] * o[k];
      }
      // Both representations carry the diagonal; subtracting it afterwards
      // keeps the lane assignment independent of where it sits in the row.
      // The short sparse sums can leave a tiny negative residue after the
      // cancellation — clamp it so χ never goes below the diagonal.
      binterf_[i] = std::max(0.0, dot - rate[i] * diag_[i]);
    }

    // Gather the present objects' cost queries, split by lookup table, and
    // price them.
    qb_[0].Clear();
    qb_[1].Clear();
    for (size_t i = 0; i < un; ++i) {
      if (rate[i] <= 0.0) continue;  // absent: no value, cached gradient
      GatherQueries(i, bper_[i].run_count, binterf_[i] / rate[i] + diag_[i]);
    }
    PriceQueries(un, /*value=*/true, /*gradient=*/grad != nullptr);

    double mu_j = 0.0;
    for (size_t i = 0; i < un; ++i) {
      if (rate[i] <= 0.0) continue;
      mu_j += bper_[i].read_rate * mc_read_[i] +
              bper_[i].write_rate * mc_write_[i];
    }
    if (grad == nullptr) return mu_j;

    // Absent objects' member costs at the fraction → 0+ limit: the rates
    // vanish linearly, so ∂µ_ij/∂L_ij tends to λ^R·mcR + λ^W·mcW priced at
    // the limiting run count and contention factor (BuildLimitPrices).
    // Their run and χ partials are never read.
    for (size_t i = 0; i < un; ++i) {
      if (rate[i] > 0.0) continue;
      const int clamped = binterf_[i] > 0.0 ? 1 : 0;
      grad_mc_read_[i] = limit_read_[clamped][i];
      grad_mc_write_[i] = limit_write_[clamped][i];
    }

    // χ-slopes and their rate-normalized cross-term coefficients.
    ck_.assign(un, 0.0);
    bslope_.assign(un, 0.0);
    for (size_t i = 0; i < un; ++i) {
      if (rate[i] <= 0.0) continue;
      const double slope = bper_[i].read_rate * dchi_read_[i] +
                           bper_[i].write_rate * dchi_write_[i];
      bslope_[i] = slope;
      ck_[i] = slope / rate[i];
    }

    // Cross terms for every i at once: Σ_k c_k·O_k[i] is a transposed
    // overlap·c product; accumulating row-by-row keeps the inner loop
    // contiguous for dense rows (one fused multiply-add per element) and a
    // fixed-order scatter over sparse rows — k ascending, then row order,
    // so the accumulation order never depends on thread count.
    bcross_.assign(un, 0.0);
    double* cross = bcross_.data();
    for (size_t k = 0; k < un; ++k) {
      const double c = ck_[k];
      if (c == 0.0) continue;
      const WorkloadDesc& wk = (*workloads_)[k];
      if (wk.has_sparse_overlap()) {
        const int32_t* idx = wk.overlap_index.data();
        const double* val = wk.overlap_value.data();
        const size_t nnz = wk.overlap_index.size();
        for (size_t s = 0; s < nnz; ++s) cross[idx[s]] += c * val[s];
      } else {
        const double* o = wk.overlap.data();
        for (size_t i = 0; i < un; ++i) cross[i] += c * o[i];
      }
    }

    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& wi = (*workloads_)[i];
      const double lam = wi.total_rate();
      double g =
          wi.read_rate * grad_mc_read_[i] + wi.write_rate * grad_mc_write_[i];
      g += lam * (cross[i] - ck_[i] * diag_[i]);
      if (rate[i] > 0.0) {
        const double dq =
            model_->layout_model().TransformRunDerivative(wi, bfrac_[i]);
        if (dq != 0.0) {
          g += (bper_[i].read_rate * drun_read_[i] +
                bper_[i].write_rate * drun_write_[i]) *
               dq;
        }
        g += bslope_[i] * (-binterf_[i] * lam / (rate[i] * rate[i]));
      }
      grad[i] = g;
    }
    return mu_j;
  }

  const TargetModel* model_;
  const WorkloadSet* workloads_;
  const int j_;

  // Overlap diagonals, the query template, and the scratch buffers reused
  // by every pass.
  std::vector<double> diag_;
  std::vector<QueryTemplate> tmpl_;
  std::vector<size_t> tmpl_begin_;
  QueryBatch qb_[2];  // [0] read table, [1] write table
  std::vector<PerTargetWorkload> bper_;
  std::vector<double> bfrac_, brate_, binterf_;
  std::vector<double> mc_read_, mc_write_, grad_mc_read_, grad_mc_write_;
  // Absent-object member costs at the fraction → 0+ limit, indexed
  // [clamped χ][object]: [0] priced at χ = O_i[i] (nothing interferes),
  // [1] at kClampedChi.
  std::vector<double> limit_read_[2], limit_write_[2];
  std::vector<double> drun_read_, drun_write_, dchi_read_, dchi_write_;
  std::vector<double> ck_, bslope_, bcross_;
  int64_t queries_ = 0;
};

}  // namespace

std::unique_ptr<ColumnEvaluator> TargetModel::MakeColumnEvaluator(
    const WorkloadSet& workloads, int j) const {
  LDB_CHECK_GE(j, 0);
  LDB_CHECK_LT(j, num_targets());
  return std::make_unique<TargetColumnContext>(this, &workloads, j);
}

ColumnTerms::ColumnTerms(const TargetModel* model, const WorkloadSet* workloads,
                         const Layout& layout)
    : model_(model), workloads_(workloads), n_(workloads->size()) {
  LDB_CHECK_EQ(static_cast<size_t>(layout.num_objects()), n_);
  LDB_CHECK_EQ(layout.num_targets(), model_->num_targets());

  // Reverse overlap index: the transpose of the rows ObjectTerm iterates
  // (sparse rows when present, else the dense row's nonzero entries).
  const auto for_each_neighbor = [this](size_t k, auto&& visit) {
    const WorkloadDesc& wk = (*workloads_)[k];
    if (wk.has_sparse_overlap()) {
      for (int32_t i : wk.overlap_index) {
        if (static_cast<size_t>(i) != k) visit(static_cast<size_t>(i));
      }
    } else {
      for (size_t i = 0; i < wk.overlap.size(); ++i) {
        if (i != k && wk.overlap[i] != 0.0) visit(i);
      }
    }
  };
  dep_begin_.assign(n_ + 1, 0);
  for (size_t k = 0; k < n_; ++k) {
    for_each_neighbor(k, [this](size_t i) { ++dep_begin_[i + 1]; });
  }
  size_t widest = 0;
  for (size_t i = 0; i < n_; ++i) {
    widest = std::max(widest, dep_begin_[i + 1]);
    dep_begin_[i + 1] += dep_begin_[i];
  }
  dep_.resize(dep_begin_[n_]);
  std::vector<size_t> next(dep_begin_.begin(), dep_begin_.end() - 1);
  for (size_t k = 0; k < n_; ++k) {
    for_each_neighbor(k, [&](size_t i) {
      dep_[next[i]++] = static_cast<int32_t>(k);
    });
  }
  undo_.resize(widest + 1);

  const size_t m = static_cast<size_t>(layout.num_targets());
  fraction_.resize(m * n_);
  rate_.resize(m * n_);
  term_.resize(m * n_);
  mu_.resize(m);
  for (size_t j = 0; j < m; ++j) {
    const size_t col = j * n_;
    for (size_t i = 0; i < n_; ++i) {
      const double f = std::max(
          0.0, layout.At(static_cast<int>(i), static_cast<int>(j)));
      fraction_[col + i] = f;
      rate_[col + i] =
          model_->layout_model().Transform((*workloads_)[i], f).total_rate();
    }
    const TargetModelInfo& tgt = model_->target_info(static_cast<int>(j));
    double mu_j = 0.0;
    for (size_t i = 0; i < n_; ++i) {
      term_[col + i] =
          model_->ObjectTerm(tgt, *workloads_, &rate_[col],
                             static_cast<int>(i), fraction_[col + i]);
      mu_j += term_[col + i];
    }
    mu_[j] = mu_j;
  }
}

double ColumnTerms::Set(int j, int i, double fraction, bool undo) {
  const size_t col = static_cast<size_t>(j) * n_;
  const size_t ui = static_cast<size_t>(i);
  const double* f = &fraction_[col];
  const double* rate = &rate_[col];
  double* term = &term_[col];
  fraction_[col + ui] = std::max(0.0, fraction);
  rate_[col + ui] = model_->layout_model()
                        .Transform((*workloads_)[ui], f[ui])
                        .total_rate();

  const TargetModelInfo& tgt = model_->target_info(j);
  const size_t first = dep_begin_[ui];
  const size_t last = dep_begin_[ui + 1];
  if (undo) {
    undo_[0] = term[ui];
    for (size_t s = first; s < last; ++s) {
      undo_[1 + s - first] = term[static_cast<size_t>(dep_[s])];
    }
  }
  term[ui] = model_->ObjectTerm(tgt, *workloads_, rate, i, f[ui]);
  for (size_t s = first; s < last; ++s) {
    const size_t k = static_cast<size_t>(dep_[s]);
    term[k] = model_->ObjectTerm(tgt, *workloads_, rate, dep_[s], f[k]);
  }
  double mu_j = 0.0;
  for (size_t k = 0; k < n_; ++k) mu_j += term[k];
  return mu_j;
}

double ColumnTerms::Trial(int j, int i, double fraction) {
  const size_t col = static_cast<size_t>(j) * n_;
  const size_t ui = static_cast<size_t>(i);
  if (std::max(0.0, fraction) == fraction_[col + ui]) {
    return mu_[static_cast<size_t>(j)];
  }
  const double saved_fraction = fraction_[col + ui];
  const double saved_rate = rate_[col + ui];
  const double mu_j = Set(j, i, fraction, /*undo=*/true);
  fraction_[col + ui] = saved_fraction;
  rate_[col + ui] = saved_rate;
  term_[col + ui] = undo_[0];
  for (size_t s = dep_begin_[ui]; s < dep_begin_[ui + 1]; ++s) {
    term_[col + static_cast<size_t>(dep_[s])] = undo_[1 + s - dep_begin_[ui]];
  }
  return mu_j;
}

double ColumnTerms::Reprice(int j, int i, double fraction) {
  const size_t col = static_cast<size_t>(j) * n_;
  if (std::max(0.0, fraction) != fraction_[col + static_cast<size_t>(i)]) {
    mu_[static_cast<size_t>(j)] = Set(j, i, fraction, /*undo=*/false);
  }
  return mu_[static_cast<size_t>(j)];
}

}  // namespace ldb
