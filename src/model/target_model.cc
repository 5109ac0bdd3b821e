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

/// The column evaluator behind TargetModel::ColumnEvaluators: µ_j and its
/// exact gradient in one structure-of-arrays pass:
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
/// transposed overlap-matrix·vector product, scattered from the present
/// rows. A pass costs what the column's present cells cost: it lists the
/// present objects first, in ascending index order, and runs the layout
/// transform, the interference dots, the cost-table lookups and the χ
/// terms over that list only, so every sum keeps the order (and the bits)
/// of a sweep over all objects that skips the absent ones. Of an absent
/// object the pass needs one bit, whether anything present interferes with
/// it; its mc terms are limit prices cached at construction, and only its
/// rate-scale and cross terms are non-zero.
class TargetColumnContext final : public ColumnEvaluator {
 public:
  /// Builds everything that depends only on the workloads and the target:
  /// overlap diagonals, per-object rates, the query template, the
  /// absent-object limit prices (one gradient-pass worth of lookups, paid
  /// once) and every scratch buffer a pass uses.
  TargetColumnContext(const TargetModel* model, const WorkloadSet* workloads,
                      std::shared_ptr<const ReverseOverlap> reverse, int j)
      : model_(model),
        workloads_(workloads),
        reverse_(std::move(reverse)),
        j_(j) {
    const size_t un = workloads_->size();
    LDB_CHECK_EQ(reverse_->begin.size(), un + 1);
    diag_.resize(un);
    read_rate_.resize(un);
    write_rate_.resize(un);
    total_rate_.resize(un);
    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& w = (*workloads_)[i];
      diag_[i] = w.overlap_with(i);
      read_rate_[i] = w.read_rate;
      write_rate_[i] = w.write_rate;
      total_rate_[i] = w.total_rate();
    }
    present_.resize(un);
    for (std::vector<double>* v :
         {&frac_, &prate_, &pread_, &pwrite_, &prun_, &interf_, &slope_, &ck_,
          &mc_read_, &mc_write_, &grad_mc_read_, &grad_mc_write_, &drun_read_,
          &drun_write_, &dchi_read_, &dchi_write_}) {
      v->resize(un);
    }
    rate_.assign(un, 0.0);
    cross_.resize(un);
    neighbor_.resize(un);
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

  /// Structure-of-arrays buffers for one table's queries of a pass, sized
  /// at construction for every object's template and filled by index: the
  /// first `size` entries are the pass's queries. Size and run coordinates
  /// are kept in the cost tables' log2 domain; the raw run count rides
  /// along only for the d_run chain rule. `cost` holds the prices as the
  /// value kernel rounds them, `grad_cost` as the gradient kernel does (the
  /// two differ in the last place). `obj` is the slot the query's member
  /// costs accumulate into.
  struct QueryBatch {
    size_t size = 0;
    std::vector<double> log2_size, log2_run, run, chi, coef, cost, grad_cost,
        d_run, d_chi;
    std::vector<int32_t> obj;
    std::vector<char> role;  // 1 = write-role

    void Resize(size_t capacity) {
      for (std::vector<double>* v : {&log2_size, &log2_run, &run, &chi, &coef,
                                     &cost, &grad_cost, &d_run, &d_chi}) {
        v->resize(capacity);
      }
      obj.resize(capacity);
      role.resize(capacity);
    }
  };

  /// Mirrors PerObjectUtilization's member_cost structure into per-object
  /// query templates (one flattened list, per-object spans in
  /// tmpl_begin_), and sizes each table's batch for all of them.
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
    size_t per_table[2] = {0, 0};
    for (const QueryTemplate& t : tmpl_) ++per_table[t.write_table ? 1 : 0];
    qb_[0].Resize(per_table[0]);
    qb_[1].Resize(per_table[1]);
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
  /// factor `chi` to the pass's per-table batches, accumulating into slot
  /// `slot`.
  void GatherQueries(size_t slot, size_t i, double run, double chi) {
    const double log2_run = std::log2(run);  // once per object, not query
    for (size_t q = tmpl_begin_[i]; q < tmpl_begin_[i + 1]; ++q) {
      const QueryTemplate& t = tmpl_[q];
      QueryBatch& b = qb_[t.write_table ? 1 : 0];
      const size_t s = b.size++;
      b.log2_size[s] = t.log2_size;
      b.log2_run[s] = log2_run;
      b.run[s] = run;
      b.chi[s] = chi;
      b.coef[s] = t.coef;
      b.obj[s] = static_cast<int32_t>(slot);
      b.role[s] = t.write_role ? 1 : 0;
    }
  }

  /// Runs the gathered batches through the cost tables (read table, then
  /// write table) and accumulates the member costs of slots [0, slots) in
  /// that order: with `value`, the value kernel's prices into mc_*; with
  /// `gradient`, the gradient kernel's into grad_mc_* together with the
  /// run and χ partials. µ_j is summed from the former and ∂µ_j/∂L_ij from
  /// the latter, so a fused pass returns the value-only pass's µ_j bit for
  /// bit. With both, each query is located once and priced both ways.
  /// Kept out of line: inlined into each caller with its flags constant,
  /// the accumulation loop is specialized per call site, and which of its
  /// products the compiler fuses into FMAs — so the sums' last bits —
  /// would then depend on the caller (the limit-price build must round
  /// exactly as the gradient pass does).
  [[gnu::noinline]] void PriceQueries(size_t slots, bool value,
                                      bool gradient) {
    const TargetModelInfo& tgt = model_->target_info(j_);
    if (value) {
      std::fill_n(mc_read_.begin(), slots, 0.0);
      std::fill_n(mc_write_.begin(), slots, 0.0);
    }
    if (gradient) {
      for (std::vector<double>* v : {&grad_mc_read_, &grad_mc_write_,
                                     &drun_read_, &drun_write_, &dchi_read_,
                                     &dchi_write_}) {
        std::fill_n(v->begin(), slots, 0.0);
      }
    }
    for (int t = 0; t < 2; ++t) {
      QueryBatch& b = qb_[t];
      const size_t count = b.size;
      if (count == 0) continue;
      queries_ += static_cast<int64_t>(count);
      if (gradient) {
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
      qb_[0].size = 0;
      qb_[1].size = 0;
      for (size_t i = 0; i < un; ++i) {
        GatherQueries(i, i, LimitRunCount((*workloads_)[i]),
                      clamped != 0 ? kClampedChi : diag_[i]);
      }
      PriceQueries(un, /*value=*/false, /*gradient=*/true);
      limit_read_[clamped] = grad_mc_read_;
      limit_write_[clamped] = grad_mc_write_;
    }
  }

  /// Lists the column's present objects in ascending index order into
  /// present_ — first every object with L_ij > 0, then, after the layout
  /// transform, those whose on-target rate exceeds kRateEpsilon; both
  /// compactions are branch-free — and fills the per-present arrays and
  /// their entries of rate_ (every other entry stays 0). Returns the count.
  size_t ListPresent(const Layout& layout) {
    const size_t un = diag_.size();
    const size_t m = static_cast<size_t>(layout.num_targets());
    const double* cell = layout.data() + j_;
    size_t candidates = 0;
    for (size_t i = 0; i < un; ++i) {
      present_[candidates] = static_cast<int32_t>(i);
      candidates += cell[i * m] > 0.0 ? 1 : 0;
    }
    size_t np = 0;
    for (size_t c = 0; c < candidates; ++c) {
      const size_t i = static_cast<size_t>(present_[c]);
      const double f = cell[i * m];
      const PerTargetWorkload w =
          model_->layout_model().Transform((*workloads_)[i], f);
      const double r = w.total_rate();
      present_[np] = static_cast<int32_t>(i);  // np <= c: compacts in place
      frac_[np] = f;
      prate_[np] = r;
      pread_[np] = w.read_rate;
      pwrite_[np] = w.write_rate;
      prun_[np] = w.run_count;
      np += r > kRateEpsilon ? 1 : 0;
    }
    for (size_t p = 0; p < np; ++p) {
      rate_[static_cast<size_t>(present_[p])] = prate_[p];
    }
    return np;
  }

  /// The shared batched kernel: µ_j(layout), plus grad[i] = ∂µ_j/∂L_ij
  /// when `grad` is non-null.
  double BatchedColumn(const Layout& layout, double* grad) {
    const size_t un = static_cast<size_t>(layout.num_objects());
    LDB_CHECK_EQ(un, diag_.size());
    LDB_CHECK_LT(j_, layout.num_targets());
    const size_t np = ListPresent(layout);
    const int32_t* present = present_.data();

    // Interference accumulators of the present objects: one overlap-row ·
    // rate dot product each, over a rate column that is 0 for every absent
    // object — the column's O(nnz) work, shaped so the compiler can
    // vectorize it.
    const double* rate = rate_.data();
    for (size_t p = 0; p < np; ++p) {
      const size_t i = static_cast<size_t>(present[p]);
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
      interf_[p] = std::max(0.0, dot - prate_[p] * diag_[i]);
    }

    // Gather the present objects' cost queries, split by lookup table, and
    // price them.
    qb_[0].size = 0;
    qb_[1].size = 0;
    for (size_t p = 0; p < np; ++p) {
      const size_t i = static_cast<size_t>(present[p]);
      GatherQueries(p, i, prun_[p], interf_[p] / prate_[p] + diag_[i]);
    }
    PriceQueries(np, /*value=*/true, /*gradient=*/grad != nullptr);

    double mu_j = 0.0;
    for (size_t p = 0; p < np; ++p) {
      mu_j += pread_[p] * mc_read_[p] + pwrite_[p] * mc_write_[p];
    }
    if (grad != nullptr) Gradient(np, grad);
    for (size_t p = 0; p < np; ++p) {
      rate_[static_cast<size_t>(present[p])] = 0.0;
    }
    return mu_j;
  }

  /// grad[i] = ∂µ_j/∂L_ij for every object, from the present objects'
  /// priced partials (slots [0, np)) and the absent objects' limit prices.
  void Gradient(size_t np, double* grad) {
    const size_t un = diag_.size();
    const int32_t* present = present_.data();

    // χ-slopes and their rate-normalized cross-term coefficients.
    for (size_t p = 0; p < np; ++p) {
      const double slope =
          pread_[p] * dchi_read_[p] + pwrite_[p] * dchi_write_[p];
      slope_[p] = slope;
      ck_[p] = slope / prate_[p];
    }

    // Cross terms for every i at once: Σ_k c_k·O_k[i] is a transposed
    // overlap·c product; accumulating row-by-row keeps the inner loop
    // contiguous for dense rows (one fused multiply-add per element) and a
    // fixed-order scatter over sparse rows — k ascending, then row order,
    // so the accumulation order never depends on thread count. The same
    // sweep marks the objects something present interferes with (needed
    // for absent ones only): I_i > 0 exactly when some present k has
    // r_k·O_i[k] > 0, because the dot product is a sum of such
    // nonnegative terms.
    std::fill(cross_.begin(), cross_.end(), 0.0);
    std::fill(neighbor_.begin(), neighbor_.end(), 0);
    double* cross = cross_.data();
    char* neighbor = neighbor_.data();
    const int32_t* rev_row = reverse_->row.data();
    const double* rev_value = reverse_->value.data();
    const bool any_absent = np < un;
    for (size_t p = 0; p < np; ++p) {
      const size_t k = static_cast<size_t>(present[p]);
      if (any_absent) {
        const double r = prate_[p];
        for (size_t s = reverse_->begin[k]; s < reverse_->begin[k + 1]; ++s) {
          neighbor[rev_row[s]] |= r * rev_value[s] > 0.0 ? 1 : 0;
        }
      }
      const double c = ck_[p];
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

    // Absent objects: their member costs at the fraction → 0+ limit (the
    // rates vanish linearly, so ∂µ_ij/∂L_ij tends to λ^R·mcR + λ^W·mcW
    // priced at the limiting run count and contention factor,
    // BuildLimitPrices) plus the cross term. Written for every object; the
    // present ones are overwritten below.
    for (size_t i = 0; i < un; ++i) {
      const int clamped = neighbor[i];
      double g = read_rate_[i] * limit_read_[clamped][i] +
                 write_rate_[i] * limit_write_[clamped][i];
      g += total_rate_[i] * cross[i];
      grad[i] = g;
    }

    for (size_t p = 0; p < np; ++p) {
      const size_t i = static_cast<size_t>(present[p]);
      const double lam = total_rate_[i];
      double g = read_rate_[i] * grad_mc_read_[p] +
                 write_rate_[i] * grad_mc_write_[p];
      g += lam * (cross[i] - ck_[p] * diag_[i]);
      const double dq = model_->layout_model().TransformRunDerivative(
          (*workloads_)[i], frac_[p]);
      if (dq != 0.0) {
        g += (pread_[p] * drun_read_[p] + pwrite_[p] * drun_write_[p]) * dq;
      }
      g += slope_[p] * (-interf_[p] * lam / (prate_[p] * prate_[p]));
      grad[i] = g;
    }
  }

  const TargetModel* model_;
  const WorkloadSet* workloads_;
  const std::shared_ptr<const ReverseOverlap> reverse_;
  const int j_;

  // Per object: overlap diagonal, read, write and total rate.
  std::vector<double> diag_, read_rate_, write_rate_, total_rate_;
  std::vector<QueryTemplate> tmpl_;
  std::vector<size_t> tmpl_begin_;
  QueryBatch qb_[2];  // [0] read table, [1] write table
  // Absent-object member costs at the fraction → 0+ limit, indexed
  // [clamped χ][object]: [0] priced at χ = O_i[i] (nothing interferes),
  // [1] at kClampedChi.
  std::vector<double> limit_read_[2], limit_write_[2];

  // Scratch reused by every pass, sized N once. present_ lists a pass's
  // present objects; the arrays below are indexed by position in that list
  // (the limit-price build uses them per object): fraction, on-target rate,
  // read rate, write rate and run count, interference accumulator, χ-slope
  // and cross coefficient, member costs and their partials.
  std::vector<int32_t> present_;
  std::vector<double> frac_, prate_, pread_, pwrite_, prun_, interf_, slope_,
      ck_;
  std::vector<double> mc_read_, mc_write_, grad_mc_read_, grad_mc_write_;
  std::vector<double> drun_read_, drun_write_, dchi_read_, dchi_write_;
  // Indexed by object: the on-target rate (0 between passes), the cross
  // sums and the "something present interferes" bits of a gradient pass.
  std::vector<double> rate_, cross_;
  std::vector<char> neighbor_;
  int64_t queries_ = 0;
};

}  // namespace

std::function<std::unique_ptr<ColumnEvaluator>(int j)>
TargetModel::ColumnEvaluators(const WorkloadSet& workloads) const {
  auto reverse =
      std::make_shared<const ReverseOverlap>(BuildReverseOverlap(workloads));
  const WorkloadSet* ws = &workloads;
  return [this, ws, reverse](int j) -> std::unique_ptr<ColumnEvaluator> {
    LDB_CHECK_GE(j, 0);
    LDB_CHECK_LT(j, num_targets());
    return std::make_unique<TargetColumnContext>(this, ws, reverse, j);
  };
}

std::unique_ptr<ColumnEvaluator> TargetModel::MakeColumnEvaluator(
    const WorkloadSet& workloads, int j) const {
  return ColumnEvaluators(workloads)(j);
}

ReverseOverlap BuildReverseOverlap(const WorkloadSet& workloads) {
  const size_t n = workloads.size();
  // Visits (i, O_k[i]) for every nonzero off-diagonal entry of row k, in
  // ascending i.
  const auto for_each_neighbor = [&workloads](size_t k, auto&& visit) {
    const WorkloadDesc& wk = workloads[k];
    if (wk.has_sparse_overlap()) {
      for (size_t s = 0; s < wk.overlap_index.size(); ++s) {
        const size_t i = static_cast<size_t>(wk.overlap_index[s]);
        if (i != k && wk.overlap_value[s] != 0.0) {
          visit(i, wk.overlap_value[s]);
        }
      }
    } else {
      for (size_t i = 0; i < wk.overlap.size(); ++i) {
        if (i != k && wk.overlap[i] != 0.0) visit(i, wk.overlap[i]);
      }
    }
  };
  ReverseOverlap r;
  r.begin.assign(n + 1, 0);
  for (size_t k = 0; k < n; ++k) {
    for_each_neighbor(k, [&r](size_t i, double) { ++r.begin[i + 1]; });
  }
  for (size_t i = 0; i < n; ++i) r.begin[i + 1] += r.begin[i];
  r.row.resize(r.begin[n]);
  r.value.resize(r.begin[n]);
  std::vector<size_t> next(r.begin.begin(), r.begin.end() - 1);
  for (size_t k = 0; k < n; ++k) {
    for_each_neighbor(k, [&](size_t i, double o) {
      r.row[next[i]] = static_cast<int32_t>(k);
      r.value[next[i]++] = o;
    });
  }
  return r;
}

ColumnTerms::ColumnTerms(const TargetModel* model, const WorkloadSet* workloads,
                         const Layout& layout)
    : model_(model),
      workloads_(workloads),
      n_(workloads->size()),
      reverse_(BuildReverseOverlap(*workloads)) {
  LDB_CHECK_EQ(static_cast<size_t>(layout.num_objects()), n_);
  LDB_CHECK_EQ(layout.num_targets(), model_->num_targets());
  size_t widest = 0;
  for (size_t i = 0; i < n_; ++i) {
    widest = std::max(widest, reverse_.begin[i + 1] - reverse_.begin[i]);
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
  const int32_t* dep = reverse_.row.data();
  const size_t first = reverse_.begin[ui];
  const size_t last = reverse_.begin[ui + 1];
  if (undo) {
    undo_[0] = term[ui];
    for (size_t s = first; s < last; ++s) {
      undo_[1 + s - first] = term[static_cast<size_t>(dep[s])];
    }
  }
  term[ui] = model_->ObjectTerm(tgt, *workloads_, rate, i, f[ui]);
  for (size_t s = first; s < last; ++s) {
    const size_t k = static_cast<size_t>(dep[s]);
    term[k] = model_->ObjectTerm(tgt, *workloads_, rate, dep[s], f[k]);
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
  const size_t first = reverse_.begin[ui];
  for (size_t s = first; s < reverse_.begin[ui + 1]; ++s) {
    term_[col + static_cast<size_t>(reverse_.row[s])] = undo_[1 + s - first];
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
