#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::linalg {

namespace {
struct SparseLuMetrics {
  util::telemetry::Counter factors =
      util::telemetry::GetCounter("linalg.sparse_lu.factors");
  util::telemetry::Counter refactors =
      util::telemetry::GetCounter("linalg.sparse_lu.refactors");
  util::telemetry::Counter refactor_fallbacks =
      util::telemetry::GetCounter("linalg.sparse_lu.refactor_fallbacks");
};
const SparseLuMetrics& Metrics() {
  static const SparseLuMetrics m;
  return m;
}
// Register at load time so snapshots list these metrics even when no
// sparse solve ran — the telemetry schema must not depend on code paths.
[[maybe_unused]] const SparseLuMetrics& kEagerRegistration = Metrics();
}  // namespace

SparseBuilder::SparseBuilder(size_t n) : n_(n), rows_(n) {}

void SparseBuilder::Clear() {
  for (auto& row : rows_) row.clear();
  ++pattern_version_;
}

void SparseBuilder::Add(size_t row, size_t col, double value) {
  assert(row < n_ && col < n_);
  auto& r = rows_[row];
  // Keep the row sorted by column; rows are tiny so linear search wins.
  auto it = std::lower_bound(
      r.begin(), r.end(), col,
      [](const std::pair<size_t, double>& e, size_t c) { return e.first < c; });
  if (it != r.end() && it->first == col) {
    it->second += value;
  } else {
    r.insert(it, {col, value});
    ++pattern_version_;
  }
}

double* SparseBuilder::SlotPointer(size_t row, size_t col) {
  assert(row < n_ && col < n_);
  auto& r = rows_[row];
  auto it = std::lower_bound(
      r.begin(), r.end(), col,
      [](const std::pair<size_t, double>& e, size_t c) { return e.first < c; });
  if (it == r.end() || it->first != col) return nullptr;
  return &it->second;
}

void SparseBuilder::ZeroValues() {
  for (auto& row : rows_) {
    for (auto& entry : row) entry.second = 0.0;
  }
}

size_t SparseBuilder::num_entries() const {
  size_t total = 0;
  for (const auto& row : rows_) total += row.size();
  return total;
}

Matrix SparseBuilder::ToDense() const {
  Matrix m(n_, n_);
  ForEach([&](size_t r, size_t c, double v) { m(r, c) += v; });
  return m;
}

util::Status SparseLu::Factor(const SparseBuilder& builder) {
  Metrics().factors.Increment();
  factored_ = false;
  n_ = builder.dimension();
  row_of_step_.assign(n_, 0);
  col_of_step_.assign(n_, 0);
  step_of_col_.assign(n_, 0);
  pivots_.assign(n_, 0.0);
  CMLDFT_RETURN_IF_ERROR(ChoosePivotOrder(builder));
  RecordPattern(builder);
  // The recorded pattern covers this builder and the kernel reproduces
  // the pivots the search accepted (same operations in the same order;
  // extra zero slots contribute only signed zeros), so this cannot fail
  // unless the search itself was wrong.
  if (!Eliminate(builder, /*check_pivots=*/false)) {
    return util::Status::Internal("sparse LU: recorded pattern rejected");
  }
  factored_ = true;
  return util::Status::Ok();
}

util::Status SparseLu::ChoosePivotOrder(const SparseBuilder& builder) {
  // Working matrix: per-row hash maps; per-column active-row sets.
  std::vector<std::unordered_map<size_t, double>> work(n_);
  std::vector<std::unordered_set<size_t>> col_rows(n_);
  double max_entry = 0.0;
  builder.ForEach([&](size_t r, size_t c, double v) {
    if (v == 0.0) return;
    work[r][c] = v;
    col_rows[c].insert(r);
    max_entry = std::max(max_entry, std::fabs(v));
  });
  const double floor_mag =
      (max_entry > 0 ? max_entry : 1.0) * options_.singularity_floor;

  std::vector<char> row_active(n_, 1);
  std::vector<double> colmax(n_);
  std::vector<size_t> targets;

  for (size_t k = 0; k < n_; ++k) {
    // Column maxima over active rows (for the pivot threshold).
    // Computed per step from the active entry set: O(nnz).
    std::fill(colmax.begin(), colmax.end(), 0.0);
    for (size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      for (const auto& [c, v] : work[r]) {
        colmax[c] = std::max(colmax[c], std::fabs(v));
      }
    }
    // Markowitz selection: minimize (row_nnz-1)*(col_nnz-1) among entries
    // passing the threshold test; break ties toward larger magnitude.
    size_t best_r = n_, best_c = n_;
    size_t best_cost = static_cast<size_t>(-1);
    double best_mag = 0.0;
    for (size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      const size_t row_nnz = work[r].size();
      for (const auto& [c, v] : work[r]) {
        const double mag = std::fabs(v);
        if (mag <= floor_mag) continue;
        if (mag < options_.pivot_threshold * colmax[c]) continue;
        const size_t cost = (row_nnz - 1) * (col_rows[c].size() - 1);
        if (cost < best_cost || (cost == best_cost && mag > best_mag)) {
          best_cost = cost;
          best_mag = mag;
          best_r = r;
          best_c = c;
        }
      }
    }
    if (best_r == n_) {
      return util::Status::SingularMatrix(util::StrPrintf(
          "sparse LU: no acceptable pivot at step %zu (floor %.3e)", k,
          floor_mag));
    }

    const size_t r = best_r, c = best_c;
    const double pivot = work[r][c];
    row_of_step_[k] = r;
    col_of_step_[k] = c;
    step_of_col_[c] = k;

    // Eliminate the pivot column from all remaining active rows; the
    // search for the next pivot needs the updated values.
    targets.assign(col_rows[c].begin(), col_rows[c].end());
    std::sort(targets.begin(), targets.end());  // deterministic
    for (size_t i : targets) {
      if (i == r || !row_active[i]) continue;
      auto it = work[i].find(c);
      if (it == work[i].end()) continue;
      const double m = it->second / pivot;
      work[i].erase(it);
      if (m == 0.0) continue;
      for (const auto& [cc, vv] : work[r]) {
        if (cc == c) continue;
        auto [fit, inserted] = work[i].try_emplace(cc, 0.0);
        fit->second -= m * vv;
        if (inserted) col_rows[cc].insert(i);
      }
    }

    // Retire the pivot row and column.
    for (const auto& [cc, vv] : work[r]) {
      (void)vv;
      col_rows[cc].erase(r);
    }
    work[r].clear();
    col_rows[c].clear();
    row_active[r] = 0;
  }
  return util::Status::Ok();
}

void SparseLu::RecordPattern(const SparseBuilder& builder) {
  // Row by row in elimination order: row k's pattern is its builder
  // slots plus the fill its L entries bring in, and an L entry at step j
  // brings in the U pattern of row j. A min-heap yields the L steps in
  // ascending order while fill keeps adding later ones.
  row_start_.assign(n_ + 1, 0);
  upper_start_.assign(n_, 0);
  col_.clear();
  mark_.assign(n_, 0);  // by step here: k + 1 once step s joined row k
  std::vector<size_t> heap;
  std::vector<size_t> upper;
  for (size_t k = 0; k < n_; ++k) {
    const size_t stamp = k + 1;
    heap.clear();
    upper.clear();
    auto visit = [&](size_t s) {
      if (mark_[s] == stamp) return;
      mark_[s] = stamp;
      if (s < k) {
        heap.push_back(s);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      } else if (s > k) {
        upper.push_back(s);
      }
    };
    for (const auto& [c, v] : builder.rows_[row_of_step_[k]]) {
      visit(step_of_col_[c]);
    }
    row_start_[k] = static_cast<uint32_t>(col_.size());
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const size_t j = heap.back();
      heap.pop_back();
      col_.push_back(static_cast<uint32_t>(col_of_step_[j]));
      for (uint32_t q = upper_start_[j]; q < row_start_[j + 1]; ++q) {
        visit(step_of_col_[col_[q]]);
      }
    }
    upper_start_[k] = static_cast<uint32_t>(col_.size());
    std::sort(upper.begin(), upper.end());
    for (size_t s : upper) {
      col_.push_back(static_cast<uint32_t>(col_of_step_[s]));
    }
  }
  row_start_[n_] = static_cast<uint32_t>(col_.size());
  val_.assign(col_.size(), 0.0);
  work_.assign(n_, 0.0);
  mark_.assign(n_, 0);  // by column from here on (see Eliminate)
}

bool SparseLu::Eliminate(const SparseBuilder& builder, bool check_pivots) {
  double floor_mag = 0.0;
  if (check_pivots) {
    double max_entry = 0.0;
    for (const auto& row : builder.rows_) {
      for (const auto& [c, v] : row) {
        max_entry = std::max(max_entry, std::fabs(v));
      }
    }
    floor_mag = (max_entry > 0 ? max_entry : 1.0) * options_.singularity_floor;
  }
  double* w = work_.data();
  for (size_t k = 0; k < n_; ++k) {
    // Load row k into the dense work row over its recorded pattern. A
    // column is marked k + 1 while it is in row k's pattern; marks left by
    // earlier calls come from the same pattern, so a slot whose column is
    // unmarked lies outside it.
    const size_t stamp = k + 1;
    const uint32_t begin = row_start_[k];
    const uint32_t upper = upper_start_[k];
    const uint32_t end = row_start_[k + 1];
    const size_t pivot_col = col_of_step_[k];
    for (uint32_t p = begin; p < end; ++p) {
      w[col_[p]] = 0.0;
      mark_[col_[p]] = stamp;
    }
    w[pivot_col] = 0.0;
    mark_[pivot_col] = stamp;
    for (const auto& [c, v] : builder.rows_[row_of_step_[k]]) {
      if (mark_[c] != stamp) return false;
      w[c] = v;
    }
    // Apply the earlier pivot rows in step order (each entry sees the
    // same updates, in the same order, as right-looking elimination).
    for (uint32_t p = begin; p < upper; ++p) {
      const size_t j = step_of_col_[col_[p]];
      const double m = w[col_[p]] / pivots_[j];
      val_[p] = m;
      if (m == 0.0) continue;
      for (uint32_t q = upper_start_[j]; q < row_start_[j + 1]; ++q) {
        w[col_[q]] -= m * val_[q];
      }
    }
    const double pivot = w[pivot_col];
    if (pivot == 0.0) return false;
    if (check_pivots) {
      // Stability guard: the stored pivot choice must still be acceptable.
      // Tiny relative to its own row means the old order now amplifies
      // roundoff — redo the full pivot search instead of producing garbage.
      double row_max = std::fabs(pivot);
      for (uint32_t p = upper; p < end; ++p) {
        row_max = std::max(row_max, std::fabs(w[col_[p]]));
      }
      if (std::fabs(pivot) <= floor_mag || std::fabs(pivot) < 1e-6 * row_max) {
        return false;
      }
    }
    pivots_[k] = pivot;
    for (uint32_t p = upper; p < end; ++p) val_[p] = w[col_[p]];
  }
  return true;
}

util::Status SparseLu::Refactor(const SparseBuilder& builder) {
  if (!factored_ || builder.dimension() != n_ || n_ == 0) {
    return Factor(builder);
  }
  factored_ = false;
  if (!Eliminate(builder, /*check_pivots=*/true)) {
    Metrics().refactor_fallbacks.Increment();
    return Factor(builder);
  }
  factored_ = true;
  Metrics().refactors.Increment();
  return util::Status::Ok();
}

util::StatusOr<Vector> SparseLu::Solve(const Vector& b) const {
  Vector x;
  CMLDFT_RETURN_IF_ERROR(SolveInto(b, &x));
  return x;
}

// Both solves run in original column space: the forward pass writes step
// k's intermediate into x[col_of_step_[k]], which the backward pass then
// overwrites with the unknown itself, so no second buffer is needed.
util::Status SparseLu::SolveInto(const Vector& b, Vector* x) const {
  if (!factored_) {
    return util::Status::FailedPrecondition("Solve called before Factor");
  }
  if (b.size() != n_) {
    return util::Status::InvalidArgument("rhs dimension mismatch");
  }
  x->resize(n_);
  double* y = x->data();
  for (size_t k = 0; k < n_; ++k) {
    double acc = b[row_of_step_[k]];
    for (uint32_t p = row_start_[k]; p < upper_start_[k]; ++p) {
      acc -= val_[p] * y[col_[p]];
    }
    y[col_of_step_[k]] = acc;
  }
  for (size_t k = n_; k-- > 0;) {
    double acc = y[col_of_step_[k]];
    for (uint32_t p = upper_start_[k]; p < row_start_[k + 1]; ++p) {
      acc -= val_[p] * y[col_[p]];
    }
    y[col_of_step_[k]] = acc / pivots_[k];
  }
  return util::Status::Ok();
}

}  // namespace cmldft::linalg
