#include "linalg/sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::linalg {

namespace {
/// A pivot candidate must satisfy |a| >= kPivotThreshold * max|column|.
constexpr double kPivotThreshold = 0.1;
/// Relative singularity floor (vs the largest entry in the matrix).
constexpr double kSingularityFloor = 1e-15;

struct SparseLuMetrics {
  util::telemetry::Counter factors =
      util::telemetry::GetCounter("linalg.sparse_lu.factors");
  util::telemetry::Counter refactors =
      util::telemetry::GetCounter("linalg.sparse_lu.refactors");
  util::telemetry::Counter refactor_fallbacks =
      util::telemetry::GetCounter("linalg.sparse_lu.refactor_fallbacks");
  util::telemetry::Timer refactor_wall =
      util::telemetry::GetTimer("linalg.sparse_lu.refactor_wall");
};
const SparseLuMetrics& Metrics() {
  static const SparseLuMetrics m;
  return m;
}
// Register at load time so snapshots list these metrics even when no
// sparse solve ran — the telemetry schema must not depend on code paths.
[[maybe_unused]] const SparseLuMetrics& kEagerRegistration = Metrics();

uint64_t NextPatternVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

SparseBuilder::SparseBuilder(size_t n)
    : n_(n), pattern_version_(NextPatternVersion()), rows_(n) {}

void SparseBuilder::Clear() {
  for (auto& row : rows_) row.clear();
  pattern_version_ = NextPatternVersion();
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
    pattern_version_ = NextPatternVersion();
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
  CMLDFT_RETURN_IF_ERROR(ChoosePivotOrder(builder));
  RecordPattern(builder);
  // The recorded pattern covers this builder and the kernel reproduces
  // the pivots the search accepted (same operations in the same order;
  // extra zero slots contribute only signed zeros), so this cannot fail
  // unless the search itself was wrong.
  if (!MapBuilder(builder) || !Eliminate(/*check_pivots=*/false)) {
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
      (max_entry > 0 ? max_entry : 1.0) * kSingularityFloor;

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
    // passing the threshold test; break ties toward larger magnitude, then
    // the lower row, then the lower column. The winner is the
    // (cost, -|a|, row, column) minimum, whatever order a row's hash map
    // iterates in. Rows are scanned in ascending order, so an exact tie
    // needs the column test only within one row.
    size_t best_r = n_, best_c = n_;
    size_t best_cost = static_cast<size_t>(-1);
    double best_mag = 0.0;
    for (size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      const size_t row_nnz = work[r].size();
      for (const auto& [c, v] : work[r]) {
        const double mag = std::fabs(v);
        if (mag <= floor_mag) continue;
        if (mag < kPivotThreshold * colmax[c]) continue;
        const size_t cost = (row_nnz - 1) * (col_rows[c].size() - 1);
        if (cost < best_cost ||
            (cost == best_cost &&
             (mag > best_mag ||
              (mag == best_mag && r == best_r && c < best_c)))) {
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
    // The multipliers are formed as the numeric kernel forms them, so the
    // kernel reproduces these pivots exactly.
    const double inv_pivot = 1.0 / work[r][c];
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
      const double m = it->second * inv_pivot;
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
  diag_.assign(n_, 0);
  col_.clear();
  updates_.clear();
  pairs_.clear();
  std::vector<size_t> seen(n_, 0);  // k + 1 once step s joined row k
  std::vector<uint32_t> pos_of_col(n_, 0);  // within the current row
  std::vector<size_t> heap;
  std::vector<size_t> upper;
  for (size_t k = 0; k < n_; ++k) {
    const size_t stamp = k + 1;
    heap.clear();
    upper.clear();
    auto visit = [&](size_t s) {
      if (seen[s] == stamp) return;
      seen[s] = stamp;
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
    const auto begin = static_cast<uint32_t>(col_.size());
    row_start_[k] = begin;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const size_t j = heap.back();
      heap.pop_back();
      col_.push_back(static_cast<uint32_t>(col_of_step_[j]));
      for (uint32_t q = diag_[j] + 1; q < row_start_[j + 1]; ++q) {
        visit(step_of_col_[col_[q]]);
      }
    }
    diag_[k] = static_cast<uint32_t>(col_.size());
    col_.push_back(static_cast<uint32_t>(col_of_step_[k]));
    std::sort(upper.begin(), upper.end());
    for (size_t s : upper) {
      col_.push_back(static_cast<uint32_t>(col_of_step_[s]));
    }
    const auto end = static_cast<uint32_t>(col_.size());
    row_start_[k + 1] = end;

    // Row k's update program. Every U column of an L entry's row is in
    // row k's pattern (that is what the fill above adds).
    for (uint32_t p = begin; p < end; ++p) pos_of_col[col_[p]] = p;
    for (uint32_t p = begin; p < diag_[k]; ++p) {
      const size_t j = step_of_col_[col_[p]];
      for (uint32_t q = diag_[j] + 1; q < row_start_[j + 1]; ++q) {
        pairs_.push_back({pos_of_col[col_[q]], q});
      }
      updates_.push_back({diag_[j], static_cast<uint32_t>(pairs_.size())});
    }
  }
  lu_.assign(col_.size(), 0.0);
}

bool SparseLu::MapBuilder(const SparseBuilder& builder) {
  constexpr uint32_t kNone = ~0u;
  gather_pattern_ = 0;
  gather_.clear();
  fill_.clear();
  std::vector<uint32_t> pos_of_col(n_, kNone);
  std::vector<char> covered(col_.size(), 0);
  for (size_t k = 0; k < n_; ++k) {
    for (uint32_t p = row_start_[k]; p < row_start_[k + 1]; ++p) {
      pos_of_col[col_[p]] = p;
    }
    for (const auto& [c, v] : builder.rows_[row_of_step_[k]]) {
      const uint32_t p = pos_of_col[c];
      if (p == kNone) return false;
      gather_.push_back({&v, p});
      covered[p] = 1;
    }
    for (uint32_t p = row_start_[k]; p < row_start_[k + 1]; ++p) {
      pos_of_col[col_[p]] = kNone;
    }
  }
  for (uint32_t p = 0; p < covered.size(); ++p) {
    if (!covered[p]) fill_.push_back(p);
  }
  gather_pattern_ = builder.pattern_version();
  return true;
}

bool SparseLu::Eliminate(bool check_pivots) {
  double* lu = lu_.data();
  double max_entry = 0.0;
  for (const Gather& g : gather_) {
    const double v = *g.value;
    lu[g.pos] = v;
    max_entry = std::max(max_entry, std::fabs(v));
  }
  for (uint32_t p : fill_) lu[p] = 0.0;
  const double floor_mag =
      (max_entry > 0 ? max_entry : 1.0) * kSingularityFloor;

  const Update* update = updates_.data();
  const Pair* pairs = pairs_.data();
  uint32_t q = 0;  // the next pair
  for (size_t k = 0; k < n_; ++k) {
    const uint32_t diag = diag_[k];
    // Apply the earlier pivot rows in step order.
    for (uint32_t p = row_start_[k]; p < diag; ++p, ++update) {
      const double m = lu[p] * lu[update->pivot];
      lu[p] = m;
      const uint32_t end = update->pairs_end;
      if (m != 0.0) {
        for (; q < end; ++q) lu[pairs[q].dst] -= m * lu[pairs[q].src];
      }
      q = end;
    }
    const double pivot = lu[diag];
    if (pivot == 0.0) return false;
    if (check_pivots) {
      // Stability guard: the stored pivot choice must still be acceptable.
      // Tiny relative to its own row means the old order now amplifies
      // roundoff — redo the full pivot search instead of producing garbage.
      double row_max = std::fabs(pivot);
      for (uint32_t p = diag + 1; p < row_start_[k + 1]; ++p) {
        row_max = std::max(row_max, std::fabs(lu[p]));
      }
      if (std::fabs(pivot) <= floor_mag || std::fabs(pivot) < 1e-6 * row_max) {
        return false;
      }
    }
    lu[diag] = 1.0 / pivot;
  }
  return true;
}

util::Status SparseLu::Refactor(const SparseBuilder& builder) {
  util::telemetry::ScopedTimer wall(Metrics().refactor_wall);
  if (!factored_ || builder.dimension() != n_ || n_ == 0) {
    return Factor(builder);
  }
  factored_ = false;
  if ((builder.pattern_version() != gather_pattern_ &&
       !MapBuilder(builder)) ||
      !Eliminate(/*check_pivots=*/true)) {
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
  const double* lu = lu_.data();
  for (size_t k = 0; k < n_; ++k) {
    double acc = b[row_of_step_[k]];
    for (uint32_t p = row_start_[k]; p < diag_[k]; ++p) {
      acc -= lu[p] * y[col_[p]];
    }
    y[col_of_step_[k]] = acc;
  }
  for (size_t k = n_; k-- > 0;) {
    double acc = y[col_of_step_[k]];
    for (uint32_t p = diag_[k] + 1; p < row_start_[k + 1]; ++p) {
      acc -= lu[p] * y[col_[p]];
    }
    y[col_of_step_[k]] = acc * lu[diag_[k]];
  }
  return util::Status::Ok();
}

}  // namespace cmldft::linalg
