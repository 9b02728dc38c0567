// Sparse LU factorization for MNA systems.
//
// Design: Markowitz-cost pivot selection under a relative magnitude
// threshold (partial threshold pivoting, in the spirit of Sparse 1.3 /
// SPICE) chooses the elimination order once; the order and the filled
// L/U pattern it implies are then recorded in flat arrays, and every
// numeric factorization — the first one and each later Refactor() —
// replays the elimination over those arrays. This is the symbolic /
// numeric split of CSparse (`css` / `csn`): MNA Jacobians keep their
// pattern across Newton iterations and timepoints, so the steady-state
// refactor is pure arithmetic, with no hash lookups and no allocation.
// MNA matrices are structurally symmetric and very sparse (~4 entries per
// row), so fill-in stays tiny and solves run in near-linear time — the
// dense kernel's O(n^3) only wins below ~30 unknowns.
//
// Usage mirrors the dense LuFactorization: Factor() once, Refactor() per
// Newton iteration, Solve() per right-hand side. The triplet builder
// accumulates duplicate entries (stamps just add).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace cmldft::linalg {

/// Coordinate-format accumulator for assembling sparse systems. Duplicate
/// (row, col) insertions add. Deterministic iteration order.
class SparseBuilder {
 public:
  explicit SparseBuilder(size_t n);

  size_t dimension() const { return n_; }
  void Clear();
  void Add(size_t row, size_t col, double value);
  /// Set every stored value to 0 and keep the pattern: the next assembly
  /// re-adds into the same slots, so pattern_version() and SlotPointer()
  /// targets stay valid.
  void ZeroValues();

  /// Number of stored (structurally nonzero) entries.
  size_t num_entries() const;

  /// Monotonic stamp of the *structure* (which (row, col) slots exist).
  /// Bumped by Clear() and by any Add() that inserts a new slot; value
  /// accumulation leaves it unchanged. Compiled assembly plans cache raw
  /// value pointers and use this to detect that their pattern is stale.
  uint64_t pattern_version() const { return pattern_version_; }

  /// Stable pointer to the value of slot (row, col), or nullptr when the
  /// slot is not part of the current pattern. Never inserts. The pointer
  /// stays valid until the next structural change (see pattern_version()).
  double* SlotPointer(size_t row, size_t col);

  /// Densify (for testing / small systems).
  Matrix ToDense() const;

  /// Visit entries in deterministic (row, col) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t r = 0; r < n_; ++r) {
      for (const auto& [c, v] : rows_[r]) fn(r, c, v);
    }
  }

 private:
  friend class SparseLu;
  size_t n_;
  uint64_t pattern_version_ = 0;
  // Per-row sorted maps keep iteration deterministic; rows are tiny.
  std::vector<std::vector<std::pair<size_t, double>>> rows_;
};

/// Sparse LU with Markowitz pivoting under a magnitude threshold.
class SparseLu {
 public:
  /// Factor the system in `builder`: a Markowitz search over the nonzero
  /// entries chooses the pivot order, then the filled pattern of that
  /// order is recorded over *every* builder slot — including slots whose
  /// value is exactly 0 now, which later value sets may fill in — and the
  /// factors are computed by the same numeric kernel Refactor() runs.
  util::Status Factor(const SparseBuilder& builder);

  /// Numeric-only refactorization: replay the elimination recorded by the
  /// last successful Factor() for new values. No hash lookups, no
  /// allocation. Falls back to a full Factor() when there is no prior
  /// factorization, the dimension changed, a builder slot lies outside
  /// the recorded pattern, or a reused pivot has become numerically
  /// unacceptable (below the singularity floor, or tiny relative to its
  /// row). The last two cases count in linalg.sparse_lu.refactor_fallbacks.
  util::Status Refactor(const SparseBuilder& builder);

  /// Solve A x = b with the stored factors.
  util::StatusOr<Vector> Solve(const Vector& b) const;

  /// Solve() into caller storage: `x` is resized to the dimension and,
  /// once it has the capacity, never reallocated. `x` must not alias `b`.
  util::Status SolveInto(const Vector& b, Vector* x) const;

  bool factored() const { return factored_; }
  /// Nonzeros in L+U after fill-in (diagnostics).
  size_t factor_nonzeros() const { return n_ + col_.size(); }

 private:
  /// Markowitz search with threshold pivoting over the nonzero entries;
  /// fills row_of_step_ / col_of_step_ / step_of_col_.
  util::Status ChoosePivotOrder(const SparseBuilder& builder);
  /// Record the filled L/U pattern of the chosen order over every slot.
  void RecordPattern(const SparseBuilder& builder);
  /// The numeric elimination over the recorded pattern. False when a
  /// builder slot lies outside the pattern or, with `check_pivots`, a
  /// pivot is unacceptable; the factors are then unusable.
  bool Eliminate(const SparseBuilder& builder, bool check_pivots);

  size_t n_ = 0;
  bool factored_ = false;
  // Factor row k (the original row eliminated at step k) occupies
  // [row_start_[k], row_start_[k + 1]) of col_ / val_: first its L
  // multipliers, in ascending step order, then from upper_start_[k] its U
  // entries. col_ holds original column indices; the pivot is pivots_[k].
  std::vector<uint32_t> row_start_;
  std::vector<uint32_t> upper_start_;
  std::vector<uint32_t> col_;
  std::vector<double> val_;
  std::vector<double> pivots_;
  std::vector<size_t> row_of_step_;  // original row eliminated at step k
  std::vector<size_t> col_of_step_;  // original col chosen as pivot at k
  std::vector<size_t> step_of_col_;  // inverse of col_of_step_
  // Elimination scratch, indexed by original column and sized by Factor().
  std::vector<double> work_;
  std::vector<size_t> mark_;  // last row (step + 1) whose pattern holds col
};

}  // namespace cmldft::linalg
