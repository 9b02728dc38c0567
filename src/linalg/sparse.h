// Sparse LU factorization for MNA systems.
//
// Design: Markowitz-cost pivot selection under a relative magnitude
// threshold (partial threshold pivoting, in the spirit of Sparse 1.3 /
// SPICE) chooses the elimination order once; the order, the filled L/U
// pattern it implies and the elimination itself are then compiled into
// flat arrays — a gather map from builder slots to factor positions and
// an update program of (destination, source) position pairs — and every
// numeric factorization, the first one and each later Refactor(), replays
// that program. This is the symbolic / numeric split of CSparse (`css` /
// `csn`): MNA Jacobians keep their pattern across Newton iterations and
// timepoints, so the steady-state refactor is pure arithmetic, with no
// index search, no hash lookup and no allocation, and one division per
// row (the factors keep reciprocal pivots). MNA matrices are structurally
// symmetric and very sparse (~4 entries per row), so fill-in stays tiny
// and solves run in near-linear time. This is the linear solver of every
// flat Newton iteration, at every size (the dense LuFactorization serves
// AC and the hierarchical solver).
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
  // A copy would share the pattern id while its slots live elsewhere: a
  // SparseLu keyed on the id would gather from the original's slots.
  SparseBuilder(const SparseBuilder&) = delete;
  SparseBuilder& operator=(const SparseBuilder&) = delete;
  SparseBuilder(SparseBuilder&&) = default;
  SparseBuilder& operator=(SparseBuilder&&) = default;

  size_t dimension() const { return n_; }
  void Clear();
  void Add(size_t row, size_t col, double value);
  /// Set every stored value to 0 and keep the pattern: the next assembly
  /// re-adds into the same slots, so pattern_version() and SlotPointer()
  /// targets stay valid.
  void ZeroValues();

  /// Number of stored (structurally nonzero) entries.
  size_t num_entries() const;

  /// Identifies the *structure* (which (row, col) slots exist, and where
  /// their values live): never 0, and unique across every builder of the
  /// process, so no two builders — not even one built where a destroyed
  /// one stood — share a value. Drawn afresh by construction, Clear() and
  /// any Add() that inserts a new slot; value accumulation leaves it
  /// unchanged. Compiled assembly plans and SparseLu's gather map cache
  /// raw value pointers and use this to detect that their pattern is stale.
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
  uint64_t pattern_version_;
  // Per-row sorted maps keep iteration deterministic; rows are tiny.
  std::vector<std::vector<std::pair<size_t, double>>> rows_;
};

/// Sparse LU with Markowitz pivoting under a magnitude threshold.
class SparseLu {
 public:
  /// Factor the system in `builder`: a Markowitz search over the nonzero
  /// entries chooses the pivot order, then the filled pattern of that
  /// order is recorded over *every* builder slot — including slots whose
  /// value is exactly 0 now, which later value sets may fill in — together
  /// with the update program of its elimination, and the factors are
  /// computed by the same numeric kernel Refactor() runs.
  util::Status Factor(const SparseBuilder& builder);

  /// Numeric-only refactorization: replay the elimination recorded by the
  /// last successful Factor() for new values. No index search, no
  /// allocation. A builder whose structure changed since the last call
  /// (a new pattern_version()) is first mapped onto the recorded pattern
  /// afresh. Falls back to a full Factor() when there is no prior
  /// factorization, the dimension changed, a builder slot lies outside the
  /// recorded pattern (fill included), or a reused pivot has become
  /// numerically unacceptable (below the singularity floor, or tiny
  /// relative to its row). The last two cases count in
  /// linalg.sparse_lu.refactor_fallbacks; linalg.sparse_lu.refactor_wall
  /// times every call, fallbacks included.
  util::Status Refactor(const SparseBuilder& builder);

  /// Solve A x = b with the stored factors.
  util::StatusOr<Vector> Solve(const Vector& b) const;

  /// Solve() into caller storage: `x` is resized to the dimension and,
  /// once it has the capacity, never reallocated. `x` must not alias `b`.
  util::Status SolveInto(const Vector& b, Vector* x) const;

  bool factored() const { return factored_; }
  /// Nonzeros in L+U after fill-in, pivots included (diagnostics).
  size_t factor_nonzeros() const { return col_.size(); }

 private:
  /// Markowitz search with threshold pivoting over the nonzero entries;
  /// fills row_of_step_ / col_of_step_ / step_of_col_.
  util::Status ChoosePivotOrder(const SparseBuilder& builder);
  /// Record the filled L/U pattern of the chosen order over every slot,
  /// and the update program that eliminates it.
  void RecordPattern(const SparseBuilder& builder);
  /// Point the gather map at `builder`'s slots. False when a slot lies
  /// outside the recorded pattern.
  bool MapBuilder(const SparseBuilder& builder);
  /// The numeric kernel: gather the mapped builder's values, then run the
  /// update program. False when a pivot is 0 or, with `check_pivots`,
  /// unacceptable; the factors are then unusable.
  bool Eliminate(bool check_pivots);

  // One L entry's row update: multiply it by the reciprocal pivot at
  // position `pivot`, then subtract the product times each source of
  // pairs_ up to `pairs_end` from its destination.
  struct Update {
    uint32_t pivot;
    uint32_t pairs_end;
  };
  struct Pair {
    uint32_t dst;
    uint32_t src;
  };
  // Where one builder slot's value goes.
  struct Gather {
    const double* value;
    uint32_t pos;
  };

  size_t n_ = 0;
  bool factored_ = false;
  // Factor row k (the original row eliminated at step k) occupies
  // positions [row_start_[k], row_start_[k + 1]) of lu_ and col_: first
  // its L multipliers, in ascending step order, then its pivot at
  // diag_[k], then its U entries. col_ holds original column indices.
  // Once row k is eliminated, lu_[diag_[k]] holds the pivot's reciprocal.
  std::vector<uint32_t> row_start_;
  std::vector<uint32_t> diag_;
  std::vector<uint32_t> col_;
  std::vector<double> lu_;
  // The update program: one Update per L entry, in position order (so in
  // elimination order), its pairs following row j's U entries left to
  // right — each factor entry sees the updates of right-looking
  // elimination, in the same order.
  std::vector<Update> updates_;
  std::vector<Pair> pairs_;
  // The gather map of the builder whose pattern_version() is
  // gather_pattern_ (0: none), and the fill positions no slot covers.
  std::vector<Gather> gather_;
  std::vector<uint32_t> fill_;
  uint64_t gather_pattern_ = 0;
  std::vector<size_t> row_of_step_;  // original row eliminated at step k
  std::vector<size_t> col_of_step_;  // original col chosen as pivot at k
  std::vector<size_t> step_of_col_;  // inverse of col_of_step_
};

}  // namespace cmldft::linalg
