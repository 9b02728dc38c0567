// Bordered-block-diagonal elimination kernel: the per-cell factor/Schur
// step under the hierarchical MNA solver (sim/hier.h). One repeated CML
// cell contributes a dense internal block A_II (ni x ni), its couplings
// to the shared interconnect border A_IB / A_BI (ni x nb / nb x ni), and
// a local border-border block. BbdBlockFactors eliminates the internals:
//
//   factor:   LU(A_II),  W = A_II^{-1} A_IB,  S = A_BI W
//   reduce:   y = A_II^{-1} b_I,              c = A_BI y
//   border:   (A_BB - sum_k S_k) x_B = b_B - sum_k c_k   (solved upstream)
//   back:     x_I = y - W x_B_local
//
// This is the same linear system as the flat solve in a different
// elimination order, so results are tolerance-equivalent (not bitwise)
// to flat dense/sparse — gated exactly like dense==sparse today. A
// factored block depends only on (A_II, A_IB, A_BI), which is what lets
// same-type cells with matching internal operating points share one
// factorization (sim/hier.h's signature cache).
#pragma once

#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace cmldft::linalg {

class BbdBlockFactors {
 public:
  /// Factor the internal block and form the Schur pieces. `a_ii` is
  /// ni x ni, `a_ib` ni x nb, `a_bi` nb x ni. SingularMatrix when the
  /// internal block has no stable pivot (the caller falls back to flat).
  /// Works in this object's storage: refactoring a block of the same
  /// shape allocates nothing.
  util::Status Factor(const Matrix& a_ii, const Matrix& a_ib,
                      const Matrix& a_bi);

  /// y = A_II^{-1} b_I and the border rhs contribution c = A_BI y, into
  /// caller storage (resized; no allocation once it has the capacity).
  util::Status ReduceRhs(const Vector& b_i, Vector* y, Vector* c) const;

  /// x_I = y - W x_B_local, where x_B_local holds the solved border
  /// values at this cell's touched border columns (a_ib's column order).
  void BackSubstitute(const Vector& y, const Vector& x_b_local,
                      Vector* x_i) const;

  /// S = A_BI W, nb x nb in the cell's touched-border column order; the
  /// border assembly subtracts it from the cell's local A_BB block.
  const Matrix& schur() const { return schur_; }

  size_t ni() const { return w_.rows(); }
  size_t nb() const { return w_.cols(); }
  bool factored() const { return lu_.factored(); }

 private:
  LuFactorization lu_;  // LU(A_II)
  Matrix w_;            // ni x nb
  Matrix schur_;        // nb x nb
  Matrix a_bi_;         // nb x ni (kept for ReduceRhs)
  Vector column_;       // Factor scratch: one column of A_IB ...
  Vector solved_;       // ... and A_II^{-1} times it
};

}  // namespace cmldft::linalg
