// Dense LU factorization with partial pivoting, plus solve and iterative
// refinement. This is the linear kernel under every Newton iteration of
// the circuit simulator (real scalars) and under each AC frequency point
// (complex scalars): factor once, solve many right-hand sides.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace cmldft::linalg {

/// LU factorization P*A = L*U with partial (row) pivoting on |entry|.
/// Factor() reports SingularMatrix when a pivot falls below a relative
/// threshold; the MNA layer reacts by adding gmin and retrying.
template <typename T>
class LuFactorizationT {
 public:
  /// Factor `a` in place (a copy is stored). O(n^3).
  util::Status Factor(const MatrixT<T>& a);

  /// Solve A x = b using the stored factors. O(n^2).
  util::StatusOr<std::vector<T>> Solve(const std::vector<T>& b) const;

  /// Solve() into caller storage: `x` is resized to the dimension and,
  /// once it has the capacity, never reallocated. `x` must not alias `b`.
  util::Status SolveInto(const std::vector<T>& b, std::vector<T>* x) const;

  /// Iterative refinement against the original matrix. Cheap insurance for
  /// ill-conditioned MNA systems.
  util::StatusOr<std::vector<T>> SolveRefined(const MatrixT<T>& original,
                                              const std::vector<T>& b,
                                              int refine_steps = 1) const;

  bool factored() const { return factored_; }
  size_t dimension() const { return lu_.rows(); }

  /// log|det(A)| via the product of pivot magnitudes (log-domain safe).
  double LogAbsDeterminant() const;

 private:
  MatrixT<T> lu_;             // packed L (unit diag, below) and U (on/above)
  std::vector<size_t> perm_;  // row permutation
  bool factored_ = false;
};

using LuFactorization = LuFactorizationT<double>;
using CluFactorization = LuFactorizationT<std::complex<double>>;

extern template class LuFactorizationT<double>;
extern template class LuFactorizationT<std::complex<double>>;

/// One-shot convenience: factor + solve.
util::StatusOr<Vector> SolveDense(const Matrix& a, const Vector& b);
util::StatusOr<CVector> SolveDense(const CMatrix& a, const CVector& b);

}  // namespace cmldft::linalg
