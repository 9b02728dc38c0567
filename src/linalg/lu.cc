#include "linalg/lu.h"

#include <cmath>

#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::linalg {

namespace {
const util::telemetry::Counter& DenseFactorCounter() {
  static const util::telemetry::Counter c =
      util::telemetry::GetCounter("linalg.dense_lu.factors");
  return c;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const util::telemetry::Counter& kEagerRegistration = DenseFactorCounter();
}  // namespace

template <typename T>
util::Status LuFactorizationT<T>::Factor(const MatrixT<T>& a) {
  DenseFactorCounter().Increment();
  factored_ = false;
  if (a.rows() != a.cols()) {
    return util::Status::InvalidArgument("LU requires a square matrix");
  }
  const size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  for (size_t i = 0; i < n; ++i) perm_[i] = i;

  // Relative singularity threshold anchored to the largest entry.
  const double max_entry = lu_.MaxAbs();
  const double tiny = (max_entry > 0 ? max_entry : 1.0) * 1e-15;

  for (size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |entry| in column k at/below row k.
    size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= tiny) {
      return util::Status::SingularMatrix(
          util::StrPrintf("pivot %zu magnitude %.3e below threshold %.3e", k,
                          pivot_mag, tiny));
    }
    if (pivot_row != k) {
      for (size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const T pivot = lu_(k, k);
    for (size_t r = k + 1; r < n; ++r) {
      const T mult = lu_(r, k) / pivot;
      lu_(r, k) = mult;
      if (mult == T{}) continue;
      for (size_t c = k + 1; c < n; ++c) lu_(r, c) -= mult * lu_(k, c);
    }
  }
  factored_ = true;
  return util::Status::Ok();
}

template <typename T>
util::StatusOr<std::vector<T>> LuFactorizationT<T>::Solve(
    const std::vector<T>& b) const {
  std::vector<T> x;
  CMLDFT_RETURN_IF_ERROR(SolveInto(b, &x));
  return x;
}

template <typename T>
util::Status LuFactorizationT<T>::SolveInto(const std::vector<T>& b,
                                            std::vector<T>* out) const {
  if (!factored_) {
    return util::Status::FailedPrecondition("Solve called before Factor");
  }
  const size_t n = lu_.rows();
  if (b.size() != n) {
    return util::Status::InvalidArgument("rhs dimension mismatch");
  }
  // Apply permutation, then forward/back substitution.
  std::vector<T>& x = *out;
  x.resize(n);
  for (size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (size_t i = 1; i < n; ++i) {
    T acc = x[i];
    for (size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  for (size_t i = n; i-- > 0;) {
    T acc = x[i];
    for (size_t j = i + 1; j < n; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc / lu_(i, i);
  }
  return util::Status::Ok();
}

template class LuFactorizationT<double>;
template class LuFactorizationT<std::complex<double>>;

util::StatusOr<Vector> SolveDense(const Matrix& a, const Vector& b) {
  LuFactorization lu;
  CMLDFT_RETURN_IF_ERROR(lu.Factor(a));
  return lu.Solve(b);
}

util::StatusOr<CVector> SolveDense(const CMatrix& a, const CVector& b) {
  CluFactorization lu;
  CMLDFT_RETURN_IF_ERROR(lu.Factor(a));
  return lu.Solve(b);
}

}  // namespace cmldft::linalg
