#include "linalg/bbd.h"

#include <cassert>

#include "util/status.h"

namespace cmldft::linalg {

util::Status BbdBlockFactors::Factor(const Matrix& a_ii, const Matrix& a_ib,
                                     const Matrix& a_bi) {
  const size_t ni = a_ii.rows();
  const size_t nb = a_ib.cols();
  assert(a_ii.cols() == ni);
  assert(a_ib.rows() == ni);
  assert(a_bi.rows() == nb && a_bi.cols() == ni);

  CMLDFT_RETURN_IF_ERROR(lu_.Factor(a_ii));

  // W = A_II^{-1} A_IB, column by column (each column bit-identical to a
  // scalar Solve).
  w_.Reset(ni, nb);
  column_.resize(ni);
  for (size_t c = 0; c < nb; ++c) {
    for (size_t r = 0; r < ni; ++r) column_[r] = a_ib(r, c);
    CMLDFT_RETURN_IF_ERROR(lu_.SolveInto(column_, &solved_));
    for (size_t r = 0; r < ni; ++r) w_(r, c) = solved_[r];
  }

  a_bi_ = a_bi;
  a_bi_.MultiplyInto(w_, &schur_);
  return util::Status::Ok();
}

util::Status BbdBlockFactors::ReduceRhs(const Vector& b_i, Vector* y,
                                        Vector* c) const {
  assert(b_i.size() == ni());
  CMLDFT_RETURN_IF_ERROR(lu_.SolveInto(b_i, y));
  a_bi_.MultiplyInto(*y, c);
  return util::Status::Ok();
}

void BbdBlockFactors::BackSubstitute(const Vector& y, const Vector& x_b_local,
                                     Vector* x_i) const {
  assert(y.size() == ni());
  assert(x_b_local.size() == nb());
  w_.MultiplyInto(x_b_local, x_i);  // x_i = W x_B
  for (size_t r = 0; r < y.size(); ++r) (*x_i)[r] = y[r] - (*x_i)[r];
}

}  // namespace cmldft::linalg
