#include "linalg/matrix.h"

#include <algorithm>

#include "util/strings.h"

namespace cmldft::linalg {

template <typename T>
std::string MatrixT<T>::ToString(int precision) const {
  std::string out;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      if constexpr (std::is_same_v<T, double>) {
        out += util::StrPrintf("%*.*g ", precision + 7, precision, (*this)(r, c));
      } else {
        const std::complex<double> v = (*this)(r, c);
        out += util::StrPrintf("(%.*g,%.*g) ", precision, v.real(), precision,
                               v.imag());
      }
    }
    out += '\n';
  }
  return out;
}

template class MatrixT<double>;
template class MatrixT<std::complex<double>>;

double NormInf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double Norm2(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

Vector Subtract(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  Vector r(a.size());
  for (size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

double Dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double NormInf(const CVector& v) {
  double m = 0.0;
  for (const auto& x : v) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace cmldft::linalg
