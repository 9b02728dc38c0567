// Dense matrix/vector types sized for circuit MNA systems (tens to a few
// hundred unknowns). Row-major storage, bounds-asserted access. Templated
// on the scalar so the same kernel serves real (DC/transient) and complex
// (AC small-signal) systems.
#pragma once

#include <cassert>
#include <cmath>
#include <complex>
#include <cstddef>
#include <string>
#include <vector>

namespace cmldft::linalg {

using Vector = std::vector<double>;
using CVector = std::vector<std::complex<double>>;

/// Row-major dense matrix.
template <typename T>
class MatrixT {
 public:
  MatrixT() = default;
  MatrixT(size_t rows, size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static MatrixT Identity(size_t n) {
    MatrixT m(n, n);
    for (size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  T& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Set every entry to `value`.
  void Fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshape to rows x cols with every entry T{}, keeping the storage's
  /// capacity (no allocation unless the matrix grows past it).
  void Reset(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  /// this += other (same shape required).
  void Add(const MatrixT& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }
  /// this *= s.
  void Scale(T s) {
    for (T& v : data_) v *= s;
  }

  /// Matrix-vector product y = A x.
  std::vector<T> Multiply(const std::vector<T>& x) const {
    std::vector<T> y;
    MultiplyInto(x, &y);
    return y;
  }

  /// y = A x into a caller-owned buffer (resized as needed). Bit-identical
  /// to Multiply(); exists so per-iteration hot loops (the hierarchical
  /// solver's Schur updates) can reuse their scratch instead of allocating.
  void MultiplyInto(const std::vector<T>& x, std::vector<T>* y) const {
    assert(x.size() == cols_);
    y->resize(rows_);
    for (size_t r = 0; r < rows_; ++r) {
      T acc{};
      const T* row = data_.data() + r * cols_;
      for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
      (*y)[r] = acc;
    }
  }

  /// Matrix-matrix product.
  MatrixT Multiply(const MatrixT& other) const {
    MatrixT out;
    MultiplyInto(other, &out);
    return out;
  }

  /// out = A B into a caller-owned matrix (bit-identical to Multiply();
  /// see Reset() for when it allocates).
  void MultiplyInto(const MatrixT& other, MatrixT* out) const {
    assert(cols_ == other.rows_);
    out->Reset(rows_, other.cols_);
    for (size_t r = 0; r < rows_; ++r) {
      for (size_t k = 0; k < cols_; ++k) {
        const T a = (*this)(r, k);
        if (a == T{}) continue;
        for (size_t c = 0; c < other.cols_; ++c) {
          (*out)(r, c) += a * other(k, c);
        }
      }
    }
  }

  /// Largest |entry|.
  double MaxAbs() const {
    double m = 0.0;
    for (const T& v : data_) m = std::max(m, std::abs(v));
    return m;
  }

  std::string ToString(int precision = 4) const;

  const T* data() const { return data_.data(); }
  T* data() { return data_.data(); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

using Matrix = MatrixT<double>;
using CMatrix = MatrixT<std::complex<double>>;

extern template class MatrixT<double>;
extern template class MatrixT<std::complex<double>>;

/// Infinity norm of a vector.
double NormInf(const Vector& v);
/// Euclidean norm.
double Norm2(const Vector& v);
/// r = a - b.
Vector Subtract(const Vector& a, const Vector& b);
/// Dot product.
double Dot(const Vector& a, const Vector& b);

/// Infinity norm for complex vectors (max |entry|).
double NormInf(const CVector& v);

}  // namespace cmldft::linalg
