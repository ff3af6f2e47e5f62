// Dense row-major matrix used by the NN substrate, the HDC encoder, and the
// crossbar simulator.  Header-only and deliberately minimal: the framework's
// matrices are small (crossbar tiles, feature maps), so clarity beats BLAS.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace xlds {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(std::initializer_list<std::initializer_list<T>> rows) {
    const std::size_t r = rows.size();
    const std::size_t c = r ? rows.begin()->size() : 0;
    Matrix m(r, c);
    std::size_t i = 0;
    for (const auto& row : rows) {
      XLDS_REQUIRE_MSG(row.size() == c, "ragged initialiser row");
      std::size_t j = 0;
      for (const T& v : row) m(i, j++) = v;
      ++i;
    }
    return m;
  }

  /// A [1 x v.size()] matrix holding v: one query as a one-row batch.
  static Matrix one_row(const std::vector<T>& v) {
    Matrix m;
    m.rows_ = 1;
    m.cols_ = v.size();
    m.data_ = v;
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Row r, copied out as a vector.
  std::vector<T> row(std::size_t r) const {
    XLDS_ASSERT(r < rows_);
    return std::vector<T>(row_data(r), row_data(r) + cols_);
  }

  T& operator()(std::size_t r, std::size_t c) {
    XLDS_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    XLDS_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const T* row_data(std::size_t r) const { return data_.data() + r * cols_; }

  std::vector<T>& data() noexcept { return data_; }
  const std::vector<T>& data() const noexcept { return data_; }

  /// y = A x  (length of x must equal cols).
  std::vector<T> matvec(const std::vector<T>& x) const {
    XLDS_REQUIRE_MSG(x.size() == cols_, "matvec: " << x.size() << " vs " << cols_ << " cols");
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      T acc{};
      const T* row = row_data(r);
      for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

  /// y = A^T x  (length of x must equal rows).
  std::vector<T> matvec_transposed(const std::vector<T>& x) const {
    XLDS_REQUIRE_MSG(x.size() == rows_, "matvec_transposed: " << x.size() << " vs " << rows_);
    std::vector<T> y(cols_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      const T* row = row_data(r);
      const T xr = x[r];
      for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
    }
    return y;
  }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  Matrix matmul(const Matrix& b) const {
    XLDS_REQUIRE(cols_ == b.rows_);
    Matrix out(rows_, b.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T a = (*this)(r, k);
        if (a == T{}) continue;
        const T* brow = b.row_data(k);
        T* orow = out.row_data(r);
        for (std::size_t c = 0; c < b.cols_; ++c) orow[c] += a * brow[c];
      }
    }
    return out;
  }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixF = Matrix<float>;

}  // namespace xlds
