// Small dense linear algebra: column-count-agnostic row-major matrix,
// LU factorization with partial pivoting, solve and explicit inverse.
//
// Used by the EVP preconditioner for the influence-coefficient matrix W
// (size nx+ny-1 for an nx×ny tile, so ≲ 50×50 in practice) and by tests
// as a reference solver for the assembled stencil operator on small grids.
#pragma once

#include <cstddef>
#include <vector>

namespace minipop::linalg {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols, double fill = 0.0);

  static DenseMatrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) { return data_[idx(r, c)]; }
  const double& operator()(int r, int c) const { return data_[idx(r, c)]; }

  /// Row-major elements, rows() * cols() of them.
  const double* data() const { return data_.data(); }

  DenseMatrix transposed() const;

  /// Matrix-vector product y = A x.
  std::vector<double> apply(const std::vector<double>& x) const;

  /// Matrix-matrix product.
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  double max_abs_diff(const DenseMatrix& other) const;

  /// True when |a_ij - a_ji| <= tol * max(1, |a_ij|) for all i,j.
  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t idx(int r, int c) const {
    return static_cast<std::size_t>(r) * cols_ + c;
  }
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle). Throws
/// util::Error on (numerically) singular input.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a);

  int size() const { return n_; }

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Allocation-free solve: x = A^-1 b, both length size(). b and x may
  /// not alias. The one-lane instance of lu_solve_lanes.
  void solve_into(const double* b, double* x) const;

  /// The packed factors (unit lower triangle below the diagonal, upper
  /// on and above it) and the row permutation, as lu_solve_lanes reads
  /// them.
  const DenseMatrix& factors() const { return lu_; }
  const std::vector<int>& permutation() const { return perm_; }

  /// Explicit inverse (n solves against unit vectors).
  DenseMatrix inverse() const;

  /// |det(A)| estimate from pivot magnitudes; useful to detect
  /// near-singularity in tests.
  double abs_determinant() const;

 private:
  int n_ = 0;
  DenseMatrix lu_;
  std::vector<int> perm_;
  int sign_ = 1;
};

/// Solve L independent n x n systems A_l x_l = b_l from their LU
/// factorizations, stored lane-interleaved: factor (r, c) of lane l at
/// lu[(r * n + c) * L + l], permutation entry r at perm[r * L + l], and
/// b, x at [r * L + l]. The lane loop is innermost, so the L substitution
/// chains run side by side; per lane the operation order is exactly one
/// LuFactorization solve's, so every lane's bits equal a solve_into of
/// that system alone. b and x may not alias. For hot callers (EVP tile
/// corrections) that solve the same small systems thousands of times.
template <int L>
void lu_solve_lanes(int n, const double* lu, const int* perm,
                    const double* b, double* x) {
  for (int r = 0; r < n; ++r)
    for (int l = 0; l < L; ++l) x[r * L + l] = b[perm[r * L + l] * L + l];
  // Forward substitution with the unit lower factor.
  for (int r = 1; r < n; ++r) {
    const double* row = lu + static_cast<std::ptrdiff_t>(r) * n * L;
    double acc[L];
    for (int l = 0; l < L; ++l) acc[l] = x[r * L + l];
    for (int c = 0; c < r; ++c)
      for (int l = 0; l < L; ++l) acc[l] -= row[c * L + l] * x[c * L + l];
    for (int l = 0; l < L; ++l) x[r * L + l] = acc[l];
  }
  // Back substitution.
  for (int r = n - 1; r >= 0; --r) {
    const double* row = lu + static_cast<std::ptrdiff_t>(r) * n * L;
    double acc[L];
    for (int l = 0; l < L; ++l) acc[l] = x[r * L + l];
    for (int c = r + 1; c < n; ++c)
      for (int l = 0; l < L; ++l) acc[l] -= row[c * L + l] * x[c * L + l];
    for (int l = 0; l < L; ++l) x[r * L + l] = acc[l] / row[r * L + l];
  }
}

/// Solve the symmetric positive definite system via Cholesky; reference
/// path used by tests. Throws util::Error if the matrix is not SPD.
std::vector<double> cholesky_solve(const DenseMatrix& a,
                                   const std::vector<double>& b);

/// All eigenvalues of a small symmetric matrix via Jacobi rotations.
/// Reference implementation for validating Lanczos; O(n^3) per sweep.
std::vector<double> symmetric_eigenvalues(const DenseMatrix& a,
                                          double tol = 1e-12,
                                          int max_sweeps = 100);

}  // namespace minipop::linalg
