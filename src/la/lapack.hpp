// LAPACK-style dense factorizations over column-major views.
#pragma once

#include <cstddef>
#include <vector>

#include "common/span2d.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace gsx::la {

/// Cholesky factorization in place: A = L L^T (Lower) or U^T U (Upper).
/// Returns 0 on success, or 1-based index of the first non-positive pivot
/// (matching LAPACK xPOTRF info semantics). Only the `uplo` triangle of A is
/// referenced or written; the other triangle is left untouched.
template <typename T>
int potrf(Uplo uplo, Span2D<T> a);

extern template int potrf<double>(Uplo, Span2D<double>);
extern template int potrf<float>(Uplo, Span2D<float>);

/// Householder QR: A (m x n, m >= n) is replaced by R in its upper triangle;
/// `q` is returned with orthonormal columns spanning range(A) (thin Q, m x n).
template <typename T>
void qr_factor(Span2D<T> a, Matrix<T>& q);

extern template void qr_factor<double>(Span2D<double>, Matrix<double>&);
extern template void qr_factor<float>(Span2D<float>, Matrix<float>&);

/// Column-pivoted thin QR (xGEQP3-style, with norm downdating):
/// A * P = Q * R, A m x n with m >= n. On return `a` holds R in its upper
/// triangle (sub-diagonal zeroed), `q` the thin orthonormal factor (m x n),
/// and perm[j] the original index of the column now in position j. The
/// diagonal of R is non-increasing in magnitude — the rank-revealing
/// property the cheap TLR recompression relies on.
///
/// With `stop_tol` >= 0 the factorization is truncated: it stops before the
/// first step r whose exact trailing mass ||R22||_F = ||(A P)(r:m, r:n)||_F
/// after r reflectors is <= stop_tol (the downdated column norms only
/// trigger the exact check). Then rows 0..r-1 of `a` hold [R11 R12] (R11
/// upper triangular, zeros below it), rows r..m-1 of columns r..n-1 hold the
/// unreduced R22, and `q` is the thin m x r factor: A P - Q_r [R11 R12] is
/// orthogonal to Q_r with Frobenius norm ||R22||_F. The truncated run is
/// bitwise the first r steps of the full one. The default (negative) runs
/// all n steps. Returns r.
template <typename T>
std::size_t qr_pivoted(Span2D<T> a, Matrix<T>& q, std::vector<std::size_t>& perm,
                       T stop_tol = T{-1});

extern template std::size_t qr_pivoted<double>(Span2D<double>, Matrix<double>&,
                                               std::vector<std::size_t>&, double);
extern template std::size_t qr_pivoted<float>(Span2D<float>, Matrix<float>&,
                                              std::vector<std::size_t>&, float);

/// Thin SVD by one-sided Jacobi: A (m x n, any shape) = U diag(s) V^T with
/// U m x r, V n x r, r = min(m, n). Singular values descending. Accurate to
/// machine precision for the small/rectangular blocks used in tile
/// compression and recompression.
template <typename T>
void svd_jacobi(const Matrix<T>& a, Matrix<T>& u, std::vector<T>& s, Matrix<T>& v);

extern template void svd_jacobi<double>(const Matrix<double>&, Matrix<double>&,
                                        std::vector<double>&, Matrix<double>&);
extern template void svd_jacobi<float>(const Matrix<float>&, Matrix<float>&,
                                       std::vector<float>&, Matrix<float>&);

/// Frobenius norm of a general view.
template <typename T>
double norm_frobenius(Span2D<const T> a);

extern template double norm_frobenius<double>(Span2D<const double>);
extern template double norm_frobenius<float>(Span2D<const float>);

/// Max-abs entry.
template <typename T>
double norm_max(Span2D<const T> a);

extern template double norm_max<double>(Span2D<const double>);
extern template double norm_max<float>(Span2D<const float>);

/// Symmetrize from the stored triangle (testing helper for SYRK/POTRF).
template <typename T>
void symmetrize_from(Uplo stored, Span2D<T> a);

extern template void symmetrize_from<double>(Uplo, Span2D<double>);
extern template void symmetrize_from<float>(Uplo, Span2D<float>);

}  // namespace gsx::la
