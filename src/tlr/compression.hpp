// Low-rank compression of dense tiles: A ~= U V^T to a target accuracy.
//
// The paper compresses off-diagonal tiles "up to a target accuracy
// threshold" (1e-8 for the geostatistics application). Three compressors are
// provided — deterministic truncated SVD (the reference), adaptive cross
// approximation (ACA, the cheap streaming alternative), and randomized SVD —
// plus the QR-based recompression ("rounding") used after low-rank additions
// inside the TLR Cholesky.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "la/matrix.hpp"

namespace gsx::tlr {

enum class TolMode : unsigned char {
  RelativeFrobenius,  ///< ||A - UV^T||_F <= tol * ||A||_F
  Absolute,           ///< ||A - UV^T||_F <= tol
};

enum class CompressionMethod : unsigned char { SVD, ACA, RSVD };

struct Compressed {
  la::Matrix<double> u;  ///< m x k
  la::Matrix<double> v;  ///< n x k
  [[nodiscard]] std::size_t rank() const noexcept { return u.cols(); }
};

/// Truncated SVD compression (deterministic reference): the optimal
/// truncation rank of A, through a column-pivoted QR stopped once the norm
/// of its trailing block is <= 1% of the threshold, then a Jacobi SVD of the
/// leading r x n block [R11 R12] — O(m n r) work for numerical rank ~r.
Compressed compress_svd(Span2D<const double> a, double tol,
                        TolMode mode = TolMode::RelativeFrobenius);

/// Adaptive cross approximation with partial pivoting; may overshoot the
/// rank slightly, so the result is recompressed to the same tolerance.
Compressed compress_aca(Span2D<const double> a, double tol,
                        TolMode mode = TolMode::RelativeFrobenius);

/// Randomized SVD: adaptive rank doubling with one power iteration.
Compressed compress_rsvd(Span2D<const double> a, double tol, Rng& rng,
                         TolMode mode = TolMode::RelativeFrobenius);

/// Dispatch on method (RSVD draws from `rng`; others ignore it).
Compressed compress(CompressionMethod method, Span2D<const double> a, double tol, Rng& rng,
                    TolMode mode = TolMode::RelativeFrobenius);

/// How low-rank sums are rounded back to the tolerance.
enum class RoundingMethod : unsigned char {
  QrSvd,  ///< two thin QRs + SVD of the small core (reference accuracy)
  Rrqr,   ///< one thin QR + one column-pivoted QR (no SVD, ~2-4x cheaper)
};

/// QR-based rounding of a low-rank representation: replaces (u, v) by an
/// equivalent factorization truncated to `tol`. Used after LR additions
/// (GEMM accumulation into a low-rank tile).
void recompress(la::Matrix<double>& u, la::Matrix<double>& v, double tol,
                TolMode mode = TolMode::RelativeFrobenius,
                RoundingMethod method = RoundingMethod::QrSvd);

/// ||A - U V^T||_F (testing helper).
double lowrank_error(Span2D<const double> a, const la::Matrix<double>& u,
                     const la::Matrix<double>& v);

}  // namespace gsx::tlr
