#include "tlr/compression.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"

namespace gsx::tlr {

namespace {

/// Truncation rank for a descending singular spectrum: smallest k with
/// sqrt(sum_{i>=k} s_i^2) <= threshold.
std::size_t truncation_rank(const std::vector<double>& s, double threshold) {
  // Tail energies computed back-to-front.
  std::size_t k = s.size();
  double tail = 0.0;
  while (k > 0) {
    const double cand = tail + s[k - 1] * s[k - 1];
    if (std::sqrt(cand) > threshold) break;
    tail = cand;
    --k;
  }
  return k;
}

double resolve_threshold(double tol, TolMode mode, double norm_f) {
  return (mode == TolMode::RelativeFrobenius) ? tol * norm_f : tol;
}

/// Trailing-mass budget of the truncated QR in compress_svd, as a fraction
/// of the threshold tau: the QR stops once ||R22||_F <= kQrStopFraction * tau.
/// The rank is never below the optimal truncation rank k* of A, and equals
/// it unless A's optimal error at k* exceeds sqrt(1 - 0.01^2) tau, i.e. lies
/// within 0.005% of tau. The few extra QR steps are cheap: on Matérn tiles
/// at 1e-8 a fraction of 0.3 saved ~20% of the time but missed k* on ~1% of
/// tiles.
constexpr double kQrStopFraction = 0.01;

/// compress_aca stops once its exact residual is at most this fraction of
/// tau; the rounding step may spend the rest.
constexpr double kAcaErrorFraction = 0.5;

}  // namespace

Compressed compress_svd(Span2D<const double> a, double tol, TolMode mode) {
  // Factor the tall orientation; a wide tile is compressed as A^T and its
  // factors swapped back at the end.
  const bool wide = a.rows() < a.cols();
  const std::size_t m = wide ? a.cols() : a.rows();
  const std::size_t n = wide ? a.rows() : a.cols();
  la::Matrix<double> work(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) work(i, j) = wide ? a(j, i) : a(i, j);

  // A P = Q_r [R11 R12] + E, E orthogonal to Q_r with ||E||_F = ||R22||_F
  // <= 0.01 tau: the QR costs O(m n r) for a numerical rank near r, instead
  // of a Jacobi SVD of all of A.
  const double threshold = resolve_threshold(tol, mode, la::norm_frobenius<double>(a));
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  const std::size_t r = la::qr_pivoted(work.view(), q, perm, kQrStopFraction * threshold);
  double dropped = 0.0;  // ||R22||_F^2
  for (std::size_t j = r; j < n; ++j)
    for (std::size_t i = r; i < m; ++i) dropped += work(i, j) * work(i, j);

  // SVD of the r x n block [R11 R12] = U_B S V_B^T, truncated against what
  // is left of the budget: ||A - U V^T||_F^2 = ||R22||^2 + tail^2 <= tau^2.
  la::Matrix<double> b(r, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < r; ++i) b(i, j) = work(i, j);
  la::Matrix<double> ub, vb;
  std::vector<double> s;
  if (r > 0) la::svd_jacobi(b, ub, s, vb);
  const std::size_t k =
      truncation_rank(s, std::sqrt(std::max(0.0, threshold * threshold - dropped)));

  // U = Q_r U_B S (m x k), V = P V_B (n x k).
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t i = 0; i < r; ++i) ub(i, c) *= s[c];
  Compressed out;
  out.u.resize(m, k);
  out.v.resize(n, k);
  if (k > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, q.cview(),
                     Span2D<const double>(ub.data(), r, k, r), 0.0, out.u.view());
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t j = 0; j < n; ++j) out.v(perm[j], c) = vb(j, c);
  if (wide) std::swap(out.u, out.v);
  return out;
}

Compressed compress_aca(Span2D<const double> a, double tol, TolMode mode) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double norm_f = la::norm_frobenius<double>(a);
  const double threshold = resolve_threshold(tol, mode, norm_f);
  const std::size_t max_rank = std::min(m, n);

  std::vector<std::vector<double>> us, vs;  // rank-1 terms
  std::vector<bool> row_used(m, false), col_used(n, false);

  // The tile is dense, so its residual R = A - sum_t u_t v_t^T is kept
  // explicitly: O(m n) per term, and the exact ||R||_F for the stop rule.
  la::Matrix<double> res(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) res(i, j) = a(i, j);

  std::size_t next_row = 0;
  for (std::size_t it = 0; it < max_rank; ++it) {
    // Pivot row: first unused (classic partial pivoting starts from the
    // residual row of the previous pivot; a fresh unused row is more robust
    // for covariance blocks with decaying structure).
    while (next_row < m && row_used[next_row]) ++next_row;
    if (next_row >= m) break;
    std::size_t pi = next_row;

    // Pivot column: max |residual| in the pivot row.
    double best = 0.0;
    std::size_t pj = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (!col_used[j] && std::fabs(res(pi, j)) > best) {
        best = std::fabs(res(pi, j));
        pj = j;
      }
    }
    if (pj == n || best == 0.0) {
      row_used[pi] = true;
      continue;
    }
    // Improve the pivot row choice: max |residual| within the pivot column.
    double cbest = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!row_used[i] && std::fabs(res(i, pj)) > cbest) {
        cbest = std::fabs(res(i, pj));
        pi = i;
      }
    }
    const double pivot = res(pi, pj);
    if (pivot == 0.0) {
      row_used[pi] = true;
      continue;
    }

    std::vector<double> uvec(m), vvec(n);
    for (std::size_t i = 0; i < m; ++i) uvec[i] = res(i, pj) / pivot;
    for (std::size_t j = 0; j < n; ++j) vvec[j] = res(pi, j);
    row_used[pi] = true;
    col_used[pj] = true;
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) res(i, j) -= uvec[i] * vvec[j];

    // ||u_k|| ||v_k|| is the standard ACA estimate of the residual, but it
    // looks at the last term only and can stop with ||R||_F well above tau;
    // confirm with the exact norm, leaving the rest of tau to the rounding.
    double nu = 0.0, nv = 0.0;
    for (double x : uvec) nu += x * x;
    for (double x : vvec) nv += x * x;
    us.push_back(std::move(uvec));
    vs.push_back(std::move(vvec));
    if (std::sqrt(nu * nv) <= threshold &&
        la::norm_frobenius<double>(res.cview()) <= kAcaErrorFraction * threshold)
      break;
  }
  const double aca_error = la::norm_frobenius<double>(res.cview());

  Compressed out;
  const std::size_t k = us.size();
  out.u.resize(m, k);
  out.v.resize(n, k);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t i = 0; i < m; ++i) out.u(i, t) = us[t][i];
    for (std::size_t j = 0; j < n; ++j) out.v(j, t) = vs[t][j];
  }
  // ACA over-estimates rank; round down with what the ACA residual left of
  // tau (an absolute budget against A's norm, not the low-rank norm), so
  // ||A - U V^T||_F <= aca_error + (tau - aca_error) = tau.
  if (k > 0) recompress(out.u, out.v, std::max(0.0, threshold - aca_error), TolMode::Absolute);
  return out;
}

Compressed compress_rsvd(Span2D<const double> a, double tol, Rng& rng, TolMode mode) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double norm_f = la::norm_frobenius<double>(a);
  const double threshold = resolve_threshold(tol, mode, norm_f);
  const std::size_t max_rank = std::min(m, n);

  std::size_t sample = std::min<std::size_t>(max_rank, 8);
  for (;;) {
    const std::size_t p = std::min(max_rank, sample + 8);  // oversampling
    // Range finding with one power iteration: Y = A (A^T (A Omega)).
    la::Matrix<double> omega(n, p);
    for (std::size_t j = 0; j < p; ++j)
      for (std::size_t i = 0; i < n; ++i) omega(i, j) = rng.normal();
    la::Matrix<double> y(m, p);
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, a, omega.cview(), 0.0,
                     y.view());
    la::Matrix<double> z(n, p);
    la::gemm<double>(la::Trans::Trans, la::Trans::NoTrans, 1.0, a, y.cview(), 0.0, z.view());
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, a, z.cview(), 0.0,
                     y.view());

    la::Matrix<double> q;
    la::qr_factor(y.view(), q);

    // B = Q^T A (p x n), then a small SVD.
    la::Matrix<double> b(p, n);
    la::gemm<double>(la::Trans::Trans, la::Trans::NoTrans, 1.0, q.cview(), a, 0.0, b.view());
    la::Matrix<double> ub, vb;
    std::vector<double> s;
    la::svd_jacobi(b, ub, s, vb);

    const std::size_t k = truncation_rank(s, threshold);
    // Accept if the spectrum visibly decayed inside the sample window or the
    // window already covers the full rank.
    if (k < sample || p >= max_rank) {
      Compressed out;
      out.u.resize(m, k);
      out.v.resize(n, k);
      // U = Q * Ub_k scaled by singular values; V = Vb_k.
      la::Matrix<double> ubk(p, k);
      for (std::size_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < p; ++i) ubk(i, j) = ub(i, j) * s[j];
      if (k > 0)
        la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, q.cview(),
                         ubk.cview(), 0.0, out.u.view());
      for (std::size_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < n; ++i) out.v(i, j) = vb(i, j);
      return out;
    }
    sample = std::min(max_rank, sample * 2);
  }
}

Compressed compress(CompressionMethod method, Span2D<const double> a, double tol, Rng& rng,
                    TolMode mode) {
  switch (method) {
    case CompressionMethod::SVD: return compress_svd(a, tol, mode);
    case CompressionMethod::ACA: return compress_aca(a, tol, mode);
    case CompressionMethod::RSVD: return compress_rsvd(a, tol, rng, mode);
  }
  GSX_REQUIRE(false, "compress: unknown method");
  return {};
}

namespace {

/// RRQR rounding: A = U V^T = Q_u (R_u V^T); a column-pivoted QR of
/// W^T = (R_u V^T)^T reveals the numerical rank without an SVD. Truncation
/// error equals the Frobenius norm of the dropped trailing rows of R_w.
void recompress_rrqr(la::Matrix<double>& u, la::Matrix<double>& v, double threshold) {
  const std::size_t k = u.cols();
  const std::size_t m = u.rows();
  const std::size_t n = v.rows();

  la::Matrix<double> ru = u;  // QR of U in place
  la::Matrix<double> qu;
  la::qr_factor(ru.view(), qu);

  // W^T = V * R_u^T  (n x k).
  la::Matrix<double> wt(n, k);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, v.cview(),
                   Span2D<const double>(ru.data(), k, k, ru.rows()), 0.0, wt.view());

  la::Matrix<double> qw;
  std::vector<std::size_t> perm;
  la::qr_pivoted(wt.view(), qw, perm);  // wt now holds R_w (k x k upper)

  // Truncation rank: drop trailing rows of R_w whose accumulated Frobenius
  // mass stays below the threshold.
  std::vector<double> row_tail(k + 1, 0.0);
  for (std::size_t l = k; l-- > 0;) {
    double s = 0.0;
    for (std::size_t j = l; j < k; ++j) s += wt(l, j) * wt(l, j);
    row_tail[l] = row_tail[l + 1] + s;
  }
  std::size_t r = k;
  while (r > 0 && std::sqrt(row_tail[r - 1]) <= threshold) --r;

  // U' = Q_u * Y with Y[perm[j], :] = R_w(1:r, j)^T;  V' = Q_w(:, 1:r).
  la::Matrix<double> y(k, r);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t c = 0; c < r; ++c) y(perm[j], c) = wt(c, j);
  la::Matrix<double> new_u(m, r), new_v(n, r);
  if (r > 0) {
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, qu.cview(), y.cview(),
                     0.0, new_u.view());
    for (std::size_t c = 0; c < r; ++c)
      for (std::size_t i = 0; i < n; ++i) new_v(i, c) = qw(i, c);
  }
  u = std::move(new_u);
  v = std::move(new_v);
}

}  // namespace

void recompress(la::Matrix<double>& u, la::Matrix<double>& v, double tol, TolMode mode,
                RoundingMethod method) {
  const std::size_t k = u.cols();
  GSX_REQUIRE(v.cols() == k, "recompress: U/V rank mismatch");
  if (k == 0) return;
  const std::size_t m = u.rows();
  const std::size_t n = v.rows();

  // If the rank is not actually smaller than the block, fall back to SVD of
  // the materialized product (QR needs tall factors).
  if (k > m || k > n) {
    la::Matrix<double> full(m, n);
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                     full.view());
    Compressed c = compress_svd(full.cview(), tol, mode);
    u = std::move(c.u);
    v = std::move(c.v);
    return;
  }

  if (method == RoundingMethod::Rrqr) {
    double threshold = tol;
    if (mode == TolMode::RelativeFrobenius) {
      // ||U V^T||_F without materializing: Frobenius of R_u R_v^T is what
      // the QrSvd path uses; a cheap upper proxy here is ||U||_F * ||V||_2
      // — instead reuse the exact product-of-QR-cores norm computed below.
      la::Matrix<double> ru = u, rv = v, qtmp;
      la::qr_factor(ru.view(), qtmp);
      la::qr_factor(rv.view(), qtmp);
      la::Matrix<double> core(k, k);
      la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0,
                       Span2D<const double>(ru.data(), k, k, ru.rows()),
                       Span2D<const double>(rv.data(), k, k, rv.rows()), 0.0, core.view());
      threshold = tol * la::norm_frobenius<double>(core.cview());
    }
    recompress_rrqr(u, v, threshold);
    return;
  }

  // U = Qu Ru, V = Qv Rv;  U V^T = Qu (Ru Rv^T) Qv^T; SVD the small core.
  la::Matrix<double> qu, qv;
  la::Matrix<double> ru = u;  // will hold R in its upper triangle
  la::Matrix<double> rv = v;
  la::qr_factor(ru.view(), qu);
  la::qr_factor(rv.view(), qv);

  la::Matrix<double> core(k, k);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0,
                   Span2D<const double>(ru.data(), k, k, ru.rows()),
                   Span2D<const double>(rv.data(), k, k, rv.rows()), 0.0, core.view());

  la::Matrix<double> uc, vc;
  std::vector<double> s;
  la::svd_jacobi(core, uc, s, vc);

  double norm_f = 0.0;
  for (double sv : s) norm_f += sv * sv;
  norm_f = std::sqrt(norm_f);  // == ||U V^T||_F
  const double threshold = resolve_threshold(tol, mode, norm_f);
  const std::size_t r = truncation_rank(s, threshold);

  la::Matrix<double> ucr(k, r), vcr(k, r);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < k; ++i) ucr(i, j) = uc(i, j) * s[j];
    for (std::size_t i = 0; i < k; ++i) vcr(i, j) = vc(i, j);
  }
  la::Matrix<double> new_u(m, r), new_v(n, r);
  if (r > 0) {
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, qu.cview(), ucr.cview(),
                     0.0, new_u.view());
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, qv.cview(), vcr.cview(),
                     0.0, new_v.view());
  }
  u = std::move(new_u);
  v = std::move(new_v);
}

double lowrank_error(Span2D<const double> a, const la::Matrix<double>& u,
                     const la::Matrix<double>& v) {
  la::Matrix<double> rec(a.rows(), a.cols());
  if (u.cols() > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                     rec.view());
  double s = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double d = rec(i, j) - a(i, j);
      s += d * d;
    }
  return std::sqrt(s);
}

}  // namespace gsx::tlr
