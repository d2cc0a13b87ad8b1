// Column-pivoted QR and the RRQR low-rank rounding path.
#include <gtest/gtest.h>

#include <cmath>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tlr/compression.hpp"
#include "tlr/lr_kernels.hpp"

namespace gsx {
namespace {

using gsx::test::max_abs_diff;
using gsx::test::random_lowrank;
using gsx::test::random_matrix;
using gsx::test::rel_frobenius_diff;

struct QrpShape {
  std::size_t m, n;
};

class QrPivotedTest : public ::testing::TestWithParam<QrpShape> {};

TEST_P(QrPivotedTest, ReconstructsWithPermutation) {
  const auto [m, n] = GetParam();
  Rng rng(m * 100 + n);
  const auto a0 = random_matrix(m, n, rng);
  auto r = a0;
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  la::qr_pivoted(r.view(), q, perm);

  // Q orthonormal.
  la::Matrix<double> qtq(n, n);
  la::gemm<double>(la::Trans::Trans, la::Trans::NoTrans, 1.0, q.cview(), q.cview(), 0.0,
                   qtq.view());
  EXPECT_LT(max_abs_diff(qtq, la::Matrix<double>::identity(n)), 1e-12);

  // Q R == A P (column perm[j] of A is column j of A*P).
  la::Matrix<double> qr(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, q.cview(),
                   Span2D<const double>(r.data(), n, n, m), 0.0, qr.view());
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(qr(i, j), a0(i, perm[j]), 1e-11) << i << "," << j;

  // perm is a permutation of 0..n-1.
  std::vector<bool> seen(n, false);
  for (std::size_t p : perm) {
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }

  // Rank-revealing property: |R_jj| non-increasing.
  for (std::size_t j = 1; j < n; ++j)
    EXPECT_LE(std::fabs(r(j, j)), std::fabs(r(j - 1, j - 1)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrPivotedTest,
                         ::testing::Values(QrpShape{6, 6}, QrpShape{20, 7},
                                           QrpShape{50, 12}, QrpShape{9, 1},
                                           QrpShape{64, 32}));

TEST(QrPivoted, RevealsNumericalRank) {
  Rng rng(5);
  const auto a = random_lowrank(40, 20, 6, rng);
  auto r = a;
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  la::qr_pivoted(r.view(), q, perm);
  // Diagonal collapses after the true rank.
  EXPECT_GT(std::fabs(r(5, 5)), 1e-8);
  for (std::size_t j = 6; j < 20; ++j) EXPECT_LT(std::fabs(r(j, j)), 1e-10);
}

TEST(QrPivoted, HandlesZeroColumns) {
  la::Matrix<double> a(8, 4);
  Rng rng(6);
  for (std::size_t i = 0; i < 8; ++i) a(i, 2) = rng.normal();  // one nonzero column
  auto r = a;
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  la::qr_pivoted(r.view(), q, perm);
  EXPECT_EQ(perm[0], 2u);  // the only informative column pivots first
  EXPECT_GT(std::fabs(r(0, 0)), 0.0);
  for (std::size_t j = 1; j < 4; ++j) EXPECT_NEAR(r(j, j), 0.0, 1e-14);
}

/// m x n with singular values 2^-i: trailing masses of the pivoted QR fall
/// by ~4x per step, so a threshold between two of them is unambiguous.
la::Matrix<double> geometric_spectrum(std::size_t m, std::size_t n, Rng& rng) {
  auto u = random_matrix(m, n, rng);
  auto v = random_matrix(n, n, rng);
  la::Matrix<double> qu, qv;
  la::qr_factor(u.view(), qu);
  la::qr_factor(v.view(), qv);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) qu(i, j) *= std::ldexp(1.0, -static_cast<int>(j));
  la::Matrix<double> a(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, qu.cview(), qv.cview(), 0.0,
                   a.view());
  return a;
}

TEST(QrPivoted, StoppingThresholdTruncatesToAPrefixOfTheFullFactorization) {
  Rng rng(12);
  const std::size_t m = 48, n = 32;
  const auto a0 = geometric_spectrum(m, n, rng);

  // Default: all n steps. A threshold that never fires (0 on a full-rank
  // matrix) performs bitwise the same arithmetic.
  auto rf = a0;
  la::Matrix<double> qf;
  std::vector<std::size_t> pf;
  ASSERT_EQ(la::qr_pivoted(rf.view(), qf, pf), n);
  {
    auto r0 = a0;
    la::Matrix<double> q0;
    std::vector<std::size_t> p0;
    ASSERT_EQ(la::qr_pivoted(r0.view(), q0, p0, 0.0), n);
    EXPECT_EQ(p0, pf);
    EXPECT_EQ(max_abs_diff(r0, rf), 0.0);
    EXPECT_EQ(max_abs_diff(q0, qf), 0.0);
  }

  // Exact trailing mass before step k, read off the full R:
  // t_k = ||R(k:n, k:n)||_F^2 (orthogonal updates preserve it).
  std::vector<double> t(n + 1, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    t[k] = t[k + 1];
    for (std::size_t j = k; j < n; ++j) t[k] += rf(k, j) * rf(k, j);
  }

  for (std::size_t want : {1u, 6u, 13u, 25u}) {
    ASSERT_LT(t[want], t[want - 1]);
    const double tol = std::sqrt(std::sqrt(t[want] * t[want - 1]));  // between t_{k}, t_{k-1}
    auto r = a0;
    la::Matrix<double> q;
    std::vector<std::size_t> perm;
    const std::size_t got = la::qr_pivoted(r.view(), q, perm, tol);
    ASSERT_EQ(got, want) << "first step whose trailing mass is <= tol^2";
    ASSERT_EQ(q.rows(), m);
    ASSERT_EQ(q.cols(), got);

    // The returned R22 is within the threshold.
    double r22 = 0.0;
    for (std::size_t j = got; j < n; ++j)
      for (std::size_t i = got; i < m; ++i) r22 += r(i, j) * r(i, j);
    EXPECT_LE(r22, tol * tol);

    // Bitwise prefix of the full factorization: pivots, Q_r, [R11 R12].
    std::vector<std::size_t> where(n);  // original column -> position in full run
    for (std::size_t j = 0; j < n; ++j) where[pf[j]] = j;
    for (std::size_t j = 0; j < got; ++j) EXPECT_EQ(perm[j], pf[j]);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(r(i, j), rf(i, where[perm[j]]));
    for (std::size_t j = 0; j < got; ++j)
      for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(q(i, j), qf(i, j));

    // Q_r orthonormal, and A P - Q_r [R11 R12] has exactly the mass of R22
    // (the residual is R22 in the basis of the trailing reflectors).
    la::Matrix<double> qtq(got, got);
    la::gemm<double>(la::Trans::Trans, la::Trans::NoTrans, 1.0, q.cview(), q.cview(), 0.0,
                     qtq.view());
    EXPECT_LT(max_abs_diff(qtq, la::Matrix<double>::identity(got)), 1e-13);
    la::Matrix<double> resid(m, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) resid(i, j) = a0(i, perm[j]);
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, -1.0, q.cview(),
                     Span2D<const double>(r.data(), got, n, m), 1.0, resid.view());
    EXPECT_NEAR(la::norm_frobenius<double>(resid.cview()), std::sqrt(r22), 1e-13);
  }
}

TEST(QrPivoted, StoppingThresholdOnZeroMatrixStopsAtOnce) {
  la::Matrix<double> a(9, 5);
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  EXPECT_EQ(la::qr_pivoted(a.view(), q, perm, 0.0), 0u);
  EXPECT_EQ(q.rows(), 9u);
  EXPECT_EQ(q.cols(), 0u);
  EXPECT_EQ(perm.size(), 5u);
}

TEST(RecompressRrqr, MatchesQrSvdValueWithinTolerance) {
  Rng rng(7);
  const std::size_t m = 40, n = 34, k = 10;
  auto u1 = random_matrix(m, k, rng);
  auto v1 = random_matrix(n, k, rng);
  auto u2 = u1, v2 = v1;
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u1.cview(), v1.cview(), 0.0,
                   before.view());

  tlr::recompress(u1, v1, 1e-7, tlr::TolMode::Absolute, tlr::RoundingMethod::QrSvd);
  tlr::recompress(u2, v2, 1e-7, tlr::TolMode::Absolute, tlr::RoundingMethod::Rrqr);
  EXPECT_LE(tlr::lowrank_error(before.cview(), u1, v1), 1e-7 * 1.001);
  EXPECT_LE(tlr::lowrank_error(before.cview(), u2, v2), 1e-7 * 1.001);
}

TEST(RecompressRrqr, ReducesInflatedRankCloseToSvd) {
  Rng rng(8);
  // Exact rank-4 block carried at rank 16.
  const auto a = random_lowrank(36, 30, 4, rng);
  tlr::Compressed c = tlr::compress_svd(a.cview(), 1e-14, tlr::TolMode::Absolute);
  const std::size_t k0 = c.rank();
  la::Matrix<double> u(36, 4 * k0), v(30, 4 * k0);
  for (std::size_t rep = 0; rep < 4; ++rep)
    for (std::size_t j = 0; j < k0; ++j) {
      for (std::size_t i = 0; i < 36; ++i) u(i, rep * k0 + j) = 0.25 * c.u(i, j);
      for (std::size_t i = 0; i < 30; ++i) v(i, rep * k0 + j) = c.v(i, j);
    }
  tlr::recompress(u, v, 1e-10, tlr::TolMode::Absolute, tlr::RoundingMethod::Rrqr);
  EXPECT_LE(u.cols(), k0 + 1);  // RRQR may keep one extra direction
  EXPECT_LE(tlr::lowrank_error(a.cview(), u, v), 1e-8);
}

TEST(RecompressRrqr, RelativeToleranceMode) {
  Rng rng(9);
  const std::size_t m = 30, n = 26, k = 8;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());
  const double norm = la::norm_frobenius<double>(before.cview());
  tlr::recompress(u, v, 1e-5, tlr::TolMode::RelativeFrobenius, tlr::RoundingMethod::Rrqr);
  EXPECT_LE(tlr::lowrank_error(before.cview(), u, v), 1e-5 * norm * 1.001);
}

TEST(LrAxpyRrqr, AccumulationMatchesOracle) {
  Rng rng(10);
  const std::size_t m = 24, n = 20;
  const auto uc0 = random_matrix(m, 5, rng);
  const auto vc0 = random_matrix(n, 5, rng);
  const auto up = random_matrix(m, 3, rng);
  const auto vp = random_matrix(n, 3, rng);

  la::Matrix<double> oracle(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, uc0.cview(), vc0.cview(),
                   0.0, oracle.view());
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.5, up.cview(), vp.cview(), 1.0,
                   oracle.view());

  auto uc = uc0;
  auto vc = vc0;
  tlr::lr_axpy_rounded(-1.5, tlr::LrProduct{up, vp}, uc, vc, 1e-9,
                       tlr::RoundingMethod::Rrqr);
  EXPECT_LE(tlr::lowrank_error(oracle.cview(), uc, vc), 1e-8);
}

TEST(TlrCholeskyRrqr, EndToEndAccuracyMatchesQrSvd) {
  // Full TLR factorization with both rounding methods on a Matérn matrix.
  Rng rng(11);
  auto locs = geostat::perturbed_grid_locations(128, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.06, 0.5, 1e-6);

  auto make = [&] {
    tile::SymTileMatrix a(128, 32);
    geostat::fill_covariance_tiles(a, model, locs, 1);
    cholesky::TlrCompressOptions copt;
    copt.tol = 1e-9;
    copt.band_size = 1;
    copt.lr_fp32 = false;
    cholesky::compress_offband(a, copt, 1);
    return a;
  };
  auto a_svd = make();
  auto a_rrqr = make();
  cholesky::FactorOptions o1, o2;
  o1.rounding = tlr::RoundingMethod::QrSvd;
  o2.rounding = tlr::RoundingMethod::Rrqr;
  ASSERT_EQ(cholesky::tile_cholesky_tlr(a_svd, 1e-9, o1).info, 0);
  ASSERT_EQ(cholesky::tile_cholesky_tlr(a_rrqr, 1e-9, o2).info, 0);
  const auto l1 = cholesky::reconstruct_lower(a_svd);
  const auto l2 = cholesky::reconstruct_lower(a_rrqr);
  EXPECT_LT(rel_frobenius_diff(l2, l1), 1e-5);
}

}  // namespace
}  // namespace gsx
