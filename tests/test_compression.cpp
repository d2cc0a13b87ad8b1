// Low-rank compression: error bounds, rank recovery, recompression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tlr/compression.hpp"

namespace gsx::tlr {
namespace {

using gsx::test::random_lowrank;
using gsx::test::random_matrix;

/// A covariance-like block: smooth decay with distance, numerically low-rank.
la::Matrix<double> covariance_block(std::size_t m, std::size_t n, double sep) {
  la::Matrix<double> a(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      const double xi = static_cast<double>(i) / static_cast<double>(m);
      const double xj = sep + static_cast<double>(j) / static_cast<double>(n);
      a(i, j) = std::exp(-std::fabs(xi - xj) * 3.0);
    }
  return a;
}

struct MethodCase {
  CompressionMethod method;
  const char* name;
};

class CompressionMethods : public ::testing::TestWithParam<MethodCase> {};

TEST_P(CompressionMethods, MeetsAbsoluteTolerance) {
  Rng rng(11);
  const auto a = covariance_block(40, 36, 1.5);
  for (double tol : {1e-2, 1e-4, 1e-8}) {
    Rng local(5);
    const Compressed c = compress(GetParam().method, a.cview(), tol, local,
                                  TolMode::Absolute);
    EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), tol * 1.0001)
        << GetParam().name << " tol=" << tol;
  }
}

TEST_P(CompressionMethods, MeetsRelativeTolerance) {
  const auto a = covariance_block(32, 32, 2.0);
  const double norm = la::norm_frobenius<double>(a.cview());
  for (double tol : {1e-3, 1e-6}) {
    Rng local(6);
    const Compressed c = compress(GetParam().method, a.cview(), tol, local,
                                  TolMode::RelativeFrobenius);
    EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), tol * norm * 1.0001)
        << GetParam().name << " tol=" << tol;
  }
}

TEST_P(CompressionMethods, RecoversExactRank) {
  Rng rng(21);
  const auto a = random_lowrank(30, 25, 4, rng);
  Rng local(7);
  const Compressed c = compress(GetParam().method, a.cview(), 1e-10, local,
                                TolMode::RelativeFrobenius);
  EXPECT_GE(c.rank(), 4u) << GetParam().name;
  EXPECT_LE(c.rank(), 8u) << GetParam().name << ": rank should stay near the true rank";
  EXPECT_LE(lowrank_error(a.cview(), c.u, c.v),
            1e-9 * la::norm_frobenius<double>(a.cview()));
}

TEST_P(CompressionMethods, TighterToleranceNeverLowersRank) {
  const auto a = covariance_block(36, 36, 1.2);
  Rng r1(8), r2(8);
  const Compressed loose = compress(GetParam().method, a.cview(), 1e-2, r1,
                                    TolMode::Absolute);
  const Compressed tight = compress(GetParam().method, a.cview(), 1e-9, r2,
                                    TolMode::Absolute);
  EXPECT_LE(loose.rank(), tight.rank()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(All, CompressionMethods,
                         ::testing::Values(MethodCase{CompressionMethod::SVD, "svd"},
                                           MethodCase{CompressionMethod::ACA, "aca"},
                                           MethodCase{CompressionMethod::RSVD, "rsvd"}),
                         [](const auto& info) { return info.param.name; });

TEST(CompressAca, MeetsToleranceOnNearMaternTile) {
  // A near off-diagonal tile: two 128-point clusters 0.5 apart, exponential
  // Matérn at range 0.1. The last rank-1 term drops below tau well before
  // the residual does, so the heuristic stop alone leaves ||A - U V^T||_F
  // ~1.7 tau here.
  Rng rng(3);
  const auto a_locs = geostat::perturbed_grid_locations(128, rng);
  auto b_locs = geostat::perturbed_grid_locations(128, rng);
  for (auto& l : b_locs) l.x += 0.5;
  const geostat::MaternCovariance model(1.0, 0.1, 0.5);
  const la::Matrix<double> a = geostat::cross_covariance(model, a_locs, b_locs);
  const double norm = la::norm_frobenius<double>(a.cview());

  const Compressed abs = compress_aca(a.cview(), 1e-8, TolMode::Absolute);
  EXPECT_LE(lowrank_error(a.cview(), abs.u, abs.v), 1e-8);
  const Compressed rel = compress_aca(a.cview(), 1e-8, TolMode::RelativeFrobenius);
  EXPECT_LE(lowrank_error(a.cview(), rel.u, rel.v), 1e-8 * norm);
}

TEST(CompressSvd, ZeroMatrixGivesRankZero) {
  const la::Matrix<double> a(10, 10);
  const Compressed c = compress_svd(a.cview(), 1e-8, TolMode::Absolute);
  EXPECT_EQ(c.rank(), 0u);
}

TEST(CompressSvd, RectangularBlocks) {
  Rng rng(31);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{20, 8},
                      std::pair<std::size_t, std::size_t>{8, 20}}) {
    const auto a = random_lowrank(m, n, 3, rng);
    const Compressed c = compress_svd(a.cview(), 1e-12, TolMode::RelativeFrobenius);
    EXPECT_EQ(c.u.rows(), m);
    EXPECT_EQ(c.v.rows(), n);
    EXPECT_LE(lowrank_error(a.cview(), c.u, c.v),
              1e-10 * la::norm_frobenius<double>(a.cview()));
  }
}

TEST(Recompress, ReducesInflatedRank) {
  Rng rng(41);
  // Build an exactly rank-3 block represented with rank 12 factors.
  const auto a = random_lowrank(24, 20, 3, rng);
  Compressed c = compress_svd(a.cview(), 1e-14, TolMode::Absolute);
  const std::size_t true_rank = c.rank();
  // Inflate: duplicate columns scaled by 0.5 (same span, higher rank).
  la::Matrix<double> u2(24, 2 * true_rank), v2(20, 2 * true_rank);
  for (std::size_t j = 0; j < true_rank; ++j) {
    for (std::size_t i = 0; i < 24; ++i) {
      u2(i, j) = 0.5 * c.u(i, j);
      u2(i, true_rank + j) = 0.5 * c.u(i, j);
    }
    for (std::size_t i = 0; i < 20; ++i) {
      v2(i, j) = c.v(i, j);
      v2(i, true_rank + j) = c.v(i, j);
    }
  }
  recompress(u2, v2, 1e-10, TolMode::Absolute);
  EXPECT_EQ(u2.cols(), true_rank);
  EXPECT_LE(lowrank_error(a.cview(), u2, v2), 1e-8);
}

TEST(Recompress, PreservesValueWithinTolerance) {
  Rng rng(42);
  const std::size_t m = 30, n = 26, k = 9;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());
  recompress(u, v, 1e-6, TolMode::Absolute);
  EXPECT_LE(lowrank_error(before.cview(), u, v), 1e-6 * 1.0001);
}

TEST(Recompress, RankZeroIsNoop) {
  la::Matrix<double> u(10, 0), v(8, 0);
  recompress(u, v, 1e-8, TolMode::Absolute);
  EXPECT_EQ(u.cols(), 0u);
}

TEST(Recompress, WideFactorsFallBackToDenseSvd) {
  Rng rng(43);
  // k > min(m, n): the QR path is invalid; must fall back gracefully.
  const std::size_t m = 6, n = 5, k = 9;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());
  recompress(u, v, 1e-10, TolMode::Absolute);
  EXPECT_LE(u.cols(), std::min(m, n));
  EXPECT_LE(lowrank_error(before.cview(), u, v), 1e-8);
}

TEST(Compression, MatérnOffDiagonalBlockIsLowRank) {
  // The actual application structure: a far off-diagonal block of a Matérn
  // covariance matrix over 1-D sorted locations compresses to low rank.
  const geostat::MaternCovariance model(1.0, 0.1, 0.5);
  const std::size_t b = 48;
  la::Matrix<double> block(b, b);
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < b; ++i) {
      const geostat::Location p{static_cast<double>(i) / b, 0.0, 0.0};
      const geostat::Location q{2.0 + static_cast<double>(j) / b, 0.0, 0.0};
      block(i, j) = model(p, q);
    }
  const Compressed c = compress_svd(block.cview(), 1e-8, TolMode::Absolute);
  EXPECT_LT(c.rank(), b / 4) << "separated covariance blocks must be low-rank";
}

// --- truncated-QR compress_svd against the full Jacobi SVD oracle ---------

/// Singular values of `a` from the full Jacobi SVD (descending).
std::vector<double> spectrum(const la::Matrix<double>& a) {
  la::Matrix<double> u, v;
  std::vector<double> s;
  la::svd_jacobi(a, u, s, v);
  return s;
}

/// Optimal truncation rank: the smallest k with
/// sqrt(sum_{i>=k} s_i^2) <= threshold.
std::size_t oracle_rank(const std::vector<double>& s, double threshold) {
  std::size_t k = s.size();
  double tail = 0.0;
  while (k > 0 && std::sqrt(tail + s[k - 1] * s[k - 1]) <= threshold) {
    tail += s[k - 1] * s[k - 1];
    --k;
  }
  return k;
}

/// compress_svd must land exactly on the oracle rank and within the bound.
void expect_optimal(const la::Matrix<double>& a, const std::vector<double>& s, double tol,
                    TolMode mode, const std::string& what) {
  const double threshold =
      mode == TolMode::Absolute ? tol : tol * la::norm_frobenius<double>(a.cview());
  const Compressed c = compress_svd(a.cview(), tol, mode);
  EXPECT_EQ(c.u.rows(), a.rows()) << what;
  EXPECT_EQ(c.v.rows(), a.cols()) << what;
  EXPECT_EQ(c.rank(), oracle_rank(s, threshold)) << what;
  EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), threshold) << what;
}

void expect_optimal(const la::Matrix<double>& a, double tol, TolMode mode,
                    const std::string& what) {
  expect_optimal(a, spectrum(a), tol, mode, what);
}

TEST(CompressSvd, OptimalRankOnEveryMaternTileDistance) {
  // A small Morton-sorted 2-D Matern problem with a ragged last tile: every
  // sub-diagonal distance, near (high rank) to far (low rank), in both
  // tolerance modes. The ragged tile row also makes its tiles wide (m < n).
  const std::size_t n = 500, nb = 64, nt = (n + nb - 1) / nb;
  Rng rng(17);
  auto locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.1, 0.5);
  for (std::size_t d = 1; d < nt; ++d)
    for (std::size_t tj = 0; tj + d < nt; ++tj) {
      const std::size_t ti = tj + d;
      const std::size_t m = std::min(nb, n - ti * nb);
      la::Matrix<double> a(m, nb);
      for (std::size_t j = 0; j < nb; ++j)
        for (std::size_t i = 0; i < m; ++i) a(i, j) = model(locs[ti * nb + i], locs[tj * nb + j]);
      const std::string what = "tile (" + std::to_string(ti) + "," + std::to_string(tj) + ")";
      const std::vector<double> s = spectrum(a);
      expect_optimal(a, s, 1e-8, TolMode::Absolute, what + " abs");
      expect_optimal(a, s, 1e-9, TolMode::RelativeFrobenius, what + " rel");
    }
}

TEST(CompressSvd, OptimalRankOnEdgeShapes) {
  Rng rng(51);
  // Zero tile: nothing to keep in either mode (relative threshold is 0).
  expect_optimal(la::Matrix<double>(12, 9), 1e-8, TolMode::Absolute, "zero abs");
  expect_optimal(la::Matrix<double>(12, 9), 1e-8, TolMode::RelativeFrobenius, "zero rel");
  // Wide (m < n) and ragged covariance blocks.
  expect_optimal(covariance_block(17, 45, 0.6), 1e-8, TolMode::Absolute, "wide");
  expect_optimal(covariance_block(45, 17, 0.6), 1e-8, TolMode::Absolute, "tall ragged");
  expect_optimal(covariance_block(37, 29, 0.2), 1e-10, TolMode::RelativeFrobenius,
                 "ragged rel");
  // Exactly rank 5, tall and wide.
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{40, 30},
                      std::pair<std::size_t, std::size_t>{30, 40}}) {
    const auto a = random_lowrank(m, n, 5, rng);
    const Compressed c = compress_svd(a.cview(), 1e-10, TolMode::RelativeFrobenius);
    EXPECT_EQ(c.rank(), 5u) << m << "x" << n;
    expect_optimal(a, 1e-10, TolMode::RelativeFrobenius, "rank-5");
  }
  // Full rank at a tolerance far below the smallest singular value: the QR
  // runs to completion and every direction is kept.
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{30, 20},
                      std::pair<std::size_t, std::size_t>{20, 30},
                      std::pair<std::size_t, std::size_t>{24, 24}}) {
    const auto a = random_matrix(m, n, rng);
    const Compressed c = compress_svd(a.cview(), 1e-14, TolMode::Absolute);
    EXPECT_EQ(c.rank(), std::min(m, n)) << m << "x" << n;
    EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), 1e-12) << m << "x" << n;  // rounding only
  }
}

}  // namespace
}  // namespace gsx::tlr
