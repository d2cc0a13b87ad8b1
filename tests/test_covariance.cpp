// Covariance models: values, SPD property, parameter plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "la/lapack.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "test_utils.hpp"

namespace gsx::geostat {
namespace {

TEST(MaternCorrelation, ClosedFormHalf) {
  for (double d : {0.1, 0.5, 1.0, 3.0})
    EXPECT_NEAR(matern_correlation(0.5, d), std::exp(-d), 1e-14);
}

TEST(MaternCorrelation, ClosedFormThreeHalves) {
  for (double d : {0.1, 0.5, 2.0})
    EXPECT_NEAR(matern_correlation(1.5, d), (1.0 + d) * std::exp(-d), 1e-14);
}

TEST(MaternCorrelation, ClosedFormFiveHalves) {
  for (double d : {0.2, 1.0, 4.0})
    EXPECT_NEAR(matern_correlation(2.5, d), (1.0 + d + d * d / 3.0) * std::exp(-d), 1e-14);
}

TEST(MaternCorrelation, GeneralOrderContinuityWithClosedForms) {
  // The Bessel path evaluated *at* nu = 0.5 +/- tiny must agree with the
  // closed form (continuity across the special-case dispatch).
  for (double d : {0.3, 1.0, 2.5}) {
    EXPECT_NEAR(matern_correlation(0.5 + 1e-9, d), std::exp(-d), 1e-6);
    EXPECT_NEAR(matern_correlation(1.5 + 1e-9, d), (1.0 + d) * std::exp(-d), 1e-6);
  }
}

TEST(MaternCorrelation, BasicProperties) {
  for (double nu : {0.2, 0.44, 1.0, 2.7}) {
    EXPECT_DOUBLE_EQ(matern_correlation(nu, 0.0), 1.0);
    double prev = 1.0;
    for (double d = 0.05; d < 10.0; d *= 1.7) {
      const double c = matern_correlation(nu, d);
      EXPECT_GT(c, 0.0);
      EXPECT_LE(c, 1.0);
      EXPECT_LT(c, prev) << "monotone decreasing, nu=" << nu << " d=" << d;
      prev = c;
    }
  }
}

TEST(MaternCorrelation, UnderflowsToZeroGracefully) {
  EXPECT_EQ(matern_correlation(0.44, 800.0), 0.0);
  EXPECT_GT(matern_correlation(0.44, 600.0), 0.0);
}

TEST(MaternCovariance, ValueAndNugget) {
  const MaternCovariance m(2.0, 0.5, 1.5, 0.1);
  const Location a{0.0, 0.0, 0.0};
  const Location b{0.3, 0.4, 0.0};  // distance 0.5
  EXPECT_NEAR(m(a, b), 2.0 * (1.0 + 1.0) * std::exp(-1.0), 1e-12);
  EXPECT_NEAR(m(a, a), 2.0 + 0.1, 1e-12);  // nugget only on the diagonal
}

TEST(MaternCovariance, ParameterRoundTrip) {
  MaternCovariance m(1.0, 0.1, 0.5);
  const std::vector<double> theta = {0.7, 0.22, 1.3};
  m.set_params(theta);
  EXPECT_EQ(m.params(), theta);
  EXPECT_EQ(m.num_params(), 3u);
  EXPECT_EQ(m.param_names().size(), 3u);
  EXPECT_EQ(m.lower_bounds().size(), 3u);
  EXPECT_EQ(m.upper_bounds().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(m.lower_bounds()[i], m.upper_bounds()[i]);
  }
}

TEST(MaternCovariance, RejectsInvalidParameters) {
  EXPECT_THROW(MaternCovariance(-1.0, 0.1, 0.5), InvalidArgument);
  EXPECT_THROW(MaternCovariance(1.0, 0.0, 0.5), InvalidArgument);
  MaternCovariance m(1.0, 0.1, 0.5);
  const std::vector<double> bad = {1.0, -0.1, 0.5};
  EXPECT_THROW(m.set_params(bad), InvalidArgument);
  const std::vector<double> wrong_size = {1.0, 0.1};
  EXPECT_THROW(m.set_params(wrong_size), InvalidArgument);
}

TEST(MaternCovariance, CloneIsIndependent) {
  MaternCovariance m(1.0, 0.1, 0.5);
  auto c = m.clone();
  const std::vector<double> theta = {2.0, 0.3, 1.0};
  c->set_params(theta);
  EXPECT_NE(m.params(), c->params());
}

TEST(PoweredExponential, GaussianAndExponentialLimits) {
  const PoweredExponentialCovariance e1(1.0, 1.0, 1.0);
  const PoweredExponentialCovariance e2(1.0, 1.0, 2.0);
  const Location a{0, 0, 0}, b{1, 0, 0};
  EXPECT_NEAR(e1(a, b), std::exp(-1.0), 1e-14);
  EXPECT_NEAR(e2(a, b), std::exp(-1.0), 1e-14);
  const Location c{2, 0, 0};
  EXPECT_NEAR(e2(a, c), std::exp(-4.0), 1e-14);
  EXPECT_THROW(PoweredExponentialCovariance(1.0, 1.0, 2.5), InvalidArgument);
}

TEST(Gneiting, SeparableWhenBetaZero) {
  const GneitingCovariance g(1.0, 0.5, 0.8, 0.7, 0.6, 0.0);
  const Location a{0, 0, 0}, b{0.3, 0, 2.0};
  // beta = 0: C(h, u) = sigma^2/psi(u) * M(h/a_s) factors exactly.
  const double psi = 0.7 * std::pow(2.0, 2 * 0.6) + 1.0;
  const double expect = 1.0 / psi * matern_correlation(0.8, 0.3 / 0.5);
  EXPECT_NEAR(g(a, b), expect, 1e-13);
}

TEST(Gneiting, NonseparableCouplesSpaceAndTime) {
  const GneitingCovariance g(1.0, 0.5, 0.8, 0.7, 0.6, 0.8);
  const Location a{0, 0, 0};
  const Location b{0.3, 0, 0.0};
  const Location c{0.3, 0, 2.0};
  // With beta > 0, the effective spatial range grows with |u|: the spatial
  // *correlation ratio* differs from the separable product.
  const double psi = 0.7 * std::pow(2.0, 2 * 0.6) + 1.0;
  const double separable_value = g(a, b) / psi;
  EXPECT_GT(g(a, c), separable_value);
}

TEST(Gneiting, TemporalDecay) {
  const GneitingCovariance g(1.0, 0.5, 0.8, 0.7, 0.6, 0.5);
  const Location a{0, 0, 0};
  double prev = g(a, a);
  for (double t = 1.0; t < 6.0; t += 1.0) {
    const Location b{0, 0, t};
    const double c = g(a, b);
    EXPECT_LT(c, prev);
    prev = c;
  }
}

TEST(Gneiting, ParameterValidation) {
  EXPECT_THROW(GneitingCovariance(1, 1, 1, 1, 1.5, 0.5), InvalidArgument);  // alpha > 1
  EXPECT_THROW(GneitingCovariance(1, 1, 1, 1, 0.5, 1.5), InvalidArgument);  // beta > 1
  EXPECT_NO_THROW(GneitingCovariance(1, 1, 1, 1, 1.0, 1.0));
  GneitingCovariance g(1, 1, 1, 1, 0.5, 0.5);
  EXPECT_EQ(g.num_params(), 6u);
  const std::vector<double> theta = {1.0, 2.0, 0.3, 0.01, 0.9, 0.19};
  g.set_params(theta);
  EXPECT_EQ(g.params(), theta);
}

class SpdCheck : public ::testing::TestWithParam<double> {};

TEST_P(SpdCheck, MaternCovarianceMatrixIsSpd) {
  const double range = GetParam();
  Rng rng(11);
  auto locs = perturbed_grid_locations(80, rng);
  const MaternCovariance model(1.0, range, 0.44, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  EXPECT_EQ(la::potrf<double>(la::Uplo::Lower, sigma.view()), 0)
      << "Matérn covariance must be SPD at range " << range;
}

INSTANTIATE_TEST_SUITE_P(Ranges, SpdCheck, ::testing::Values(0.03, 0.1, 0.3));

TEST(SpdCheckSpaceTime, GneitingCovarianceMatrixIsSpd) {
  Rng rng(13);
  auto spatial = perturbed_grid_locations(25, rng);
  auto locs = replicate_in_time(spatial, 6, 1.0);
  const GneitingCovariance model(1.0, 0.2, 0.5, 0.5, 0.9, 0.3, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  EXPECT_EQ(la::potrf<double>(la::Uplo::Lower, sigma.view()), 0);
}

TEST(CrossCovariance, MatchesElementwiseModel) {
  Rng rng(17);
  auto a = perturbed_grid_locations(9, rng);
  auto b = perturbed_grid_locations(16, rng);
  const MaternCovariance model(1.5, 0.2, 0.5);
  const auto sigma = cross_covariance(model, a, b);
  ASSERT_EQ(sigma.rows(), 9u);
  ASSERT_EQ(sigma.cols(), 16u);
  for (std::size_t j = 0; j < 16; ++j)
    for (std::size_t i = 0; i < 9; ++i)
      EXPECT_DOUBLE_EQ(sigma(i, j), model(a[i], b[j]));
}

// ------------------------------------------------ block evaluation

/// evaluate_block against per-element operator(): within 1e-13 relative, or
/// 1e-16 * variance absolute where the value is tiny; bit for bit if `exact`.
void expect_block_matches(const CovarianceModel& model, std::span<const Location> rows,
                          std::span<const Location> cols, double variance, bool exact) {
  la::Matrix<double> blk(rows.size(), cols.size());
  model.evaluate_block(rows, cols, blk.view());
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double ref = model(rows[i], cols[j]);
      if (exact) {
        EXPECT_EQ(blk(i, j), ref) << "i=" << i << " j=" << j;
      } else {
        EXPECT_LE(std::fabs(blk(i, j) - ref), std::max(1e-13 * std::fabs(ref), 1e-16 * variance))
            << "i=" << i << " j=" << j << " block=" << blk(i, j) << " operator=" << ref;
      }
    }
}

/// Points on the x axis at the given multiples of `range` from the origin.
std::vector<Location> at_scaled_distances(std::initializer_list<double> xs, double range) {
  std::vector<Location> out;
  for (const double x : xs) out.push_back(Location{x * range, 0.0, 0.0});
  return out;
}

class CovarianceBlock : public ::testing::TestWithParam<double> {};

TEST_P(CovarianceBlock, MaternMatchesOperatorOverTheWholeDistanceRange) {
  const double nu = GetParam();
  const double range = 0.13;
  const MaternCovariance model(1.7, range, nu, 0.05);
  // d/range from 0 through the x = 2 switch of the Bessel evaluation to
  // past the 700 underflow cut-off.
  const auto rows = at_scaled_distances({0.0, 1e-12, 1e-6, 0.3, 1.0, 1.999999, 2.0, 2.000001,
                                         3.7, 8.0, 30.0, 150.0, 699.0, 701.0, 2000.0},
                                        range);
  const std::vector<Location> origin = {Location{}};
  expect_block_matches(model, rows, origin, 1.7, false);
  // Random layout, several tiles' worth of distances in both directions.
  Rng rng(23);
  const auto locs = perturbed_grid_locations(81, rng);
  expect_block_matches(model, locs, locs, 1.7, false);
  EXPECT_TRUE(mathx::BesselKFixedOrder(nu).uses_expansion()) << "nu=" << nu;
}

// 1.0 and 2.0 sit on the Temme series' sin(pi mu) -> 0 limit; 0.5, 1.5 and
// 2.5 take the closed forms.
INSTANTIATE_TEST_SUITE_P(Smoothness, CovarianceBlock,
                         ::testing::Values(0.05, 0.41, 0.47, 0.5, 1.0, 1.5, 2.0, 2.5, 4.9));

TEST(CovarianceBlockMatern, ClosedFormsAreBitIdentical) {
  Rng rng(29);
  const auto locs = perturbed_grid_locations(49, rng);
  for (const double nu : {0.5, 1.5, 2.5})
    expect_block_matches(MaternCovariance(0.9, 0.2, nu, 1e-3), locs, locs, 0.9, true);
}

TEST(CovarianceBlockMatern, DiagonalBlocksMirrorTheLowerTriangleExactly) {
  // rows and cols the same span (a diagonal tile): only i >= j is
  // evaluated. The result must equal the unaliased evaluation of an equal
  // copy bit for bit, be exactly symmetric, and for closed forms equal
  // operator(). A duplicate location puts a nugget off the diagonal.
  Rng rng(37);
  auto locs = perturbed_grid_locations(40, rng);
  locs.push_back(locs[5]);
  const std::vector<Location> copy = locs;
  for (const double nu : {0.5, 1.5, 0.47}) {
    const MaternCovariance model(1.3, 0.15, nu, 0.01);
    const std::size_t n = locs.size();
    la::Matrix<double> diag(n, n), full(n, n);
    model.evaluate_block(locs, locs, diag.view());
    model.evaluate_block(locs, copy, full.view());
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(&diag(i, j), &full(i, j), sizeof(double)), 0)
            << "nu=" << nu << " (" << i << ", " << j << ")";
        EXPECT_EQ(diag(i, j), diag(j, i));
        if (nu != 0.47) {
          EXPECT_EQ(diag(i, j), model(locs[i], locs[j]));
        }
      }
    EXPECT_EQ(diag(n - 1, 5), 1.3 + 0.01) << "nu=" << nu;
  }
}

TEST(CovarianceBlockMatern, NuggetOnlyWhereLocationsCoincide) {
  const MaternCovariance model(2.0, 0.3, 0.8, 0.25);
  // Location 2 repeats location 0: distance 0 off the diagonal too.
  const std::vector<Location> locs = {{0.1, 0.2, 0.0}, {0.4, 0.2, 0.0}, {0.1, 0.2, 0.0}};
  la::Matrix<double> blk(3, 3);
  model.evaluate_block(locs, locs, blk.view());
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 3; ++i) {
      const bool same = locs[i].x == locs[j].x && locs[i].y == locs[j].y;
      if (same) {
        EXPECT_EQ(blk(i, j), 2.0 + 0.25);
      } else {
        EXPECT_LT(blk(i, j), 2.0);
      }
    }
}

TEST(CovarianceBlockMatern, RaggedAndNonSquareSubBlocks) {
  const MaternCovariance model(1.0, 0.2, 0.44, 1e-6);
  Rng rng(31);
  const auto locs = perturbed_grid_locations(23, rng);
  const std::span<const Location> all(locs);
  // Write each shape into the interior of a larger matrix: the view's
  // leading dimension differs from its row count, and nothing outside the
  // view may change.
  for (auto [r, c] : {std::pair<std::size_t, std::size_t>{7, 3}, {1, 5}, {5, 1}, {23, 2},
                      {1, 1}, {0, 4}}) {
    la::Matrix<double> big(r + 3, c + 2, -7.0);
    model.evaluate_block(all.subspan(11 - r / 2, r), all.subspan(3, c),
                         big.view().sub(2, 1, r, c));
    for (std::size_t j = 0; j < big.cols(); ++j)
      for (std::size_t i = 0; i < big.rows(); ++i) {
        const bool inside = i >= 2 && i < 2 + r && j >= 1 && j < 1 + c;
        if (!inside) {
          EXPECT_EQ(big(i, j), -7.0) << r << "x" << c << " (" << i << ", " << j << ")";
          continue;
        }
        const double ref = model(all[11 - r / 2 + (i - 2)], all[3 + (j - 1)]);
        EXPECT_NEAR(big(i, j), ref, 1e-13 * ref);
      }
  }
  la::Matrix<double> wrong(3, 3);
  EXPECT_THROW(model.evaluate_block(all.subspan(0, 3), all.subspan(0, 2), wrong.view()),
               InvalidArgument);
}

TEST(CovarianceBlockMatern, RaggedTilesMatchDenseOracle) {
  // n = 50 in tiles of 16: the last tile row and column are 2 wide.
  Rng rng(37);
  const auto locs = perturbed_grid_locations(50, rng);
  const MaternCovariance model(1.3, 0.15, 0.7, 1e-4);
  tile::SymTileMatrix tiles(50, 16);
  fill_covariance_tiles(tiles, model, locs, 3);
  const la::Matrix<double> dense = covariance_matrix(model, locs);
  const la::Matrix<double> full = tiles.to_full();
  for (std::size_t j = 0; j < 50; ++j)
    for (std::size_t i = 0; i < 50; ++i)
      EXPECT_LE(std::fabs(full(i, j) - dense(i, j)), 1e-13 * std::fabs(dense(i, j)));
}

TEST(CovarianceBlockMatern, FallsBackToCf2WhenTheExpansionMissesItsCheck) {
  // At nu = 15 the 32-term expansion cannot reach the set-up check's
  // tolerance over x in [2, 700]; the evaluator must notice and keep CF2
  // rather than return the expansion's values.
  const MaternCovariance model(1.0, 0.1, 15.0);
  EXPECT_FALSE(mathx::BesselKFixedOrder(15.0).uses_expansion());
  const auto rows = at_scaled_distances({0.5, 1.9, 2.0, 2.5, 6.0, 20.0, 80.0, 400.0}, 0.1);
  const std::vector<Location> origin = {Location{}};
  expect_block_matches(model, rows, origin, 1.0, false);
  // A smoothness change through set_params rebuilds the evaluator.
  MaternCovariance m2(1.0, 0.1, 0.44);
  const std::vector<double> theta = {1.0, 0.1, 15.0};
  m2.set_params(theta);
  expect_block_matches(m2, rows, origin, 1.0, false);
}

TEST(CovarianceBlockMatern, NuggetByCoordinatesNotByUnderflowedDistance) {
  // Points ~1e-170 apart: dx^2 + dy^2 underflows to 0, hypot does not. They
  // are distinct locations, so they get no nugget, and their correlation
  // is 1 to rounding, as operator() says.
  const MaternCovariance model(1.4, 0.2, 0.44, 0.3);
  const std::vector<Location> locs = {
      {0.0, 0.0, 0.0}, {1e-170, 0.0, 0.0}, {0.0, -3e-171, 0.0}, {1e-170, 0.0, 0.0}};
  la::Matrix<double> blk(4, 4);
  model.evaluate_block(locs, locs, blk.view());
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 4; ++i) {
      const double ref = model(locs[i], locs[j]);
      EXPECT_NEAR(blk(i, j), ref, 1e-13 * ref) << "(" << i << ", " << j << ")";
      const bool same = locs[i].x == locs[j].x && locs[i].y == locs[j].y;
      EXPECT_EQ(blk(i, j), same ? 1.4 + 0.3 : 1.4) << "(" << i << ", " << j << ")";
    }
}

TEST(CovarianceBlockMatern, NonFiniteCoordinates) {
  // An infinite distance gives 0. A NaN coordinate gives NaN entries in its
  // row and column, without throwing, and the assembly sentinel counts them.
  const double inf = std::numeric_limits<double>::infinity();
  const MaternCovariance model(1.0, 0.1, 0.44, 0.01);
  Rng rng(43);
  std::vector<Location> locs = perturbed_grid_locations(20, rng);
  locs[3].x = inf;
  locs[7].y = std::numeric_limits<double>::quiet_NaN();
  const std::span<const Location> far(locs.data() + 3, 1);
  la::Matrix<double> col(20, 1);
  model.evaluate_block(locs, far, col.view());
  for (std::size_t i = 0; i < 20; ++i)
    if (i != 3 && i != 7) EXPECT_EQ(col(i, 0), 0.0) << "i=" << i;

  la::Matrix<double> blk(20, 20);
  EXPECT_NO_THROW(model.evaluate_block(locs, locs, blk.view()));
  for (std::size_t j = 0; j < 20; ++j)
    for (std::size_t i = 0; i < 20; ++i)
      EXPECT_EQ(std::isnan(blk(i, j)), i == 7 || j == 7) << "(" << i << ", " << j << ")";

  obs::reset_health();
  obs::set_log_text_stream(nullptr);
  obs::set_health_enabled(true);
  tile::SymTileMatrix tiles(20, 8);
  EXPECT_NO_THROW(fill_covariance_tiles(tiles, model, locs, 2));
  // Stored tiles (block row >= block column) that hold row 7 or column 7:
  // tile (0, 0) has 15 such entries, tiles (1, 0) and (2, 0) 8 and 4.
  EXPECT_EQ(obs::nonfinite_total(), 27u);
  obs::set_health_enabled(false);
  obs::reset_health();
  obs::reset_log();
}

TEST(Assemble, CovEvalsCountsTheLowerTriangle) {
  // Diagonal tiles evaluate only i >= j, so every assembly path evaluates
  // n(n+1)/2 entries; n = 50 in tiles of 16 leaves a ragged last tile.
  Rng rng(47);
  const auto locs = perturbed_grid_locations(50, rng);
  const MaternCovariance model(1.0, 0.15, 0.44);
  obs::Counter& evals = obs::Registry::instance().counter("assemble.cov_evals");
  obs::set_enabled(true);
  evals.reset();
  (void)covariance_matrix(model, locs);
  EXPECT_EQ(evals.value(), 50u * 51u / 2u);
  evals.reset();
  tile::SymTileMatrix tiles(50, 16);
  fill_covariance_tiles(tiles, model, locs, 2);
  EXPECT_EQ(evals.value(), 50u * 51u / 2u);
  obs::set_enabled(false);
  evals.reset();
}

TEST(CovarianceBlockDefault, OtherModelsAreBitIdentical) {
  Rng rng(41);
  const auto spatial = perturbed_grid_locations(16, rng);
  const auto locs = replicate_in_time(spatial, 3, 1.0);
  const std::span<const Location> all(locs);
  expect_block_matches(PoweredExponentialCovariance(1.2, 0.3, 1.4, 1e-3), all.subspan(0, 13),
                       all, 1.2, true);
  expect_block_matches(GneitingCovariance(1.0, 0.2, 0.6, 0.5, 0.9, 0.3, 1e-4), all,
                       all.subspan(5, 29), 1.0, true);
}

}  // namespace
}  // namespace gsx::geostat
