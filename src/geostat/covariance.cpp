#include "geostat/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "mathx/bessel.hpp"
#include "mathx/distance.hpp"

namespace gsx::geostat {

namespace {

/// Beyond this scaled distance the Matérn correlation is taken as 0.
constexpr double kMaternCutoff = 700.0;

/// Validates before the smoothness-dependent members are built; returns the
/// variance.
double require_matern_params(double variance, double range, double smoothness,
                             double nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && smoothness > 0 && nugget >= 0,
              "MaternCovariance: parameters must be positive (nugget >= 0)");
  return variance;
}

// Closed forms of the Matérn correlation at half-integer smoothness.
double matern_05(double d) { return std::exp(-d); }
double matern_15(double d) { return (1.0 + d) * std::exp(-d); }
double matern_25(double d) { return (1.0 + d + d * d / 3.0) * std::exp(-d); }

double matern_norm(double nu) {
  return std::exp((1.0 - nu) * std::log(2.0) - std::lgamma(nu));
}

/// A diagonal tile: rows and cols are the same span, and only i >= j is
/// evaluated.
bool is_diagonal_block(std::span<const Location> rows, std::span<const Location> cols) {
  return rows.data() == cols.data() && rows.size() == cols.size();
}

/// Copies the evaluated lower triangle of a diagonal tile to the upper one.
/// Both kernels below compute entry (i, j) from the same operands as (j, i)
/// would use, so the copy is exact.
void mirror_lower(Span2D<double> out) {
  for (std::size_t j = 1; j < out.cols(); ++j)
    for (std::size_t i = 0; i < j; ++i) out(i, j) = out(j, i);
}

/// out(i, j) = variance * corr(d / range) with d the planar distance of
/// rows[i] and cols[j], plus the nugget where d = 0. The distance and scaling
/// are operator()'s, so a closed-form corr gives operator()'s bits.
template <class Corr>
void fill_isotropic(std::span<const Location> rows, std::span<const Location> cols,
                    Span2D<double> out, double variance, double range, double nugget,
                    Corr corr) {
  const bool symmetric = is_diagonal_block(rows, cols);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const Location b = cols[j];
    double* col = &out(0, j);
    for (std::size_t i = symmetric ? j : 0; i < rows.size(); ++i) {
      const double d = mathx::euclidean2d(rows[i].x, rows[i].y, b.x, b.y);
      col[i] = (d == 0.0) ? variance + nugget : variance * corr(d / range);
    }
  }
  if (symmetric) mirror_lower(out);
}

void require_block_shape(std::span<const Location> rows, std::span<const Location> cols,
                         Span2D<double> out) {
  GSX_REQUIRE(out.rows() == rows.size() && out.cols() == cols.size(),
              "evaluate_block: block shape does not match the location sets");
}

}  // namespace

void CovarianceModel::evaluate_block(std::span<const Location> rows,
                                     std::span<const Location> cols,
                                     Span2D<double> out) const {
  require_block_shape(rows, cols, out);
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (std::size_t i = 0; i < rows.size(); ++i) out(i, j) = (*this)(rows[i], cols[j]);
}

double matern_correlation(double nu, double d) {
  GSX_REQUIRE(nu > 0.0, "matern_correlation: smoothness must be positive");
  GSX_REQUIRE(d >= 0.0, "matern_correlation: distance must be non-negative");
  if (d == 0.0) return 1.0;
  // Closed forms for half-integer smoothness (the common special cases).
  if (nu == 0.5) return matern_05(d);
  if (nu == 1.5) return matern_15(d);
  if (nu == 2.5) return matern_25(d);
  // General case; for large d the product underflows to 0, which is the
  // correct limit, so compute through the scaled Bessel to avoid premature
  // underflow: K_nu(d) = e^{-d} * K_scaled.
  if (d > kMaternCutoff) return 0.0;
  const double log_pref = (1.0 - nu) * std::log(2.0) - std::lgamma(nu) + nu * std::log(d);
  const double k_scaled = mathx::bessel_k_scaled(nu, d);
  const double val = std::exp(log_pref - d) * k_scaled;
  return std::min(val, 1.0);  // guard tiny numerical overshoot near d -> 0
}

// ---------------------------------------------------------------- Matérn

MaternCovariance::MaternCovariance(double variance, double range, double smoothness,
                                   double nugget)
    : variance_(require_matern_params(variance, range, smoothness, nugget)),
      range_(range),
      smoothness_(smoothness),
      nugget_(nugget),
      norm_(matern_norm(smoothness)),
      bessel_(smoothness) {}

double MaternCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * matern_correlation(smoothness_, d / range_);
  return (d == 0.0) ? c + nugget_ : c;
}

void MaternCovariance::evaluate_block(std::span<const Location> rows,
                                      std::span<const Location> cols,
                                      Span2D<double> out) const {
  require_block_shape(rows, cols, out);
  const auto fill = [&](auto corr) {
    fill_isotropic(rows, cols, out, variance_, range_, nugget_, corr);
  };
  if (smoothness_ == 0.5) return fill([](double x) { return matern_05(x); });
  if (smoothness_ == 1.5) return fill([](double x) { return matern_15(x); });
  if (smoothness_ == 2.5) return fill([](double x) { return matern_25(x); });
  if (rows.empty() || cols.empty()) return;

  // General smoothness, one column at a time: the scaled distances of the
  // column and one Bessel call, both in vector lanes, then the normalizer,
  // the clamp at 1, the cut-off and the nugget. The nugget goes where the
  // coordinates coincide: the lane distance underflows to 0 for points
  // ~1e-170 apart, which are not the same location (their correlation is 1
  // to rounding).
  const std::size_t m = rows.size();
  const bool symmetric = is_diagonal_block(rows, cols);
  std::vector<double> buf(3 * m);
  double* rx = buf.data();
  double* ry = rx + m;
  double* xs = ry + m;
  for (std::size_t i = 0; i < m; ++i) {
    rx[i] = rows[i].x;
    ry[i] = rows[i].y;
  }
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const double bx = cols[j].x, by = cols[j].y;
    const std::size_t i0 = symmetric ? j : 0;
    double* col = &out(0, j);
    mathx::scaled_distances(rx + i0, ry + i0, bx, by, range_, xs + i0, m - i0);
    bessel_.xnu_k(xs + i0, col + i0, m - i0);
    for (std::size_t i = i0; i < m; ++i) {
      const double x = xs[i];
      // std::min(NaN, 1) is NaN: a NaN coordinate leaves a NaN entry for
      // the assembly sentinel to count.
      const double corr =
          x > kMaternCutoff ? 0.0 : (x == 0.0 ? 1.0 : std::min(norm_ * col[i], 1.0));
      col[i] = (rx[i] == bx && ry[i] == by) ? variance_ + nugget_ : variance_ * corr;
    }
  }
  if (symmetric) mirror_lower(out);
}

std::vector<double> MaternCovariance::params() const {
  return {variance_, range_, smoothness_};
}

void MaternCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 3, "MaternCovariance: expects 3 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0,
              "MaternCovariance: parameters must be positive");
  variance_ = theta[0];
  range_ = theta[1];
  if (theta[2] != smoothness_) {
    smoothness_ = theta[2];
    norm_ = matern_norm(smoothness_);
    bessel_ = mathx::BesselKFixedOrder(smoothness_);
  }
}

std::vector<double> MaternCovariance::lower_bounds() const { return {0.01, 0.005, 0.05}; }
std::vector<double> MaternCovariance::upper_bounds() const { return {10.0, 5.0, 5.0}; }
std::vector<std::string> MaternCovariance::param_names() const {
  return {"variance", "range", "smoothness"};
}
std::unique_ptr<CovarianceModel> MaternCovariance::clone() const {
  return std::make_unique<MaternCovariance>(*this);
}

// ---------------------------------------------- Powered exponential

PoweredExponentialCovariance::PoweredExponentialCovariance(double variance, double range,
                                                           double power, double nugget)
    : variance_(variance), range_(range), power_(power), nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && power > 0 && power <= 2.0 && nugget >= 0,
              "PoweredExponentialCovariance: invalid parameters");
}

double PoweredExponentialCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * std::exp(-std::pow(d / range_, power_));
  return (d == 0.0) ? c + nugget_ : c;
}

std::vector<double> PoweredExponentialCovariance::params() const {
  return {variance_, range_, power_};
}

void PoweredExponentialCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 3, "PoweredExponentialCovariance: expects 3 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[2] <= 2.0,
              "PoweredExponentialCovariance: invalid parameters");
  variance_ = theta[0];
  range_ = theta[1];
  power_ = theta[2];
}

std::vector<double> PoweredExponentialCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05};
}
std::vector<double> PoweredExponentialCovariance::upper_bounds() const {
  return {10.0, 5.0, 2.0};
}
std::vector<std::string> PoweredExponentialCovariance::param_names() const {
  return {"variance", "range", "power"};
}
std::unique_ptr<CovarianceModel> PoweredExponentialCovariance::clone() const {
  return std::make_unique<PoweredExponentialCovariance>(*this);
}

// ------------------------------------------------------ Gneiting

GneitingCovariance::GneitingCovariance(double variance, double range_s, double smooth_s,
                                       double range_t, double smooth_t, double beta,
                                       double nugget)
    : variance_(variance),
      range_s_(range_s),
      smooth_s_(smooth_s),
      range_t_(range_t),
      smooth_t_(smooth_t),
      beta_(beta),
      nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range_s > 0 && smooth_s > 0 && range_t > 0,
              "GneitingCovariance: scale parameters must be positive");
  GSX_REQUIRE(smooth_t > 0 && smooth_t <= 1.0, "GneitingCovariance: alpha in (0, 1]");
  GSX_REQUIRE(beta >= 0 && beta <= 1.0, "GneitingCovariance: beta in [0, 1]");
  GSX_REQUIRE(nugget >= 0, "GneitingCovariance: nugget must be non-negative");
}

double GneitingCovariance::operator()(const Location& a, const Location& b) const {
  const double h = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double u = std::fabs(a.t - b.t);
  const double psi = range_t_ * std::pow(u, 2.0 * smooth_t_) + 1.0;
  const double arg = h / (range_s_ * std::pow(psi, beta_ / 2.0));
  const double c = variance_ / psi * matern_correlation(smooth_s_, arg);
  return (h == 0.0 && u == 0.0) ? c + nugget_ : c;
}

std::vector<double> GneitingCovariance::params() const {
  return {variance_, range_s_, smooth_s_, range_t_, smooth_t_, beta_};
}

void GneitingCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 6, "GneitingCovariance: expects 6 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[3] > 0,
              "GneitingCovariance: scale parameters must be positive");
  GSX_REQUIRE(theta[4] > 0 && theta[4] <= 1.0, "GneitingCovariance: alpha in (0, 1]");
  GSX_REQUIRE(theta[5] >= 0 && theta[5] <= 1.0, "GneitingCovariance: beta in [0, 1]");
  variance_ = theta[0];
  range_s_ = theta[1];
  smooth_s_ = theta[2];
  range_t_ = theta[3];
  smooth_t_ = theta[4];
  beta_ = theta[5];
}

std::vector<double> GneitingCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05, 0.001, 0.01, 0.0};
}
std::vector<double> GneitingCovariance::upper_bounds() const {
  return {10.0, 10.0, 5.0, 10.0, 1.0, 1.0};
}
std::vector<std::string> GneitingCovariance::param_names() const {
  return {"variance", "range-space", "smooth-space", "range-time", "smooth-time", "beta"};
}
std::unique_ptr<CovarianceModel> GneitingCovariance::clone() const {
  return std::make_unique<GneitingCovariance>(*this);
}

}  // namespace gsx::geostat
