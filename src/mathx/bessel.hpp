// Modified Bessel function of the second kind, K_nu, for real order nu >= 0.
//
// The Matérn covariance C(r) = sigma^2 * 2^{1-nu}/Gamma(nu) * (r)^nu * K_nu(r)
// requires K_nu for arbitrary real smoothness nu, evaluated O(n^2) times
// during covariance-matrix generation. The implementation follows the
// classical approach (Temme's series for x <= 2, Steed's second continued
// fraction for x > 2, upward recurrence in the order). BesselKFixedOrder
// hoists everything that depends on the order alone out of the per-argument
// work, for assembling whole covariance tiles at one smoothness.
#pragma once

#include <array>
#include <cstddef>

namespace gsx::mathx {

/// K_nu(x) for x > 0, any real nu (K_{-nu} = K_nu). Throws InvalidArgument
/// for x <= 0 or non-finite inputs. Relative accuracy ~1e-14 over the range
/// exercised by geostatistics (x in [1e-8, 700], nu in [0.01, 30]).
double bessel_k(double nu, double x);

/// exp(x) * K_nu(x): numerically stable for large x where K_nu underflows.
double bessel_k_scaled(double nu, double x);

/// x^nu K_nu(x) at one fixed order for many arguments. The order-only parts
/// of Temme's series (the gamma terms and pi*mu/sin(pi*mu)) and the
/// reciprocals of its per-term divisors are computed once. For x >= 2 a
/// Chebyshev expansion of log(sqrt(x) e^x K_nu(x)) in u = 4/x - 1 replaces
/// Steed's CF2. The expansion is fitted to CF2 at the Chebyshev nodes and
/// checked at the points between them and at x = 2 and x = 700 against
/// bessel_k_scaled; an order whose expansion misses the check keeps CF2.
///
/// Arguments are evaluated in vector lanes (AVX-512, AVX2 or portable, by
/// the process's dispatched ISA; GSX_GEMM_ISA caps it), with polynomial
/// exp/log in the lanes. A result's bits depend only on its argument and
/// the ISA, not on its position in a batch or the batch's length.
class BesselKFixedOrder {
 public:
  explicit BesselKFixedOrder(double nu);

  /// True when x >= 2 is served by the expansion, false when the set-up
  /// check rejected it and each call runs CF2.
  [[nodiscard]] bool uses_expansion() const noexcept { return cheb_len_ > 0; }

  /// x^nu K_nu(x) for x > 0; underflows to 0 for large x, and is 0 at
  /// x = +inf. NaN for NaN and for x <= 0. A batch of one.
  [[nodiscard]] double xnu_k(double x) const;

  /// out[i] = xnu_k(x[i]) for i < n; `out` may equal `x`. x < 2 runs
  /// Temme's series with each lane stopping at its own convergence, x >= 2
  /// the expansion, several vectors at a time (CF2 per element where the
  /// expansion failed its check).
  void xnu_k(const double* x, double* out, std::size_t n) const;

 private:
  /// Largest relative error the set-up check accepts from the expansion.
  static constexpr double kCheckTol = 3e-14;
  static constexpr int kTemmeTerms = 40;
  static constexpr int kChebTerms = 32;

  struct Kernel;  // the lane kernels, defined in bessel.cpp

  double nu_ = 0.0;
  int nl_ = 0;        // upward recurrence steps from xmu to nu
  double xmu_ = 0.0;  // nu - nl, in [-1/2, 1/2]
  // Temme series constants.
  double fct_ = 0.0, gam1_ = 0.0, gam2_ = 0.0, half_gampl_inv_ = 0.0, half_gammi_inv_ = 0.0;
  std::array<double, kTemmeTerms + 1> inv_den_{};    // 1 / (i^2 - xmu^2)
  std::array<double, kTemmeTerms + 1> inv_i_{};      // 1 / i
  std::array<double, kTemmeTerms + 1> inv_minus_{};  // 1 / (i - xmu)
  std::array<double, kTemmeTerms + 1> inv_plus_{};   // 1 / (i + xmu)
  std::array<double, kChebTerms> cheb_{};
  int cheb_len_ = 0;  // 0: the check failed, x >= 2 runs CF2
};

/// Modified Bessel function of the first kind, I_nu(x), x > 0, nu >= 0.
/// (Computed by the same routine; exposed for testing the Wronskian
/// identity I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x.)
double bessel_i(double nu, double x);

}  // namespace gsx::mathx
