#include "mathx/bessel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/isa.hpp"
#include "mathx/lanes.hpp"

namespace gsx::mathx {

namespace {

constexpr double kEps = 1.0e-16;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
constexpr int kMaxIter = 10000;
constexpr double kXMin = 2.0;  // series/continued-fraction switch point
constexpr double kPi = 3.141592653589793238462643383279502884;
constexpr double kLn2 = 0.693147180559945309417232121458176568;
// Trailing Chebyshev terms whose magnitudes sum to at most this are dropped
// (an absolute error in the logarithm, i.e. a relative error in K).
constexpr double kChebTrim = 5e-16;

/// Chebyshev series evaluation on [a, b].
double chebev(double a, double b, const double* c, int m, double x) {
  double d = 0.0, dd = 0.0;
  const double y = (2.0 * x - a - b) / (b - a);
  const double y2 = 2.0 * y;
  for (int j = m - 1; j >= 1; --j) {
    const double sv = d;
    d = y2 * d - dd + c[j];
    dd = sv;
  }
  return y * d - dd + 0.5 * c[0];
}

struct GammaPair {
  double gam1;   // [1/Gamma(1-x) - 1/Gamma(1+x)] / (2x)
  double gam2;   // [1/Gamma(1-x) + 1/Gamma(1+x)] / 2
  double gampl;  // 1/Gamma(1+x)
  double gammi;  // 1/Gamma(1-x)
};

/// Chebyshev fits for the Gamma combinations needed by Temme's series,
/// valid for |x| <= 1/2 (Numerical Recipes "beschb").
GammaPair beschb(double x) {
  static constexpr std::array<double, 7> c1 = {
      -1.142022680371168e0, 6.5165112670737e-3,  3.087090173086e-4,
      -3.4706269649e-6,     6.9437664e-9,        3.67795e-11,
      -1.356e-13};
  static constexpr std::array<double, 8> c2 = {
      1.843740587300905e0, -7.68528408447867e-2, 1.2719271366546e-3,
      -4.9717367042e-6,    -3.31261198e-8,       2.423096e-10,
      -1.702e-13,          -1.49e-15};
  const double xx = 8.0 * x * x - 1.0;
  GammaPair g{};
  g.gam1 = chebev(-1.0, 1.0, c1.data(), static_cast<int>(c1.size()), xx);
  g.gam2 = chebev(-1.0, 1.0, c2.data(), static_cast<int>(c2.size()), xx);
  g.gampl = g.gam2 - x * g.gam1;
  g.gammi = g.gam2 + x * g.gam1;
  return g;
}

struct Order {
  int nl;      // number of upward recurrence steps
  double xmu;  // fractional order in [-1/2, 1/2]
};

Order split_order(double nu) {
  const int nl = static_cast<int>(nu + 0.5);
  return Order{nl, nu - nl};
}

/// K_xmu(x) and K_{xmu+1}(x) for |xmu| <= 1/2, scaled by exp(x) if `scaled`.
struct KPair {
  double kmu;
  double k1;
};

void require_args(double nu, double x) {
  GSX_REQUIRE(std::isfinite(x) && x > 0.0, "bessel: x must be positive and finite");
  GSX_REQUIRE(std::isfinite(nu), "bessel: nu must be finite");
}

KPair k_pair(double xmu, double x, bool scaled) {
  const double xmu2 = xmu * xmu;
  const double xi = 1.0 / x;
  const double xi2 = 2.0 * xi;
  double rkmu, rk1;
  if (x < kXMin) {
    // Temme's series for K_xmu and K_{xmu+1}.
    const double x2 = 0.5 * x;
    const double pimu = kPi * xmu;
    const double fct = (std::fabs(pimu) < kEps) ? 1.0 : pimu / std::sin(pimu);
    double dlog = -std::log(x2);
    double e = xmu * dlog;
    const double fact2 = (std::fabs(e) < kEps) ? 1.0 : std::sinh(e) / e;
    const GammaPair g = beschb(xmu);
    double ff = fct * (g.gam1 * std::cosh(e) + g.gam2 * fact2 * dlog);
    double sum = ff;
    e = std::exp(e);
    double p = 0.5 * e / g.gampl;
    double q = 0.5 / (e * g.gammi);
    double cc = 1.0;
    const double d2 = x2 * x2;
    double sum1 = p;
    int i = 1;
    for (; i <= kMaxIter; ++i) {
      ff = (i * ff + p + q) / (i * i - xmu2);
      cc *= d2 / i;
      p /= (i - xmu);
      q /= (i + xmu);
      const double del = cc * ff;
      sum += del;
      const double del1 = cc * (p - i * ff);
      sum1 += del1;
      if (std::fabs(del) < std::fabs(sum) * kEps) break;
    }
    GSX_REQUIRE(i <= kMaxIter, "bessel: Temme series failed to converge");
    rkmu = sum;
    rk1 = sum1 * xi2;
    if (scaled) {
      const double ex = std::exp(x);
      rkmu *= ex;
      rk1 *= ex;
    }
  } else {
    // Steed's CF2 for K_xmu; yields exp(-x)-scaled values naturally.
    double bb = 2.0 * (1.0 + x);
    double dd = 1.0 / bb;
    double delh = dd;
    double hh = delh;
    double q1 = 0.0, q2 = 1.0;
    const double a1 = 0.25 - xmu2;
    double qq = a1;
    double cc = a1;
    double aa = -a1;
    double s = 1.0 + qq * delh;
    int i = 2;
    for (; i <= kMaxIter; ++i) {
      aa -= 2 * (i - 1);
      cc = -aa * cc / i;
      const double qnew = (q1 - bb * q2) / aa;
      q1 = q2;
      q2 = qnew;
      qq += cc * qnew;
      bb += 2.0;
      dd = 1.0 / (bb + aa * dd);
      delh = (bb * dd - 1.0) * delh;
      hh += delh;
      const double dels = qq * delh;
      s += dels;
      if (std::fabs(dels / s) < kEps) break;
    }
    GSX_REQUIRE(i <= kMaxIter, "bessel: CF2 failed to converge");
    hh = a1 * hh;
    const double scale = scaled ? 1.0 : std::exp(-x);
    rkmu = std::sqrt(kPi / (2.0 * x)) * scale / s;
    rk1 = rkmu * (xmu + x + 0.5 - hh) * xi;
  }
  return KPair{rkmu, rk1};
}

/// Upward recurrence K_{xmu+i+1} = 2(xmu+i)/x K_{xmu+i} + K_{xmu+i-1} to K_nu.
double k_upward(KPair k, Order o, double x) {
  const double xi2 = 2.0 * (1.0 / x);
  double kmu = k.kmu;
  double k1 = k.k1;
  for (int i = 1; i <= o.nl; ++i) {
    const double rktemp = (o.xmu + i) * xi2 * k1 + kmu;
    kmu = k1;
    k1 = rktemp;
  }
  return kmu;
}

/// K_nu alone: the I_nu continued fraction (CF1) and the downward
/// recurrence only feed I_nu, so they are skipped.
double bessel_k_impl(double nu, double x, bool scaled) {
  require_args(nu, x);
  const Order o = split_order(std::fabs(nu));  // K_{-nu} = K_nu
  return k_upward(k_pair(o.xmu, x, scaled), o, x);
}

}  // namespace

double bessel_k(double nu, double x) { return bessel_k_impl(nu, x, /*scaled=*/false); }

double bessel_k_scaled(double nu, double x) { return bessel_k_impl(nu, x, /*scaled=*/true); }

double bessel_i(double nu, double x) {
  GSX_REQUIRE(nu >= 0.0, "bessel_i: order must be non-negative");
  require_args(nu, x);
  const Order o = split_order(nu);
  const double xi = 1.0 / x;
  const double xi2 = 2.0 * xi;

  // CF1 for I'_nu/I_nu.
  double h = nu * xi;
  if (h < kFpMin) h = kFpMin;
  double b = xi2 * nu;
  double d = 0.0;
  double c = h;
  int iter = 0;
  for (; iter < kMaxIter; ++iter) {
    b += xi2;
    d = 1.0 / (b + d);
    c = b + 1.0 / c;
    const double del = c * d;
    h = del * h;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  GSX_REQUIRE(iter < kMaxIter, "bessel: CF1 failed to converge (x too large for order?)");

  // Downward recurrence of an unnormalised I from order nu to xmu.
  double ril = kFpMin;
  double ripl = h * ril;
  const double ril1 = ril;
  double fact = nu * xi;
  for (int l = o.nl; l >= 1; --l) {
    const double ritemp = fact * ril + ripl;
    fact -= xi;
    ripl = fact * ritemp + ril;
    ril = ritemp;
  }
  const double f = ripl / ril;  // I'_xmu/I_xmu

  // I_xmu from the Wronskian with K_xmu, K_{xmu+1}.
  const KPair k = k_pair(o.xmu, x, /*scaled=*/false);
  const double rkmup = o.xmu * xi * k.kmu - k.k1;
  const double rimu = xi / (f * k.kmu - rkmup);
  return (rimu * ril1) / ril;
}

// ------------------------------------------------- fixed-order evaluation

namespace {

/// CF2 where the expansion failed its set-up check: the scalar formula, kept
/// out of the vector kernels so that its bits do not depend on the ISA.
[[gnu::noinline]] double cf2_xnu_k(double nu, double x) {
  if (std::isnan(x)) return x;
  if (std::isinf(x)) return 0.0;
  return std::exp(nu * std::log(x) - x) * bessel_k_scaled(nu, x);
}

/// Temme's series did not converge within the precomputed terms (not
/// reached for 0 < x < 2): the general routine.
[[gnu::noinline]] double temme_fallback(double nu, double x) {
  return std::pow(x, nu) * bessel_k(nu, x);
}

}  // namespace

struct BesselKFixedOrder::Kernel {
  /// Arguments partitioned per pass; the buffers stay on the stack.
  static constexpr std::size_t kChunk = 256;
  /// Vectors in flight through the Temme and Clenshaw recurrences, whose
  /// dependent steps would leave the FMA units idle with one.
  static constexpr std::size_t kGroup = 4;

  /// Clenshaw sum of the expansion at G vectors of u (cheb_[0] is stored
  /// halved).
  template <class L, std::size_t G>
  static void expansion(const BesselKFixedOrder& b, const typename L::V* u,
                        typename L::V* out) {
    using V = typename L::V;
    V u2[G], b1[G], b2[G];
    for (std::size_t g = 0; g < G; ++g) {
      u2[g] = u[g] + u[g];
      b1[g] = V(0.0);
      b2[g] = V(0.0);
    }
    for (int j = b.cheb_len_ - 1; j >= 1; --j) {
      const V c(b.cheb_[j]);
      for (std::size_t g = 0; g < G; ++g) {
        const V t = L::fma(u2[g], b1[g], c - b2[g]);
        b2[g] = b1[g];
        b1[g] = t;
      }
    }
    for (std::size_t g = 0; g < G; ++g) out[g] = L::fma(u[g], b1[g], V(b.cheb_[0]) - b2[g]);
  }

  /// x >= 2, in place on G full vectors: exp((nu - 1/2) log x - x + E(4/x - 1)).
  /// NaN stays NaN and +inf gives 0.
  template <class L, std::size_t G>
  static void chebyshev(const BesselKFixedOrder& b, double* x) {
    using V = typename L::V;
    V xv[G], u[G], e[G];
    for (std::size_t g = 0; g < G; ++g) {
      xv[g] = L::load(x + g * L::W);
      u[g] = V(4.0) / xv[g] - V(1.0);
    }
    expansion<L, G>(b, u, e);
    for (std::size_t g = 0; g < G; ++g) {
      const V lx = lanes::log_lanes<L>(xv[g]);
      L::store(x + g * L::W, lanes::exp_lanes<L>(L::fma(V(b.nu_ - 0.5), lx, e[g] - xv[g])));
    }
  }

  /// x < 2, in place on G full vectors: Temme's series for K_xmu and
  /// K_{xmu+1}, the upward recurrence to K_nu, times x^nu. sinh, cosh and
  /// exp of e = xmu log(2/x) all come from one reduced exponential. Lanes
  /// with x <= 0 give NaN.
  template <class L, std::size_t G>
  static void temme(const BesselKFixedOrder& b, double* x) {
    using V = typename L::V;
    using M = typename L::M;
    V xv[G], lx2[G], ff[G], sum[G], sum1[G], p[G], q[G], cc[G], d2[G];
    M positive[G], active[G];
    for (std::size_t g = 0; g < G; ++g) {
      xv[g] = L::load(x + g * L::W);
      const V x2 = V(0.5) * xv[g];
      lx2[g] = lanes::log_lanes<L>(x2);
      const V dlog = -lx2[g];
      const V e = V(b.xmu_) * dlog;
      const lanes::ExpParts<L> ex = lanes::exp_reduce<L>(e);
      const V s = L::pow2i(ex.k);
      const V ep = L::fma(s, ex.pm, s);           // exp(e)
      const V em = L::fma(s, ex.pm, s - V(1.0));  // exp(e) - 1
      const V fact2 = L::select(L::lt(L::abs(e), V(kEps)), V(1.0),
                                em * (em + V(2.0)) / (V(2.0) * ep * e));
      const V cosh_e = V(1.0) + em * em / (V(2.0) * ep);
      ff[g] = V(b.fct_) * (V(b.gam1_) * cosh_e + V(b.gam2_) * fact2 * dlog);
      sum[g] = ff[g];
      p[g] = V(b.half_gampl_inv_) * ep;
      q[g] = V(b.half_gammi_inv_) / ep;
      cc[g] = V(1.0);
      d2[g] = x2 * x2;
      sum1[g] = p[g];
      positive[g] = L::gt(xv[g], V(0.0));
      active[g] = positive[g];
    }
    // Each lane adds terms until its own sum has converged and then keeps
    // its sums, so it ends with the value a batch of one would give. The G
    // vectors' recurrences are independent and interleave.
    for (int i = 1; i <= kTemmeTerms; ++i) {
      bool any = false;
      for (std::size_t g = 0; g < G; ++g) any = any || L::any(active[g]);
      if (!any) break;
      const V fi(static_cast<double>(i));
      for (std::size_t g = 0; g < G; ++g) {
        ff[g] = (fi * ff[g] + p[g] + q[g]) * V(b.inv_den_[i]);
        cc[g] = cc[g] * (d2[g] * V(b.inv_i_[i]));
        p[g] = p[g] * V(b.inv_minus_[i]);
        q[g] = q[g] * V(b.inv_plus_[i]);
        const V del = cc[g] * ff[g];
        const V next = sum[g] + del;
        sum[g] = L::select(active[g], next, sum[g]);
        sum1[g] = L::select(active[g], sum1[g] + cc[g] * (p[g] - fi * ff[g]), sum1[g]);
        active[g] = L::and_not(active[g], L::lt(L::abs(del), L::abs(next) * V(kEps)));
      }
    }
    for (std::size_t g = 0; g < G; ++g) {
      const V xi2 = V(2.0) / xv[g];
      V kmu = sum[g];
      V k1 = sum1[g] * xi2;
      for (int l = 1; l <= b.nl_; ++l) {
        const V t = V(b.xmu_ + l) * xi2 * k1 + kmu;
        kmu = k1;
        k1 = t;
      }
      V r = lanes::exp_lanes<L>(V(b.nu_) * (lx2[g] + V(kLn2))) * kmu;
      if (L::any(active[g])) {
        double xs[L::W], rs[L::W], left[L::W];
        L::store(xs, xv[g]);
        L::store(rs, r);
        L::store(left, L::select(active[g], V(1.0), V(0.0)));
        for (std::size_t l = 0; l < L::W; ++l)
          if (left[l] != 0.0) rs[l] = temme_fallback(b.nu_, xs[l]);
        r = L::load(rs);
      }
      L::store(x + g * L::W,
               L::select(positive[g], r, V(std::numeric_limits<double>::quiet_NaN())));
    }
  }

  /// Partitions each chunk into x < 2 and the rest, runs each part in whole
  /// vectors (the last one padded), and scatters the results back.
  template <class L>
  static void run(const BesselKFixedOrder& b, const double* x, double* out, std::size_t n) {
    constexpr std::size_t W = L::W;
    double tx[kChunk + W], cx[kChunk + W];
    unsigned ti[kChunk], ci[kChunk];
    for (std::size_t c0 = 0; c0 < n; c0 += kChunk) {
      const std::size_t len = std::min(kChunk, n - c0);
      std::size_t nt = 0, nc = 0;
      for (std::size_t i = 0; i < len; ++i) {
        const double xi = x[c0 + i];
        const bool series = xi < kXMin;
        tx[nt] = xi;
        ti[nt] = static_cast<unsigned>(i);
        cx[nc] = xi;
        ci[nc] = static_cast<unsigned>(i);
        nt += series;
        nc += !series;
      }
      for (std::size_t i = nt; i % W != 0; ++i) tx[i] = 1.0;
      std::size_t v = 0;
      for (; v + kGroup * W <= nt; v += kGroup * W) temme<L, kGroup>(b, tx + v);
      for (; v < nt; v += W) temme<L, 1>(b, tx + v);
      if (b.cheb_len_ > 0) {
        for (std::size_t i = nc; i % W != 0; ++i) cx[i] = kXMin;
        for (v = 0; v + kGroup * W <= nc; v += kGroup * W) chebyshev<L, kGroup>(b, cx + v);
        for (; v < nc; v += W) chebyshev<L, 1>(b, cx + v);
      } else {
        for (std::size_t i = 0; i < nc; ++i) cx[i] = cf2_xnu_k(b.nu_, cx[i]);
      }
      for (std::size_t k = 0; k < nt; ++k) out[c0 + ti[k]] = tx[k];
      for (std::size_t k = 0; k < nc; ++k) out[c0 + ci[k]] = cx[k];
    }
  }

  // One entry per ISA; `flatten` inlines the generic code and the lane
  // operations into each (see mathx/lanes.hpp).
  [[gnu::flatten]] static void portable(const BesselKFixedOrder& b, const double* x, double* out,
                                        std::size_t n) {
    run<lanes::PortableLanes>(b, x, out, n);
  }
#if GSX_X86_DISPATCH
  GSX_TARGET_AVX2 [[gnu::flatten]] static void avx2(const BesselKFixedOrder& b, const double* x,
                                                    double* out, std::size_t n) {
    run<lanes::Avx2Lanes>(b, x, out, n);
  }
  GSX_TARGET_AVX512 [[gnu::flatten]] static void avx512(const BesselKFixedOrder& b,
                                                        const double* x, double* out,
                                                        std::size_t n) {
    run<lanes::Avx512Lanes>(b, x, out, n);
  }
#endif
};

BesselKFixedOrder::BesselKFixedOrder(double nu) : nu_(std::fabs(nu)) {
  GSX_REQUIRE(std::isfinite(nu), "BesselKFixedOrder: nu must be finite");
  const Order o = split_order(nu_);
  nl_ = o.nl;
  xmu_ = o.xmu;
  const double pimu = kPi * xmu_;
  fct_ = (std::fabs(pimu) < kEps) ? 1.0 : pimu / std::sin(pimu);
  const GammaPair g = beschb(xmu_);
  gam1_ = g.gam1;
  gam2_ = g.gam2;
  half_gampl_inv_ = 0.5 / g.gampl;
  half_gammi_inv_ = 0.5 / g.gammi;
  for (int i = 1; i <= kTemmeTerms; ++i) {
    inv_den_[i] = 1.0 / (i * i - xmu_ * xmu_);
    inv_i_[i] = 1.0 / i;
    inv_minus_[i] = 1.0 / (i - xmu_);
    inv_plus_[i] = 1.0 / (i + xmu_);
  }

  // Chebyshev interpolation of log(sqrt(x) e^x K_nu(x)) at the nodes
  // u_k = cos(pi (k + 1/2) / N), x = 4 / (u + 1), from CF2.
  const auto log_g = [this](double x) {
    return std::log(std::sqrt(x) * bessel_k_scaled(nu_, x));
  };
  std::array<double, kChebTerms> f{};
  for (int k = 0; k < kChebTerms; ++k)
    f[k] = log_g(4.0 / (std::cos(kPi * (k + 0.5) / kChebTerms) + 1.0));
  for (int j = 0; j < kChebTerms; ++j) {
    double s = 0.0;
    for (int k = 0; k < kChebTerms; ++k) s += f[k] * std::cos(kPi * j * (k + 0.5) / kChebTerms);
    cheb_[j] = 2.0 * s / kChebTerms;
  }
  cheb_[0] *= 0.5;
  int len = kChebTerms;
  for (double dropped = std::fabs(cheb_[len - 1]); len > 1 && dropped <= kChebTrim;
       dropped += std::fabs(cheb_[len - 1]))
    --len;
  cheb_len_ = len;

  // Check between the nodes, where interpolation error peaks, and at both
  // ends of the range Matérn assembly uses.
  const auto close = [this](double x) {
    const double ref = std::sqrt(x) * bessel_k_scaled(nu_, x);
    const double u = 4.0 / x - 1.0;
    double sum = 0.0;
    Kernel::expansion<lanes::PortableLanes, 1>(*this, &u, &sum);
    const double got = std::exp(sum);
    return std::fabs(got - ref) <= kCheckTol * ref;  // false on NaN/Inf
  };
  bool ok = close(kXMin) && close(700.0);
  for (int k = 1; ok && k < kChebTerms; ++k)
    ok = close(4.0 / (std::cos(kPi * k / kChebTerms) + 1.0));
  if (!ok) cheb_len_ = 0;
}

double BesselKFixedOrder::xnu_k(double x) const {
  double r = 0.0;
  xnu_k(&x, &r, 1);
  return r;
}

void BesselKFixedOrder::xnu_k(const double* x, double* out, std::size_t n) const {
  switch (active_isa()) {
#if GSX_X86_DISPATCH
    case Isa::Avx512: return Kernel::avx512(*this, x, out, n);
    case Isa::Avx2: return Kernel::avx2(*this, x, out, n);
#endif
    default: return Kernel::portable(*this, x, out, n);
  }
}

}  // namespace gsx::mathx
