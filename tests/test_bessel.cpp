// Tests for K_nu: closed forms, reference values, identities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/isa.hpp"
#include "mathx/bessel.hpp"

namespace gsx::mathx {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

double k_half(double x) { return std::sqrt(kPi / (2.0 * x)) * std::exp(-x); }

TEST(Bessel, HalfIntegerClosedFormNuHalf) {
  // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}.
  for (double x : {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0}) {
    EXPECT_NEAR(bessel_k(0.5, x), k_half(x), 1e-12 * k_half(x)) << "x = " << x;
  }
}

TEST(Bessel, HalfIntegerClosedFormNuThreeHalves) {
  // K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x).
  for (double x : {0.05, 0.3, 1.0, 3.0, 10.0, 50.0}) {
    const double expect = k_half(x) * (1.0 + 1.0 / x);
    EXPECT_NEAR(bessel_k(1.5, x), expect, 1e-12 * expect) << "x = " << x;
  }
}

TEST(Bessel, HalfIntegerClosedFormNuFiveHalves) {
  // K_{5/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 3/x + 3/x^2).
  for (double x : {0.1, 1.0, 4.0, 12.0}) {
    const double expect = k_half(x) * (1.0 + 3.0 / x + 3.0 / (x * x));
    EXPECT_NEAR(bessel_k(2.5, x), expect, 1e-12 * expect) << "x = " << x;
  }
}

TEST(Bessel, ReferenceValuesIntegerOrder) {
  // Abramowitz & Stegun / verified high-precision references.
  EXPECT_NEAR(bessel_k(0.0, 1.0), 0.42102443824070834, 1e-14);
  EXPECT_NEAR(bessel_k(1.0, 1.0), 0.60190723019723458, 1e-14);
  EXPECT_NEAR(bessel_k(0.0, 2.0), 0.11389387274953344, 1e-14);
  EXPECT_NEAR(bessel_k(1.0, 2.0), 0.13986588181652243, 1e-14);
  EXPECT_NEAR(bessel_k(2.0, 2.0), 0.25375975456605586, 1e-14);
  EXPECT_NEAR(bessel_k(5.0, 10.0), 5.7541849985e-05, 1e-14);
}

/// Oracle via the integral representation
///   K_nu(x) = \int_0^inf exp(-x cosh t) cosh(nu t) dt
/// evaluated with composite Simpson on a truncated domain.
double bessel_k_quadrature(double nu, double x) {
  double tmax = 2.0;
  while (x * std::cosh(tmax) < 750.0) tmax += 0.5;
  const int n = 40000;  // even
  const double h = tmax / n;
  auto f = [&](double t) { return std::exp(-x * std::cosh(t)) * std::cosh(nu * t); };
  double s = f(0.0) + f(tmax);
  for (int i = 1; i < n; ++i) s += f(i * h) * ((i % 2) ? 4.0 : 2.0);
  return s * h / 3.0;
}

struct NuX {
  double nu, x;
};

class BesselQuadrature : public ::testing::TestWithParam<NuX> {};

TEST_P(BesselQuadrature, MatchesIntegralRepresentation) {
  const auto [nu, x] = GetParam();
  const double oracle = bessel_k_quadrature(nu, x);
  EXPECT_NEAR(bessel_k(nu, x), oracle, 1e-10 * oracle) << "nu=" << nu << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(FractionalOrders, BesselQuadrature,
                         ::testing::Values(NuX{0.25, 1.0}, NuX{0.44, 0.3}, NuX{0.44, 1.7},
                                           NuX{0.75, 0.5}, NuX{1.25, 0.5}, NuX{1.9, 2.2},
                                           NuX{3.3, 4.0}, NuX{0.32, 5.0}, NuX{2.5, 0.7},
                                           NuX{4.75, 3.1}));

TEST(Bessel, RecurrenceIdentity) {
  // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x).
  for (double nu : {0.3, 0.44, 1.0, 1.7, 2.9}) {
    for (double x : {0.2, 1.0, 3.0, 8.0}) {
      const double lhs = bessel_k(nu + 1.0, x);
      const double rhs = bessel_k(nu - 1.0 < 0 ? -(nu - 1.0) : nu - 1.0, x) +
                         (2.0 * nu / x) * bessel_k(nu, x);
      EXPECT_NEAR(lhs, rhs, 1e-11 * std::fabs(rhs)) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(Bessel, WronskianIdentity) {
  // I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x.
  for (double nu : {0.0, 0.4, 1.3, 2.5}) {
    for (double x : {0.3, 1.0, 2.5, 6.0}) {
      const double w = bessel_i(nu, x) * bessel_k(nu + 1.0, x) +
                       bessel_i(nu + 1.0, x) * bessel_k(nu, x);
      EXPECT_NEAR(w, 1.0 / x, 1e-11 / x) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(Bessel, SymmetricInOrder) {
  for (double x : {0.5, 2.0, 7.0}) {
    EXPECT_DOUBLE_EQ(bessel_k(-0.7, x), bessel_k(0.7, x));
    EXPECT_DOUBLE_EQ(bessel_k(-2.0, x), bessel_k(2.0, x));
  }
}

TEST(Bessel, ScaledMatchesUnscaled) {
  for (double nu : {0.44, 1.0, 3.2}) {
    for (double x : {0.5, 2.0, 10.0, 30.0}) {
      const double scaled = bessel_k_scaled(nu, x);
      const double unscaled = bessel_k(nu, x);
      EXPECT_NEAR(scaled, unscaled * std::exp(x), 1e-11 * scaled);
    }
  }
}

TEST(Bessel, ScaledStableForLargeArgument) {
  // Unscaled underflows near x ~ 705; the scaled variant stays O(sqrt(pi/2x)).
  const double v = bessel_k_scaled(0.5, 900.0);
  EXPECT_NEAR(v, std::sqrt(kPi / 1800.0), 1e-12);
}

TEST(Bessel, MonotoneDecreasingInArgument) {
  double prev = bessel_k(0.44, 0.05);
  for (double x = 0.1; x < 20.0; x += 0.37) {
    const double cur = bessel_k(0.44, x);
    EXPECT_LT(cur, prev) << "x = " << x;
    prev = cur;
  }
}

TEST(Bessel, IncreasingInOrder) {
  // For fixed x, K_nu increases with nu >= 0.
  for (double x : {0.5, 1.0, 4.0}) {
    double prev = bessel_k(0.1, x);
    for (double nu = 0.3; nu < 5.0; nu += 0.4) {
      const double cur = bessel_k(nu, x);
      EXPECT_GT(cur, prev) << "nu=" << nu << " x=" << x;
      prev = cur;
    }
  }
}

// K_nu(x) and exp(x) K_nu(x) on a grid of orders and arguments, printed with
// %a by the implementation that still ran the I_nu continued fraction and
// downward recurrence on every call. K does not depend on either, so
// skipping them must leave every value bit for bit unchanged.
struct KGridPoint {
  double nu, x, k, k_scaled;
};
constexpr KGridPoint kKGrid[] = {
    {0x0p+0, 0x1.5798ee2308c3ap-27, 0x1.2895f6bc9a933p+4, 0x1.2895f6ee5cd68p+4},
    {0x0p+0, 0x1.0624dd2f1a9fcp-10, 0x1.c1841e07ec99ep+2, 0x1.c1f740406b6bbp+2},
    {0x0p+0, 0x1.999999999999ap-4, 0x1.36aa32a31d695p+1, 0x1.5756763336907p+1},
    {0x0p+0, 0x1.6666666666666p-1, 0x1.522fa8b96341ep-1, 0x1.5482fbe332113p+0},
    {0x0p+0, 0x1.8p+0, 0x1.b5dfb0da31283p-3, 0x1.ea9a82133332fp-1},
    {0x0p+0, 0x1.ffbe76c8b4396p+0, 0x1.d31523504b357p-4, 0x1.aefb310fdfe53p-1},
    {0x0p+0, 0x1p+1, 0x1.d28261aac8d5ep-4, 0x1.aee207722a03cp-1},
    {0x0p+0, 0x1.0020c49ba5e35p+1, 0x1.d1efd15dc2ap-4, 0x1.aec8e24a3ce86p-1},
    {0x0p+0, 0x1.a666666666666p+1, 0x1.9338790cd1297p-6, 0x1.55a2fee1b40eep-1},
    {0x0p+0, 0x1p+3, 0x1.332bdc70ac54ap-13, 0x1.bf1a1ac64c674p-2},
    {0x0p+0, 0x1.9p+4, 0x1.e78992e251fep-39, 0x1.fed89e589ea9ap-3},
    {0x0p+0, 0x1.9p+6, 0x1.a95ab76caeaabp-148, 0x1.005c138a42646p-3},
    {0x0p+0, 0x1.5ep+9, 0x1.a3bdc2aab13acp-1015, 0x1.83fe167bcbdaep-5},
    {0x1.999999999999ap-5, 0x1.5798ee2308c3ap-27, 0x1.55968903e4f2bp+4, 0x1.5596893d340acp+4},
    {0x1.999999999999ap-5, 0x1.0624dd2f1a9fcp-10, 0x1.cbb09bef743fep+2, 0x1.cc26593d4c267p+2},
    {0x1.999999999999ap-5, 0x1.999999999999ap-4, 0x1.37f03f67a6795p+1, 0x1.58becd7467295p+1},
    {0x1.999999999999ap-5, 0x1.6666666666666p-1, 0x1.52978756a97a3p-1, 0x1.54eb91592a91p+0},
    {0x1.999999999999ap-5, 0x1.8p+0, 0x1.b629ab0e88c11p-3, 0x1.eaed64dc69a29p-1},
    {0x1.999999999999ap-5, 0x1.ffbe76c8b4396p+0, 0x1.d353263c7e282p-4, 0x1.af3468fe56874p-1},
    {0x1.999999999999ap-5, 0x1p+1, 0x1.d2c04a57d538fp-4, 0x1.af1b35ca59d7p-1},
    {0x1.999999999999ap-5, 0x1.0020c49ba5e35p+1, 0x1.d22d9fd7f74b4p-4, 0x1.af02070edce92p-1},
    {0x1.999999999999ap-5, 0x1.a666666666666p+1, 0x1.935b0006b4311p-6, 0x1.55c03fe1727c4p-1},
    {0x1.999999999999ap-5, 0x1p+3, 0x1.333777d3fad63p-13, 0x1.bf2affc41dc58p-2},
    {0x1.999999999999ap-5, 0x1.9p+4, 0x1.e78fb1d5d4785p-39, 0x1.fedf083648f37p-3},
    {0x1.999999999999ap-5, 0x1.9p+6, 0x1.a95c12273f1a4p-148, 0x1.005ce4832a2p-3},
    {0x1.999999999999ap-5, 0x1.5ep+9, 0x1.a3bdf3c0e52bcp-1015, 0x1.83fe43db81bddp-5},
    {0x1p-2, 0x1.5798ee2308c3ap-27, 0x1.af1e6fb439006p+7, 0x1.af1e6ffc8d6abp+7},
    {0x1p-2, 0x1.0624dd2f1a9fcp-10, 0x1.78350dba05127p+3, 0x1.7895692d10ab8p+3},
    {0x1p-2, 0x1.999999999999ap-4, 0x1.57b3386aab2dep+1, 0x1.7bd8eac89dfe1p+1},
    {0x1p-2, 0x1.6666666666666p-1, 0x1.5c745fc921b4ap-1, 0x1.5ed9c66605ebdp+0},
    {0x1p-2, 0x1.8p+0, 0x1.bd2645fe0b9a8p-3, 0x1.f2c1631914837p-1},
    {0x1p-2, 0x1.ffbe76c8b4396p+0, 0x1.d92c3acb6cac4p-4, 0x1.b499c7848ea1cp-1},
    {0x1p-2, 0x1p+1, 0x1.d896e45b347cbp-4, 0x1.b47fac0931397p-1},
    {0x1p-2, 0x1.0020c49ba5e35p+1, 0x1.d801c079de4b9p-4, 0x1.b4659548522b8p-1},
    {0x1p-2, 0x1.a666666666666p+1, 0x1.969ae5f954f14p-6, 0x1.5881178833522p-1},
    {0x1p-2, 0x1p+3, 0x1.344e8868a1fc8p-13, 0x1.c0c130cf4fcep-2},
    {0x1p-2, 0x1.9p+4, 0x1.e822af7101efap-39, 0x1.ff790cdbf7b3bp-3},
    {0x1p-2, 0x1.9p+6, 0x1.a97c94eef384p-148, 0x1.00707c9fe0d12p-3},
    {0x1p-2, 0x1.5ep+9, 0x1.a3c28ddc7d193p-1015, 0x1.840284dac626bp-5},
    {0x1.c28f5c28f5c29p-2, 0x1.5798ee2308c3ap-27, 0x1.1a9c597f0b029p+12, 0x1.1a9c59ae750c8p+12},
    {0x1.c28f5c28f5c29p-2, 0x1.0624dd2f1a9fcp-10, 0x1.c777e81d398e3p+4, 0x1.c7ec909ebacd4p+4},
    {0x1.c28f5c28f5c29p-2, 0x1.999999999999ap-4, 0x1.a59cf144c1885p+1, 0x1.d1f4595ee1947p+1},
    {0x1.c28f5c28f5c29p-2, 0x1.6666666666666p-1, 0x1.72dbcd0434cccp-1, 0x1.7568a3f7c81cdp+0},
    {0x1.c28f5c28f5c29p-2, 0x1.8p+0, 0x1.ccc372fbdfebbp-3, 0x1.021ff4b66c2cbp+0},
    {0x1.c28f5c28f5c29p-2, 0x1.ffbe76c8b4396p+0, 0x1.e62ed987cbc06p-4, 0x1.c09af8d182384p-1},
    {0x1.c28f5c28f5c29p-2, 0x1p+1, 0x1.e593f94c9fca2p-4, 0x1.c07ed2f2d0d55p-1},
    {0x1.c28f5c28f5c29p-2, 0x1.0020c49ba5e35p+1, 0x1.e4f94e3df8228p-4, 0x1.c062b2648726fp-1},
    {0x1.c28f5c28f5c29p-2, 0x1.a666666666666p+1, 0x1.9dca6f84a8803p-6, 0x1.5e97ad368346p-1},
    {0x1.c28f5c28f5c29p-2, 0x1p+3, 0x1.36b39f64ab597p-13, 0x1.c43d922babba6p-2},
    {0x1.c28f5c28f5c29p-2, 0x1.9p+4, 0x1.e964747d5fb2bp-39, 0x1.00651a0c55d1bp-2},
    {0x1.c28f5c28f5c29p-2, 0x1.9p+6, 0x1.a9c3a6d3b4fa8p-148, 0x1.009b5206375bdp-3},
    {0x1.c28f5c28f5c29p-2, 0x1.5ep+9, 0x1.a3cc9c33c8d63p-1015, 0x1.840bd079bd319p-5},
    {0x1p-1, 0x1.5798ee2308c3ap-27, 0x1.87a9214689f7bp+13, 0x1.87a921883faa3p+13},
    {0x1p-1, 0x1.0624dd2f1a9fcp-10, 0x1.3cbfd08f0e5cdp+5, 0x1.3d10f16c0cf36p+5},
    {0x1p-1, 0x1.999999999999ap-4, 0x1.cb0783d551251p+1, 0x1.fb4e4f1347ebep+1},
    {0x1p-1, 0x1.6666666666666p-1, 0x1.7cde440184dcbp-1, 0x1.7f7cb9c892df1p+0},
    {0x1p-1, 0x1.8p+0, 0x1.d3a153eece8bep-3, 0x1.05f8bd37c0e65p+0},
    {0x1p-1, 0x1.ffbe76c8b4396p+0, 0x1.ebe12e206dd44p-4, 0x1.c5dc961b1ef52p-1},
    {0x1p-1, 0x1p+1, 0x1.eb43de8286e11p-4, 0x1.c5bf891b4ef6ap-1},
    {0x1p-1, 0x1.0020c49ba5e35p+1, 0x1.eaa6c5391b071p-4, 0x1.c5a281aedd54ap-1},
    {0x1p-1, 0x1.a666666666666p+1, 0x1.a0eb1fbbdc15bp-6, 0x1.613e13677c8fap-1},
    {0x1p-1, 0x1p+3, 0x1.37bcca78c5475p-13, 0x1.c5bf891b4ef6ap-2},
    {0x1p-1, 0x1.9p+4, 0x1.e9ef22471af7ap-39, 0x1.00adc1991b8d1p-2},
    {0x1p-1, 0x1.9p+6, 0x1.a9e23d967d548p-148, 0x1.00adc1991b8d1p-3},
    {0x1p-1, 0x1.5ep+9, 0x1.a3d0efc5eec3p-1015, 0x1.840fd045677f4p-5},
    {0x1p+0, 0x1.5798ee2308c3ap-27, 0x1.7d783fffffffbp+26, 0x1.7d78403fffffbp+26},
    {0x1p+0, 0x1.0624dd2f1a9fcp-10, 0x1.f3ff84bb5db53p+9, 0x1.f47f94ff7eff1p+9},
    {0x1p+0, 0x1.999999999999ap-4, 0x1.3b52b24a3662cp+3, 0x1.5c7c6064e53f8p+3},
    {0x1p+0, 0x1.6666666666666p-1, 0x1.0cdf61bbb23d2p+0, 0x1.0eb8b0d1ad1bep+1},
    {0x1p+0, 0x1.8p+0, 0x1.1c0b8c2d1608dp-2, 0x1.3e401e6269572p+0},
    {0x1p+0, 0x1.ffbe76c8b4396p+0, 0x1.1ed2739c3fcb5p-3, 0x1.08a73c7323998p+0},
    {0x1p+0, 0x1p+1, 0x1.1e7200e1d3486p-3, 0x1.0891f04b554d8p+0},
    {0x1p+0, 0x1.0020c49ba5e35p+1, 0x1.1e11b1f4b7ec2p-3, 0x1.087ca8f7e3bc1p+0},
    {0x1p+0, 0x1.a666666666666p+1, 0x1.ccaaf84a90fd7p-6, 0x1.864f5e6edc12cp-1},
    {0x1p+0, 0x1p+3, 0x1.45d535df4bb3bp-13, 0x1.da43c17c34119p-2},
    {0x1p+0, 0x1.9p+4, 0x1.f131be7e25e92p-39, 0x1.047b7d9ce8855p-2},
    {0x1p+0, 0x1.9p+6, 0x1.ab79d285c4a4ap-148, 0x1.01a367892f886p-3},
    {0x1p+0, 0x1.5ep+9, 0x1.a40a7c58d4fe6p-1015, 0x1.8445027da8a85p-5},
    {0x1.4cccccccccccdp+0, 0x1.5798ee2308c3ap-27, 0x1.9d920207c4162p+34, 0x1.9d92024d26cc2p+34},
    {0x1.4cccccccccccdp+0, 0x1.0624dd2f1a9fcp-10, 0x1.124538ee64f3ap+13, 0x1.128b7881a6955p+13},
    {0x1.4cccccccccccdp+0, 0x1.999999999999ap-4, 0x1.5e555b21d97d4p+4, 0x1.832da5afb2451p+4},
    {0x1.4cccccccccccdp+0, 0x1.6666666666666p-1, 0x1.6c5adaf6e6cc3p+0, 0x1.6edc3f08ea0b4p+1},
    {0x1.4cccccccccccdp+0, 0x1.8p+0, 0x1.529edb389b42cp-2, 0x1.7b65e2571e6fep+0},
    {0x1.4cccccccccccdp+0, 0x1.ffbe76c8b4396p+0, 0x1.49d2043d682efp-3, 0x1.3054037e7aefep+0},
    {0x1.4cccccccccccdp+0, 0x1p+1, 0x1.495e48b0e02b6p-3, 0x1.303710f7ec4f1p+0},
    {0x1.4cccccccccccdp+0, 0x1.0020c49ba5e35p+1, 0x1.48eabaa654274p-3, 0x1.301a25b974771p+0},
    {0x1.4cccccccccccdp+0, 0x1.a666666666666p+1, 0x1.f8ad4e616dc1p-6, 0x1.ab98ff4b68f1ep-1},
    {0x1.4cccccccccccdp+0, 0x1p+3, 0x1.5357db2e8de5cp-13, 0x1.ededf930d7286p-2},
    {0x1.4cccccccccccdp+0, 0x1.9p+4, 0x1.f7f7ad34ac50dp-39, 0x1.0807e7e6db0d7p-2},
    {0x1.4cccccccccccdp+0, 0x1.9p+6, 0x1.acf223866139fp-148, 0x1.02863587b10fcp-3},
    {0x1.4cccccccccccdp+0, 0x1.5ep+9, 0x1.a43f75476d779p-1015, 0x1.8475f9b0bb52dp-5},
    {0x1p+1, 0x1.5798ee2308c3ap-27, 0x1.1c37937e08001p+54, 0x1.1c3793adb7081p+54},
    {0x1p+1, 0x1.0624dd2f1a9fcp-10, 0x1.e847f8000104fp+20, 0x1.e8c507ff52153p+20},
    {0x1p+1, 0x1.999999999999ap-4, 0x1.8f0207a750711p+7, 0x1.b8f8d256eb69ap+7},
    {0x1p+1, 0x1.6666666666666p-1, 0x1.d4a675ccc527cp+1, 0x1.d7df726d7aac2p+2},
    {0x1p+1, 0x1.8p+0, 0x1.2ad4f4549afa9p-1, 0x1.4ed15f711306dp+1},
    {0x1p+1, 0x1.ffbe76c8b4396p+0, 0x1.0440e046fdd32p-2, 0x1.e046b97a2c68cp+0},
    {0x1p+1, 0x1p+1, 0x1.03d998db9bd9ap-2, 0x1.e002f4046a4f6p+0},
    {0x1p+1, 0x1.0020c49ba5e35p+1, 0x1.037280b49197dp-2, 0x1.dfbf43bc6bbffp+0},
    {0x1p+1, 0x1.a666666666666p+1, 0x1.5534e4db10a38p-5, 0x1.2118182d98d6dp+0},
    {0x1p+1, 0x1p+3, 0x1.84a129e87f419p-13, 0x1.1ad58592acb5dp-1},
    {0x1p+1, 0x1.9p+4, 0x1.07a80e8072315p-38, 0x1.1442fd0fe70d9p-2},
    {0x1p+1, 0x1.9p+6, 0x1.b1e764985151dp-148, 0x1.05832f35f68afp-3},
    {0x1p+1, 0x1.5ep+9, 0x1.a4f0fd894ce6ap-1015, 0x1.851a144be18c6p-5},
    {0x1.4p+1, 0x1.5798ee2308c3ap-27, 0x1.461f7e2437fabp+68, 0x1.461f7e5aeedb3p+68},
    {0x1.4p+1, 0x1.0624dd2f1a9fcp-10, 0x1.c59115c7239dbp+26, 0x1.c6054198582bdp+26},
    {0x1.4p+1, 0x1.999999999999ap-4, 0x1.28c15bba67f57p+10, 0x1.47f7201ef6fefp+10},
    {0x1.4p+1, 0x1.6666666666666p-1, 0x1.0f901c3e78873p+3, 0x1.116e27bb17bdcp+4},
    {0x1.4p+1, 0x1.8p+0, 0x1.fa997042b5178p-1, 0x1.1bcd77a710f98p+2},
    {0x1.4p+1, 0x1.ffbe76c8b4396p+0, 0x1.8fd6357895513p-2, 0x1.70eed30a7649cp+1},
    {0x1.4p+1, 0x1p+1, 0x1.8f2724ca0d96ep-2, 0x1.70ab9f6630286p+1},
    {0x1.4p+1, 0x1.0020c49ba5e35p+1, 0x1.8e786d86926adp-2, 0x1.706883cd715dcp+1},
    {0x1.4p+1, 0x1.a666666666666p+1, 0x1.c764f74a602cep-5, 0x1.81d78d15b58b4p+0},
    {0x1.4p+1, 0x1p+3, 0x1.bb406fe3b8816p-13, 0x1.42962b796a235p-1},
    {0x1.4p+1, 0x1.9p+4, 0x1.1389f872f24a2p-38, 0x1.20b65575543ccp-2},
    {0x1.4p+1, 0x1.9p+6, 0x1.b6c9bc54accd2p-148, 0x1.0874c30909505p-3},
    {0x1.4p+1, 0x1.5ep+9, 0x1.a59e3162a2aedp-1015, 0x1.85ba2e553114ep-5},
    {0x1.d99999999999ap+1, 0x1.5798ee2308c3ap-27, 0x1.105ae068c4128p+103, 0x1.105ae09675a13p+103},
    {0x1.d99999999999ap+1, 0x1.0624dd2f1a9fcp-10, 0x1.8d2fdf0b78a4fp+41, 0x1.8d959a1c78be3p+41},
    {0x1.d99999999999ap+1, 0x1.999999999999ap-4, 0x1.090a7a406fc66p+17, 0x1.24ea5fe33c243p+17},
    {0x1.d99999999999ap+1, 0x1.6666666666666p-1, 0x1.83e768114532bp+6, 0x1.8692407a25cbdp+7},
    {0x1.d99999999999ap+1, 0x1.8p+0, 0x1.3d619e25eb1fap+2, 0x1.6399e187c3cdep+4},
    {0x1.d99999999999ap+1, 0x1.ffbe76c8b4396p+0, 0x1.7c35812dc23c5p+0, 0x1.5ed27c3e201d4p+3},
    {0x1.d99999999999ap+1, 0x1p+1, 0x1.7b628be547125p+0, 0x1.5e697e37d955ep+3},
    {0x1.d99999999999ap+1, 0x1.0020c49ba5e35p+1, 0x1.7a901f8a0ba4fp+0, 0x1.5e00b1fe20852p+3},
    {0x1.d99999999999ap+1, 0x1.a666666666666p+1, 0x1.1e62b800ab1fep-3, 0x1.e54ab7f500728p+1},
    {0x1.d99999999999ap+1, 0x1p+3, 0x1.550340d38609p-12, 0x1.f05c11c57d87cp-1},
    {0x1.d99999999999ap+1, 0x1.9p+4, 0x1.3eb92ef58d241p-38, 0x1.4df616690dd6dp-2},
    {0x1.d99999999999ap+1, 0x1.9p+6, 0x1.c754f25419143p-148, 0x1.126d4f3dfb684p-3},
    {0x1.d99999999999ap+1, 0x1.5ep+9, 0x1.a7dce650cabbbp-1015, 0x1.87cd6ae94048p-5},
    {0x1.399999999999ap+2, 0x1.5798ee2308c3ap-27, 0x1.6741569dba465p+138, 0x1.674156da002b6p+138},
    {0x1.399999999999ap+2, 0x1.0624dd2f1a9fcp-10, 0x1.12aeffdf8f517p+57, 0x1.12f55a8a7e1d6p+57},
    {0x1.399999999999ap+2, 0x1.999999999999ap-4, 0x1.75b7db70b33d4p+24, 0x1.9d05c116107cap+24},
    {0x1.399999999999ap+2, 0x1.6666666666666p-1, 0x1.ad3baa7676d99p+10, 0x1.b02f43cba9312p+11},
    {0x1.399999999999ap+2, 0x1.8p+0, 0x1.25fdb98d21501p+5, 0x1.4964e9915186cp+7},
    {0x1.399999999999ap+2, 0x1.ffbe76c8b4396p+0, 0x1.031bac56b189fp+3, 0x1.de29a48a004e3p+5},
    {0x1.399999999999ap+2, 0x1p+1, 0x1.026994586c46ep+3, 0x1.dd5b20a1e0473p+5},
    {0x1.399999999999ap+2, 0x1.0020c49ba5e35p+1, 0x1.01b809b3d6ca7p+3, 0x1.dc8d18f0f94cdp+5},
    {0x1.399999999999ap+2, 0x1.a666666666666p+1, 0x1.e1360980375f2p-2, 0x1.97b737f57853cp+3},
    {0x1.399999999999ap+2, 0x1p+3, 0x1.331233664cea4p-11, 0x1.bef4c13c12c8cp+0},
    {0x1.399999999999ap+2, 0x1.9p+4, 0x1.85e2499169863p-38, 0x1.988622f0c57f8p-2},
    {0x1.399999999999ap+2, 0x1.9p+6, 0x1.df5053fe3f083p-148, 0x1.20e17e9b5ae3ep-3},
    {0x1.399999999999ap+2, 0x1.5ep+9, 0x1.aaff240b068bap-1015, 0x1.8ab2fa6b04ad7p-5},
    {0x1.5p+3, 0x1.5798ee2308c3ap-27, 0x1.92d4bb55faa77p+308, 0x1.92d4bb99901cep+308},
    {0x1.5p+3, 0x1.0624dd2f1a9fcp-10, 0x1.3107992f4fd35p+134, 0x1.3155b99bc964ep+134},
    {0x1.5p+3, 0x1.999999999999ap-4, 0x1.68054f5625e42p+64, 0x1.8de26b900076p+64},
    {0x1.5p+3, 0x1.6666666666666p-1, 0x1.fec26938aadb3p+34, 0x1.0122c32635866p+36},
    {0x1.5p+3, 0x1.8p+0, 0x1.4e431e4b15b97p+23, 0x1.7683c9544de64p+25},
    {0x1.5p+3, 0x1.ffbe76c8b4396p+0, 0x1.f510f49a6e7b3p+18, 0x1.ce5697184814fp+21},
    {0x1.5p+3, 0x1p+1, 0x1.f263da8ac5b92p+18, 0x1.cc5439de47697p+21},
    {0x1.5p+3, 0x1.0020c49ba5e35p+1, 0x1.efbabcd827e13p+18, 0x1.ca5466356b64dp+21},
    {0x1.5p+3, 0x1.a666666666666p+1, 0x1.1615441475b87p+11, 0x1.d7390dcc50d8cp+15},
    {0x1.5p+3, 0x1p+3, 0x1.d4b2e5f6fec9ap-5, 0x1.551b37ed3fa99p+7},
    {0x1.5p+3, 0x1.9p+4, 0x1.01b3ef1bc353p-35, 0x1.0e05ffb2e7ffcp+1},
    {0x1.5p+3, 0x1.9p+6, 0x1.6fe624c5db87ap-147, 0x1.bb7689293e5f8p-3},
    {0x1.5p+3, 0x1.5ep+9, 0x1.c61b27dd1111ep-1015, 0x1.a3c20f0bfd411p-5}
};

TEST(Bessel, KBitIdenticalOnRecordedGrid) {
  for (const KGridPoint& g : kKGrid) {
    EXPECT_EQ(bessel_k(g.nu, g.x), g.k) << "nu=" << g.nu << " x=" << g.x;
    EXPECT_EQ(bessel_k_scaled(g.nu, g.x), g.k_scaled) << "nu=" << g.nu << " x=" << g.x;
  }
}

TEST(BesselFixedOrder, MatchesBesselK) {
  // Against exp(nu log x - x) * bessel_k_scaled. Both round an exponent of
  // size ~x + nu |log x|, hence the second term; against 40-digit values
  // the two are equally accurate (<= 2.3e-14 relative for nu <= 4.9).
  for (double nu : {0.0, 0.05, 0.44, 0.5, 0.999, 1.0, 1.5, 2.0, 3.3, 4.9}) {
    const BesselKFixedOrder k(nu);
    EXPECT_TRUE(k.uses_expansion()) << "nu=" << nu;
    for (double x = 1e-10; x < 700.0; x *= 1.37) {
      const double ref = std::exp(nu * std::log(x) - x) * bessel_k_scaled(nu, x);
      const double tol = (2e-14 + 4 * 2.2e-16 * (x + nu * std::fabs(std::log(x)))) * ref;
      EXPECT_NEAR(k.xnu_k(x), ref, tol) << "nu=" << nu << " x=" << x;
    }
    for (double x : {1.9999999, 2.0, 2.0000001})
      EXPECT_NEAR(k.xnu_k(x), std::pow(x, nu) * bessel_k(nu, x), 2e-14 * k.xnu_k(x))
          << "nu=" << nu << " x=" << x;
  }
}

TEST(BesselFixedOrder, BatchMatchesBesselK) {
  // MatchesBesselK's grid and tolerance through one batch call per order, so
  // that the expansion runs several vectors at a time. The tier-1 suite runs
  // this binary once per dispatch path the host supports (GSX_GEMM_ISA).
  const char* isa = isa_name(active_isa());
  for (double nu : {0.0, 0.05, 0.44, 0.5, 0.999, 1.0, 1.5, 2.0, 3.3, 4.9}) {
    const BesselKFixedOrder k(nu);
    std::vector<double> xs;
    for (double x = 1e-10; x < 700.0; x *= 1.37) xs.push_back(x);
    std::vector<double> got(xs.size());
    k.xnu_k(xs.data(), got.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double x = xs[i];
      const double ref = std::exp(nu * std::log(x) - x) * bessel_k_scaled(nu, x);
      const double tol = (2e-14 + 4 * 2.2e-16 * (x + nu * std::fabs(std::log(x)))) * ref;
      EXPECT_NEAR(got[i], ref, tol) << "isa=" << isa << " nu=" << nu << " x=" << x;
    }
  }
}

TEST(BesselFixedOrder, BatchIsLanePositionInvariant) {
  // The same x at every offset of batches of 1 .. 2*8+1 (two AVX-512
  // vectors and a tail), among neighbours on both sides of x = 2: its bits
  // must equal the batch of one's.
  const double probes[] = {1e-9, 0.37, 1.9999999, 2.0, 2.0000001, 7.5, 640.0};
  const double fill[] = {0.05, 3.0, 1.2, 25.0, 0.9, 500.0, 1.7};
  for (double nu : {0.44, 1.3, 15.0}) {
    const BesselKFixedOrder k(nu);
    for (const double x : probes) {
      const double one = k.xnu_k(x);
      for (std::size_t len = 1; len <= 17; ++len) {
        for (std::size_t at = 0; at < len; ++at) {
          std::vector<double> in(len), out(len);
          for (std::size_t i = 0; i < len; ++i) in[i] = fill[(i + len) % 7];
          in[at] = x;
          k.xnu_k(in.data(), out.data(), len);
          EXPECT_EQ(std::memcmp(&out[at], &one, sizeof(double)), 0)
              << "nu=" << nu << " x=" << x << " len=" << len << " at=" << at
              << " got=" << out[at] << " one=" << one;
        }
      }
    }
  }
}

TEST(BesselFixedOrder, BatchHandlesNonFiniteAndNonPositiveArguments) {
  // No throw and no hang: NaN and x <= 0 give NaN, +inf gives 0, for the
  // expansion and for the CF2 fallback (nu = 15), in place.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double nu : {0.44, 15.0}) {
    const BesselKFixedOrder k(nu);
    std::vector<double> v = {nan, 1.0, inf, 0.0, -1.0, 3.0, -inf};
    EXPECT_NO_THROW(k.xnu_k(v.data(), v.data(), v.size()));
    EXPECT_TRUE(std::isnan(v[0])) << "nu=" << nu;
    EXPECT_EQ(v[1], k.xnu_k(1.0)) << "nu=" << nu;
    EXPECT_EQ(v[2], 0.0) << "nu=" << nu;
    EXPECT_TRUE(std::isnan(v[3])) << "nu=" << nu;
    EXPECT_TRUE(std::isnan(v[4])) << "nu=" << nu;
    EXPECT_EQ(v[5], k.xnu_k(3.0)) << "nu=" << nu;
    EXPECT_TRUE(std::isnan(v[6])) << "nu=" << nu;
  }
}

TEST(BesselFixedOrder, KeepsCf2WhereTheExpansionFailsItsCheck) {
  // High orders need more terms than the expansion has; the set-up check
  // must reject it, and x >= 2 must then give CF2's values.
  for (double nu : {15.0, 30.0}) {
    const BesselKFixedOrder k(nu);
    EXPECT_FALSE(k.uses_expansion()) << "nu=" << nu;
    for (double x : {2.0, 3.5, 10.0, 60.0}) {
      const double ref = std::exp(nu * std::log(x) - x) * bessel_k_scaled(nu, x);
      EXPECT_EQ(k.xnu_k(x), ref) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(Bessel, RejectsBadArguments) {
  EXPECT_THROW(bessel_k(0.5, 0.0), InvalidArgument);
  EXPECT_THROW(bessel_k(0.5, -1.0), InvalidArgument);
  EXPECT_THROW(bessel_k(std::nan(""), 1.0), InvalidArgument);
  EXPECT_THROW(bessel_i(-1.0, 1.0), InvalidArgument);
  EXPECT_THROW(BesselKFixedOrder(std::nan("")), InvalidArgument);
}

}  // namespace
}  // namespace gsx::mathx
