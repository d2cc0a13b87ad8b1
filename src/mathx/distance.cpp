#include "mathx/distance.hpp"

#include <algorithm>
#include <cmath>

#include "common/isa.hpp"
#include "mathx/lanes.hpp"

namespace gsx::mathx {

namespace {
constexpr double kDegToRad = 3.141592653589793238462643383279502884 / 180.0;

/// Whole vectors, then the tail as one vector padded with zeros.
template <class L>
void scaled_distances_lanes(const double* x, const double* y, double bx, double by,
                            double scale, double* out, std::size_t n) {
  using V = typename L::V;
  const auto vec = [&](const double* px, const double* py, double* po) {
    const V dx = L::load(px) - V(bx);
    const V dy = L::load(py) - V(by);
    L::store(po, L::sqrt(L::fma(dx, dx, dy * dy)) / V(scale));
  };
  std::size_t i = 0;
  for (; i + L::W <= n; i += L::W) vec(x + i, y + i, out + i);
  if (i == n) return;
  double tx[L::W] = {}, ty[L::W] = {}, to[L::W] = {};
  std::copy(x + i, x + n, tx);
  std::copy(y + i, y + n, ty);
  vec(tx, ty, to);
  std::copy(to, to + (n - i), out + i);
}

// One entry per ISA; see mathx/lanes.hpp for why they are flattened.
[[gnu::flatten]] void scaled_distances_portable(const double* x, const double* y, double bx,
                                                double by, double scale, double* out,
                                                std::size_t n) {
  scaled_distances_lanes<lanes::PortableLanes>(x, y, bx, by, scale, out, n);
}
#if GSX_X86_DISPATCH
GSX_TARGET_AVX2 [[gnu::flatten]] void scaled_distances_avx2(const double* x, const double* y,
                                                            double bx, double by,
                                                            double scale, double* out,
                                                            std::size_t n) {
  scaled_distances_lanes<lanes::Avx2Lanes>(x, y, bx, by, scale, out, n);
}
GSX_TARGET_AVX512 [[gnu::flatten]] void scaled_distances_avx512(const double* x,
                                                                const double* y, double bx,
                                                                double by, double scale,
                                                                double* out, std::size_t n) {
  scaled_distances_lanes<lanes::Avx512Lanes>(x, y, bx, by, scale, out, n);
}
#endif

}  // namespace

void scaled_distances(const double* x, const double* y, double bx, double by, double scale,
                      double* out, std::size_t n) {
  switch (active_isa()) {
#if GSX_X86_DISPATCH
    case Isa::Avx512: return scaled_distances_avx512(x, y, bx, by, scale, out, n);
    case Isa::Avx2: return scaled_distances_avx2(x, y, bx, by, scale, out, n);
#endif
    default: return scaled_distances_portable(x, y, bx, by, scale, out, n);
  }
}

double haversine_deg(double lon1, double lat1, double lon2, double lat2) {
  const double phi1 = lat1 * kDegToRad;
  const double phi2 = lat2 * kDegToRad;
  const double dphi = (lat2 - lat1) * kDegToRad;
  const double dlam = (lon2 - lon1) * kDegToRad;
  const double a = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) * std::sin(dlam / 2);
  return 2.0 * std::asin(std::min(1.0, std::sqrt(a)));
}

}  // namespace gsx::mathx
