// Distance metrics between observation locations.
#pragma once

#include <cmath>
#include <cstddef>

namespace gsx::mathx {

/// Euclidean distance in the plane.
inline double euclidean2d(double x1, double y1, double x2, double y2) {
  return std::hypot(x1 - x2, y1 - y2);
}

/// out[i] = sqrt((x[i] - bx)^2 + (y[i] - by)^2) / scale for i < n, in the
/// dispatched ISA's vector lanes (mathx/lanes.hpp). Unlike hypot it
/// underflows to 0 for points closer than ~1e-154 and overflows past
/// ~1e154, so a caller that needs "same location" compares coordinates.
/// A result's bits depend only on its operands and the ISA, not on i or n.
void scaled_distances(const double* x, const double* y, double bx, double by, double scale,
                      double* out, std::size_t n);

/// Great-circle distance on the unit sphere between (lon, lat) pairs given
/// in degrees, via the haversine formula. Multiply by the Earth radius for
/// kilometres; geostatistical range parameters absorb the scale.
double haversine_deg(double lon1, double lat1, double lon2, double lat2);

}  // namespace gsx::mathx
