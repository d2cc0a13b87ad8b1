// Distance metrics between observation locations.
#pragma once

#include <cmath>

namespace gsx::mathx {

/// Euclidean distance in the plane.
inline double euclidean2d(double x1, double y1, double x2, double y2) {
  return std::hypot(x1 - x2, y1 - y2);
}

/// Great-circle distance on the unit sphere between (lon, lat) pairs given
/// in degrees, via the haversine formula. Multiply by the Earth radius for
/// kilometres; geostatistical range parameters absorb the scale.
double haversine_deg(double lon1, double lat1, double lon2, double lat2);

}  // namespace gsx::mathx
