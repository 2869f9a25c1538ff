#include "core/input.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geospanner::core {

std::string input_error(std::span<const geom::Point> points, double radius) {
    if (!std::isfinite(radius) || radius < 0.0) {
        return "radius must be finite and non-negative";
    }
    // Magnitudes within 2^±200 keep squared distances and the degree-4
    // in-circle terms far from overflow, and r² a normal double (a
    // subnormal or zero r² would admit every pair as an edge).
    if (radius > 0.0 && (radius < std::ldexp(1.0, -200) || radius > std::ldexp(1.0, 200))) {
        return "radius outside [2^-200, 2^200]";
    }
    // Grid indexes are floor(coordinate / radius) as a 64-bit integer;
    // ratios from 2^62 up would overflow the cast (or, after a one-cell
    // offset, the neighbor scan).
    const double limit =
        radius > 0.0 ? std::min(std::ldexp(radius, 62), std::ldexp(1.0, 200))
                     : std::ldexp(1.0, 200);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double x = points[i].x;
        const double y = points[i].y;
        if (!std::isfinite(x) || !std::isfinite(y)) {
            return "non-finite coordinate at point " + std::to_string(i);
        }
        if (std::abs(x) >= limit || std::abs(y) >= limit) {
            return "coordinate too large at point " + std::to_string(i);
        }
    }
    return {};
}

void validate_input(std::span<const geom::Point> points, double radius) {
    if (std::string error = input_error(points, radius); !error.empty()) {
        throw std::invalid_argument(std::move(error));
    }
}

}  // namespace geospanner::core
