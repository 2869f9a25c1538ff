#include "core/input.h"

#include <cmath>
#include <stdexcept>

namespace geospanner::core {

std::string input_error(std::span<const geom::Point> points, double radius) {
    if (!std::isfinite(radius) || radius < 0.0) {
        return "radius must be finite and non-negative";
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
            return "non-finite coordinate at point " + std::to_string(i);
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
