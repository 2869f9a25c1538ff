// Validation of build input, shared by every public entry point that
// takes raw positions (engine, tile shards, backends, DynamicSpanner,
// and update batches).
#pragma once

#include <span>
#include <string>

#include "geom/vec2.h"

namespace geospanner::core {

/// "" when every point has finite coordinates and `radius` is finite and
/// non-negative (radius 0 means "no edges"), and, for a positive radius,
/// every |coordinate| / radius is below 2^62 (the cell grids' integer
/// range); otherwise the first problem found, naming the offending
/// point's index.
[[nodiscard]] std::string input_error(std::span<const geom::Point> points,
                                      double radius = 0.0);

/// Throws std::invalid_argument carrying input_error's message when it
/// is non-empty.
void validate_input(std::span<const geom::Point> points, double radius);

}  // namespace geospanner::core
