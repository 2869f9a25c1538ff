// Validation of build input, shared by every public entry point that
// takes raw positions (engine, tile shards, backends, DynamicSpanner,
// and update batches) and by the backbone builders over a given graph.
#pragma once

#include <span>
#include <string>

#include "geom/vec2.h"

namespace geospanner::core {

/// "" when every point has finite coordinates below 2^200 in magnitude,
/// `radius` is finite and either 0 ("no edges") or in [2^-200, 2^200],
/// and, for a positive radius, every |coordinate| / radius is below 2^62
/// (the cell grids' integer range); otherwise the first problem found,
/// naming the offending point's index. Within these bounds squared
/// distances and the in-circle terms cannot overflow and r² stays a
/// normal double.
[[nodiscard]] std::string input_error(std::span<const geom::Point> points,
                                      double radius = 0.0);

/// Throws std::invalid_argument carrying input_error's message when it
/// is non-empty.
void validate_input(std::span<const geom::Point> points, double radius);

}  // namespace geospanner::core
