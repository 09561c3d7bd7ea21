// Small helpers shared by the paper's solver implementations.  Each has
// a semantics contract another implementation mirrors (the CONGEST and
// centralized Theorem 7 paths must bucket weights identically; the two
// G^r exact phases must slice budgets identically), so there is exactly
// one definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace pg::core {

/// Theorem 7's weight-scale class index: the i with
/// w_min·2^i <= w < w_min·2^{i+1}.  The loop condition is phrased
/// divide-side — exactly equivalent for integers — so `low` never
/// multiplies past the int64 range whatever w is.
inline int weight_class(graph::Weight w_min, graph::Weight w) {
  PG_CHECK(w >= w_min && w_min > 0, "weight outside class range");
  int i = 0;
  graph::Weight low = w_min;
  while (low <= w / 2) {
    low *= 2;
    ++i;
  }
  return i;
}

/// base^exponent, saturated at the int64 maximum instead of overflowing —
/// Theorem 7's weight cap n^4 leaves the int64 range from n = 55,109 on.
inline graph::Weight saturating_pow(std::uint64_t base, int exponent) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<graph::Weight>::max());
  std::uint64_t result = 1;
  for (int i = 0; i < exponent; ++i) {
    if (base != 0 && result > kMax / base)
      return static_cast<graph::Weight>(kMax);
    result *= base;
  }
  return static_cast<graph::Weight>(result);
}

/// Node budget for one remainder component of a G^r exact phase: small
/// components (where seed behavior must be preserved bit for bit) may
/// spend the whole remaining budget, larger ones get a size-scaled slice
/// so a single stubborn component cannot burn minutes before giving up.
inline std::int64_t component_budget(graph::VertexId comp_size,
                                     std::int64_t remaining) {
  if (comp_size <= 64) return remaining;
  return std::min<std::int64_t>(
      remaining, std::max<std::int64_t>(50'000, 64'000'000 / comp_size));
}

}  // namespace pg::core
