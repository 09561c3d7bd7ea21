// Small helpers shared by the paper's solver implementations.  Each has
// a semantics contract another implementation mirrors (the CONGEST and
// centralized Theorem 7 paths must bucket weights identically; the two
// G^r exact phases must slice budgets identically), so there is exactly
// one definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

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

/// Lemma 3's leader-side reconstruction of H = G^2[U], shared by the
/// Theorem 1 and Theorem 7 Phase IIs: U-vertex u_list[i] becomes H-vertex
/// i, F-edges with both ends in U become H-edges, and the U-neighbors of
/// each vertex (`u_neighbors`, filtered to u_list, sorted and deduplicated
/// in place) are joined pairwise.  Fault-free every listed neighbor is in
/// u_list and every F-edge joins two vertices; tokens an adversary
/// corrupted within their range can name a neighbor outside u_list or an
/// F-edge {u, u}, and both are left out of H like an F-edge leaving U.
inline graph::Graph remainder_square(
    std::size_t n, const std::vector<graph::VertexId>& u_list,
    const std::set<std::pair<graph::VertexId, graph::VertexId>>& f_edges,
    std::map<graph::VertexId, std::vector<graph::VertexId>>& u_neighbors) {
  std::vector<graph::VertexId> to_h(n, -1);
  // at(): u_list comes from decoded tokens, and an id past n must throw
  // rather than write out of bounds.
  for (std::size_t i = 0; i < u_list.size(); ++i)
    to_h.at(static_cast<std::size_t>(u_list[i])) =
        static_cast<graph::VertexId>(i);
  const auto h = [&](graph::VertexId v) {
    return to_h[static_cast<std::size_t>(v)];
  };
  graph::GraphBuilder builder(static_cast<graph::VertexId>(u_list.size()));
  for (const auto& [u, v] : f_edges)  // direct edges inside U
    if (u != v && h(u) != -1 && h(v) != -1) builder.add_edge(h(u), h(v));
  for (auto& [w, nbrs] : u_neighbors) {  // pairs through a common neighbor
    (void)w;
    std::erase_if(nbrs, [&](graph::VertexId v) { return h(v) == -1; });
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j)
        builder.add_edge(h(nbrs[i]), h(nbrs[j]));
  }
  return std::move(builder).build();
}

}  // namespace pg::core
