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

/// The F-edge token of the Theorem 1 and Theorem 7 Phase IIs: node v's
/// token for its edge to a neighbor u packs
/// ((v·n + u) << 2) | (v ∈ U) << 1 | (u ∈ U).
inline std::uint64_t encode_f_edge(std::uint64_t n, graph::VertexId v,
                                   graph::VertexId u, bool v_in_u,
                                   bool u_in_u) {
  return ((static_cast<std::uint64_t>(v) * n + static_cast<std::uint64_t>(u))
          << 2) |
         (std::uint64_t{v_in_u} << 1) | std::uint64_t{u_in_u};
}

/// Lemma 3's leader-side decoding of F-edge tokens: the F-edges, and each
/// vertex's neighbors that a token shows in U.
struct FEdges {
  std::set<std::pair<graph::VertexId, graph::VertexId>> edges;
  std::map<graph::VertexId, std::vector<graph::VertexId>> u_neighbors;

  void add(std::uint64_t n, std::uint64_t token) {
    const auto v = static_cast<graph::VertexId>((token >> 2) / n);
    const auto u = static_cast<graph::VertexId>((token >> 2) % n);
    edges.insert(std::minmax(v, u));
    if ((token & 2u) != 0) u_neighbors[u].push_back(v);
    if ((token & 1u) != 0) u_neighbors[v].push_back(u);
  }
};

/// One leader's local numbering of G's vertices: the sorted, distinct
/// `ids[i]` maps to i in an n-entry table that every leader of a run
/// shares (-1 elsewhere), and the table is restored when the numbering
/// goes out of scope, so a leader's cost follows its own tokens, not n.
struct LocalIds {
  std::vector<graph::VertexId>& table;
  const std::vector<graph::VertexId>& ids;

  // at(): ids come from decoded tokens, and one past n must throw rather
  // than write out of bounds.
  LocalIds(std::vector<graph::VertexId>& shared,
           const std::vector<graph::VertexId>& sorted_ids)
      : table(shared), ids(sorted_ids) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      table.at(static_cast<std::size_t>(ids[i])) =
          static_cast<graph::VertexId>(i);
  }
  LocalIds(const LocalIds&) = delete;
  ~LocalIds() {
    for (graph::VertexId v : ids) table[static_cast<std::size_t>(v)] = -1;
  }
  /// v's local id, or -1 outside `ids`.
  graph::VertexId operator()(graph::VertexId v) const {
    return table[static_cast<std::size_t>(v)];
  }
};

/// Lemma 3's leader-side reconstruction of H = G^2[U], shared by the
/// Theorem 1 and Theorem 7 Phase IIs: U-vertex u.ids[i] becomes H-vertex
/// i, F-edges with both ends in U become H-edges, and the U-neighbors of
/// each vertex (`u_neighbors`, filtered to U, sorted and deduplicated in
/// place) are joined pairwise.  Fault-free every listed neighbor is in U
/// and every F-edge joins two vertices; tokens an adversary corrupted
/// within their range can name a neighbor outside U or an F-edge {u, u},
/// and both are left out of H like an F-edge leaving U.
inline graph::Graph remainder_square(
    const LocalIds& u,
    const std::set<std::pair<graph::VertexId, graph::VertexId>>& f_edges,
    std::map<graph::VertexId, std::vector<graph::VertexId>>& u_neighbors) {
  graph::GraphBuilder builder(static_cast<graph::VertexId>(u.ids.size()));
  for (const auto& [a, b] : f_edges)  // direct edges inside U
    if (a != b && u(a) != -1 && u(b) != -1) builder.add_edge(u(a), u(b));
  for (auto& [w, nbrs] : u_neighbors) {  // pairs through a common neighbor
    (void)w;
    std::erase_if(nbrs, [&](graph::VertexId v) { return u(v) == -1; });
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j)
        builder.add_edge(u(nbrs[i]), u(nbrs[j]));
  }
  return std::move(builder).build();
}

}  // namespace pg::core
