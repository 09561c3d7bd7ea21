// Lemma 6: in G^r (connected G, n vertices), every vertex cover has size at
// least n - n/(⌊r/2⌋ + 1), so taking all vertices is a zero-round
// (1 + 1/⌊r/2⌋)-approximation for unweighted MVC on G^r.
#pragma once

#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::core {

/// The all-vertices cover (the "0-round algorithm").  Isolated vertices
/// cover no edge and are left out, so the guarantee holds per component
/// of a disconnected G too.
graph::VertexSet trivial_power_cover(graph::GraphView g);

/// Lemma 6's lower bound on |OPT(G^r)|: n - n/(⌊r/2⌋+1), rounded the safe
/// way (this is a bound on an integer quantity).
double trivial_cover_opt_lower_bound(graph::VertexId n, int r);

/// The guaranteed approximation factor of the trivial cover: 1 + 1/⌊r/2⌋.
double trivial_cover_guarantee(int r);

}  // namespace pg::core
