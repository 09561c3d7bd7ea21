#include "core/trivial.hpp"

namespace pg::core {

graph::VertexSet trivial_power_cover(graph::GraphView g) {
  graph::VertexSet cover(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > 0) cover.insert(v);
  return cover;
}

double trivial_cover_opt_lower_bound(graph::VertexId n, int r) {
  PG_REQUIRE(r >= 1, "power exponent must be >= 1");
  const double alpha = static_cast<double>(r / 2 + 1);
  return static_cast<double>(n) - static_cast<double>(n) / alpha;
}

double trivial_cover_guarantee(int r) {
  PG_REQUIRE(r >= 2, "the trivial guarantee needs r >= 2 (⌊r/2⌋ >= 1)");
  return 1.0 + 1.0 / static_cast<double>(r / 2);
}

}  // namespace pg::core
