#include "core/naive.hpp"

#include <algorithm>

#include "congest/primitives.hpp"
#include "core/solver_util.hpp"
#include "graph/power.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"

namespace pg::core {

using congest::Network;
using congest::NodeId;
using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

NaiveResult solve_naively_in_congest(GraphView g, NaiveProblem problem,
                                     std::int64_t exact_node_budget) {
  Network net(g);
  return solve_naively_in_congest(net, problem, exact_node_budget);
}

NaiveResult solve_naively_in_congest(Network& net, NaiveProblem problem,
                                     std::int64_t exact_node_budget) {
  net.reset();
  GraphView g = net.topology();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  NaiveResult result;
  result.solution = VertexSet(g.num_vertices());

  // Every node ships each incident edge once (the lower endpoint reports).
  std::vector<std::vector<std::uint64_t>> tokens(n);
  g.for_each_edge([&](VertexId u, VertexId v) {
    tokens[static_cast<std::size_t>(u)].push_back(
        static_cast<std::uint64_t>(u) * n + static_cast<std::uint64_t>(v));
  });

  // Leader-local: rebuild its component of G over the token endpoints and
  // itself, in ascending id order, square it, solve exactly.  A well-formed
  // token has u < v (the lower endpoint reports), so one a corruption left
  // inside kToken's domain but not in that shape is dropped.  The leaders
  // share one LocalIds table, whose entries also mark the ids a leader has
  // seen, and one exact-search budget.
  std::vector<VertexId> table(n, -1);
  std::size_t assembled_edges = 0;
  const auto solve = [&](NodeId leader, const std::vector<std::uint64_t>& raw) {
    std::vector<VertexId> ids;
    const auto see = [&](std::uint64_t v) {
      if (table[v] == -1) ids.push_back(table[v] = static_cast<VertexId>(v));
    };
    see(static_cast<std::uint64_t>(leader));
    for (std::uint64_t token : raw)
      if (token / n < token % n) {
        see(token / n);
        see(token % n);
      }
    std::sort(ids.begin(), ids.end());
    const LocalIds local(table, ids);
    graph::GraphBuilder builder(static_cast<VertexId>(ids.size()));
    for (std::uint64_t token : raw)
      if (token / n < token % n)
        builder.add_edge(local(static_cast<VertexId>(token / n)),
                         local(static_cast<VertexId>(token % n)));
    const Graph assembled = std::move(builder).build();
    assembled_edges += assembled.num_edges();
    const Graph square = graph::square(assembled);
    const solvers::ExactResult exact =
        problem == NaiveProblem::kMvcOnSquare
            ? solvers::solve_mvc(square, exact_node_budget)
            : solvers::solve_mds(square, exact_node_budget);
    exact_node_budget -= exact.nodes_explored;
    result.optimal = result.optimal && exact.optimal;
    std::vector<NodeId> chosen;
    for (VertexId v : exact.solution.to_vector())
      chosen.push_back(ids[static_cast<std::size_t>(v)]);
    return chosen;
  };
  for (NodeId v :
       congest::gather_solve_scatter(net, std::move(tokens), n * n - 1, solve))
    result.solution.insert(v);
  if (assembled_edges != g.num_edges())
    PG_CHECK(net.faults_active(), "leader reassembled a different graph");

  result.stats = net.stats();
  return result;
}

}  // namespace pg::core
