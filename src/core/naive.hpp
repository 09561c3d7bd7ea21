// The naive CONGEST baseline the paper repeatedly contrasts against: ship
// the *entire* graph to a leader over a BFS tree (Θ(m + D) rounds, i.e.
// Θ(n^2) on dense graphs), solve the problem locally, broadcast the
// answer.  Exact and always applicable — just slow, which is precisely the
// gap Theorems 1 and 28 close.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::core {

enum class NaiveProblem {
  kMvcOnSquare,  // exact minimum vertex cover of G^2
  kMdsOnSquare,  // exact minimum dominating set of G^2
};

struct NaiveResult {
  graph::VertexSet solution;
  congest::RoundStats stats;
  bool optimal = true;  // false if the leader's solver ran out of budget
};

/// Gathers each component of G at its leader, solves `problem` on its
/// square exactly within one node budget that all leaders share, and
/// broadcasts the answer; every round is simulated and counted.
NaiveResult solve_naively_in_congest(
    graph::GraphView g, NaiveProblem problem,
    std::int64_t exact_node_budget = 50'000'000);

/// Caller-owned-simulator overload: rewinds `net` via Network::reset() and
/// runs on its topology, so batch drivers reuse one simulator per worker.
NaiveResult solve_naively_in_congest(
    congest::Network& net, NaiveProblem problem,
    std::int64_t exact_node_budget = 50'000'000);

}  // namespace pg::core
