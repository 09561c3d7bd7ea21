// Theorem 1: a deterministic CONGEST algorithm computing a (1+ε)-approximate
// minimum vertex cover of G^2 in O(n/ε) rounds, where G is the
// communication network.
//
// Phase I repeatedly lets a center c that still has more than 1/ε'
// neighbors outside the cover (ε' = 1/⌈1/ε⌉) add its whole remaining
// neighborhood N(c)∩R — a clique in G^2 — to the cover; symmetry is broken
// by selecting candidates that hold the maximum id in their 2-hop
// neighborhood (Lemma 5 gives the (1+ε') charge).  Phase II ships the O(n/ε)
// remaining edges F to a leader over a BFS tree (Lemma 2; one leader per
// connected component), which reconstructs H = G^2[U] locally (Lemma 3),
// solves it, and broadcasts the solution.
//
// Round counts are measured by the simulator and include leader election,
// tree construction, and pipelining.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace pg::core {

enum class LeaderSolver {
  kExact,       // optimal VC of H (Theorem 1 as stated)
  kFiveThirds,  // centralized 5/3-approximation (Corollary 17)
  kTwoApprox,   // maximal-matching 2-approximation (cheap baseline)
};

struct MvcCongestConfig {
  double epsilon = 0.5;
  LeaderSolver leader_solver = LeaderSolver::kExact;
  std::int64_t exact_node_budget = 50'000'000;  // shared by all leaders
};

struct MvcCongestResult {
  graph::VertexSet cover;        // S ∪ R*
  congest::RoundStats stats;     // total measured rounds/messages/bits
  std::int64_t phase1_rounds = 0;
  std::int64_t phase2_rounds = 0;
  int iterations = 0;            // Phase I iterations that selected centers
  std::size_t phase1_cover_size = 0;  // |S|
  std::size_t remainder_size = 0;     // |U|
  std::size_t f_edge_count = 0;       // |F| (deduplicated)
  int epsilon_inverse = 0;            // l = ⌈1/ε⌉ (threshold parameter)
  bool leader_solution_optimal = true;
};

/// Runs Algorithm 1, with one Phase II leader per connected component of
/// the network.  For ε >= 1, returns the trivial cover of every
/// non-isolated vertex (a 0-round 2-approximation; see Lemma 6).
MvcCongestResult solve_g2_mvc_congest(graph::GraphView g,
                                      const MvcCongestConfig& config = {});

/// Same, on a caller-owned simulator (rewound via Network::reset() first),
/// so batch drivers can run many configurations on one topology without
/// reallocating the simulator's buffers.
MvcCongestResult solve_g2_mvc_congest(congest::Network& net,
                                      const MvcCongestConfig& config = {});

/// Section 3.3's randomized voting scheme run in plain CONGEST: Phase I
/// finishes in O(log n) phases w.h.p. instead of O(εn) iterations (every
/// message travels along G edges, so the clique is not needed), while
/// Phase II still pays the Θ(n/ε) pipelining — which is why, as the paper
/// notes, the total CONGEST complexity does not improve.  Exposed so the
/// phase-count speedup is measurable on its own.
MvcCongestResult solve_g2_mvc_congest_randomized(
    graph::GraphView g, Rng& rng, const MvcCongestConfig& config = {});

/// Caller-owned-simulator overload (see solve_g2_mvc_congest above).
MvcCongestResult solve_g2_mvc_congest_randomized(
    congest::Network& net, Rng& rng, const MvcCongestConfig& config = {});

/// The leader's local step of Phase II: rebuilds H = G^2[U] from the
/// F-edge tokens it collected (Lemma 3), solves it with the configured
/// leader solver, and returns R* in ascending vertex order.  Each call adds
/// to the result's remainder_size and f_edge_count, so a transport may
/// call it once per leader.
using LeaderSolve = congest::LeaderSolve;

/// How Phase II reaches the leaders and back: ships each node's F-edge
/// tokens (`tokens[v]` are v's) to a leader, runs `solve` there, and tells
/// every node whether it is in R*, inserting the members into `cover`.  Node v's
/// token for its edge to a U-neighbor u packs ((v·n + u) << 2) |
/// (v ∈ U) << 1 | 1.
using Phase2Transport =
    std::function<void(std::vector<std::vector<std::uint64_t>> tokens,
                       const LeaderSolve& solve, graph::VertexSet& cover)>;

/// Phase I's symmetry breaking, shared by Theorems 1 and 7: candidates
/// announced themselves in `cand_kind` messages last round; this round
/// every node broadcasts the largest candidate id within one hop (a
/// `max_kind` message, declared {-1, n-1}; `max1` is per-node scratch),
/// and next round `win(node)` runs at each candidate that holds the
/// largest id within two hops.
template <typename Win>
void select_two_hop_max(congest::Network& net, std::uint8_t cand_kind,
                        std::uint8_t max_kind,
                        const std::vector<char>& is_candidate,
                        std::vector<congest::NodeId>& max1, Win&& win) {
  net.round([&](congest::NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    congest::NodeId best = is_candidate[me] != 0 ? node.id() : -1;
    for (const congest::Incoming& in : node.inbox())
      if (in.msg.kind == cand_kind) best = std::max(best, in.from);
    max1[me] = best;
    node.broadcast(congest::Message{max_kind, {best}});
  });
  net.round([&](congest::NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    congest::NodeId best = max1[me];
    for (const congest::Incoming& in : node.inbox())
      if (in.msg.kind == max_kind)
        best = std::max(best, static_cast<congest::NodeId>(in.msg.at(0)));
    if (is_candidate[me] != 0 && best == node.id()) win(node);
  });
}

/// Phase II's first two rounds, shared by Theorems 1 and 7: every node
/// announces in a `kind` message (declared {0, 1}) whether it is in U, then
/// holds one F-edge token (encode_f_edge) per U-neighbor — it is
/// responsible for its edges into U (Lemma 2).
std::vector<std::vector<std::uint64_t>> f_edge_tokens(
    congest::Network& net, std::uint8_t kind, const std::vector<char>& in_u);

/// Algorithm 1 on `net` (rewound first) with a caller-chosen Phase II
/// transport: Phase I over G's edges — max-id symmetry breaking when `rng`
/// is null, Section 3.3's voting otherwise — then the U-status round pair
/// that gives every node its F-edge tokens, then `transport`.  The CONGEST
/// entry points above pipeline over each component's BFS tree (Lemma 2);
/// the CONGESTED CLIQUE ones (mvc_clique.hpp) send straight to one leader
/// (Lemma 9).
MvcCongestResult run_algorithm1(congest::Network& net,
                                const MvcCongestConfig& config, Rng* rng,
                                const Phase2Transport& transport);

}  // namespace pg::core
