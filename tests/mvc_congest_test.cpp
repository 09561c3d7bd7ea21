// Tests for Theorem 1 (CONGEST (1+ε)-approximate G^2-MVC) and Theorem 7
// (the weighted variant): validity, approximation factor against the exact
// optimum, round bounds, and the Phase I invariants (Lemmas 2, 5, 8).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "core/mvc_congest.hpp"
#include "core/mwvc_congest.hpp"
#include "core/solver_util.hpp"
#include "core/trivial.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::VertexWeights;
using graph::Weight;

struct Instance {
  std::string name;
  Graph g;
};

std::vector<Instance> small_instances() {
  Rng rng(101);
  std::vector<Instance> out;
  out.push_back({"path16", graph::path_graph(16)});
  out.push_back({"cycle17", graph::cycle_graph(17)});
  out.push_back({"star12", graph::star_graph(12)});
  out.push_back({"grid4x5", graph::grid_graph(4, 5)});
  out.push_back({"caterpillar", graph::caterpillar(5, 2)});
  out.push_back({"barbell", graph::barbell(5, 4)});
  out.push_back({"gnp20a", graph::connected_gnp(20, 0.15, rng)});
  out.push_back({"gnp20b", graph::connected_gnp(20, 0.25, rng)});
  out.push_back({"tree24", graph::random_tree(24, rng)});
  out.push_back({"disk18", graph::connected_unit_disk(18, 0.35, rng)});
  return out;
}

TEST(MvcCongest, CoverIsValidAndWithinFactor) {
  for (const auto& inst : small_instances()) {
    for (double eps : {1.0, 0.5, 0.34, 0.25}) {
      MvcCongestConfig config;
      config.epsilon = eps;
      const MvcCongestResult result = solve_g2_mvc_congest(inst.g, config);
      EXPECT_TRUE(graph::is_vertex_cover_of_square(inst.g, result.cover))
          << inst.name << " eps=" << eps;
      const Weight opt = solvers::solve_mvc(graph::square(inst.g)).value;
      const double factor = 1.0 + 1.0 / std::ceil(1.0 / eps);
      EXPECT_LE(static_cast<double>(result.cover.size()),
                (eps >= 1.0 ? 2.0 : factor) * static_cast<double>(opt) + 1e-9)
          << inst.name << " eps=" << eps;
    }
  }
}

TEST(MvcCongest, PhaseOneChargingInvariant) {
  // Lemma 5's accounting needs every selected clique to remove more than l
  // vertices; globally |S| <= (1+1/l)|OPT ∩ S| <= (1+1/l)|OPT|.  We verify
  // the measurable consequence |S| <= (1+1/l)·|OPT|.
  Rng rng(103);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::connected_gnp(22, 0.2, rng);
    MvcCongestConfig config;
    config.epsilon = 0.5;
    const MvcCongestResult result = solve_g2_mvc_congest(g, config);
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    EXPECT_LE(static_cast<double>(result.phase1_cover_size),
              1.5 * static_cast<double>(opt) + 1e-9);
  }
}

TEST(MvcCongest, FBoundLemma2) {
  // After Phase I every vertex has at most l neighbors in U, so
  // |F| <= n·l (each vertex responsible for at most l edges).
  Rng rng(107);
  for (double eps : {0.5, 0.25}) {
    const Graph g = graph::connected_gnp(40, 0.12, rng);
    MvcCongestConfig config;
    config.epsilon = eps;
    const MvcCongestResult result = solve_g2_mvc_congest(g, config);
    EXPECT_LE(result.f_edge_count,
              static_cast<std::size_t>(g.num_vertices()) *
                  static_cast<std::size_t>(result.epsilon_inverse));
  }
}

TEST(MvcCongest, RoundsScaleLinearlyInN) {
  // Theorem 1: O(n/ε) rounds.  We check rounds <= C·(n·l) for a modest
  // constant C on paths (worst-case diameter).
  for (VertexId n : {16, 32, 64}) {
    const Graph g = graph::path_graph(n);
    MvcCongestConfig config;
    config.epsilon = 0.5;
    const MvcCongestResult result = solve_g2_mvc_congest(g, config);
    EXPECT_LE(result.stats.rounds,
              20 * static_cast<std::int64_t>(n) *
                  static_cast<std::int64_t>(result.epsilon_inverse))
        << "n=" << n;
  }
}

TEST(MvcCongest, LeaderVariantsStayValid) {
  Rng rng(109);
  const Graph g = graph::connected_gnp(24, 0.18, rng);
  for (LeaderSolver solver : {LeaderSolver::kExact, LeaderSolver::kFiveThirds,
                              LeaderSolver::kTwoApprox}) {
    MvcCongestConfig config;
    config.epsilon = 0.5;
    config.leader_solver = solver;
    const MvcCongestResult result = solve_g2_mvc_congest(g, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  }
}

TEST(MvcCongest, CliqueInputNeedsNoPhaseTwoWork) {
  // On a clique, one center covers everything; U ends up a single vertex.
  const Graph g = graph::complete_graph(12);
  MvcCongestConfig config;
  config.epsilon = 0.5;
  const MvcCongestResult result = solve_g2_mvc_congest(g, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.phase1_cover_size, 11u);
}

TEST(MvcCongest, EpsilonAboveOneIsTrivialCover) {
  const Graph g = graph::path_graph(9);
  MvcCongestConfig config;
  config.epsilon = 2.0;
  const MvcCongestResult result = solve_g2_mvc_congest(g, config);
  EXPECT_EQ(result.cover.size(), 9u);
  EXPECT_EQ(result.stats.rounds, 0);
}

TEST(MvcCongest, SingleVertexAndSingleEdge) {
  {
    const MvcCongestResult result = solve_g2_mvc_congest(graph::path_graph(1));
    EXPECT_EQ(result.cover.size(), 0u);
  }
  {
    const MvcCongestResult result = solve_g2_mvc_congest(graph::path_graph(2));
    EXPECT_TRUE(graph::is_vertex_cover_of_square(graph::path_graph(2),
                                                 result.cover));
    EXPECT_LE(result.cover.size(), 1u);
  }
}

TEST(MvcCongest, RejectsBadInput) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);  // disconnected
  const Graph g = std::move(b).build();
  EXPECT_THROW(solve_g2_mvc_congest(g), PreconditionViolation);
  MvcCongestConfig config;
  config.epsilon = 0.0;
  EXPECT_THROW(solve_g2_mvc_congest(graph::path_graph(3), config),
               PreconditionViolation);
}

TEST(MvcCongestRandomized, ValidAndWithinFactor) {
  Rng rng(151);
  Rng alg_rng(2718);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::connected_gnp(24, 0.25, rng);
    MvcCongestConfig config;
    config.epsilon = 0.5;
    const MvcCongestResult result =
        solve_g2_mvc_congest_randomized(g, alg_rng, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    EXPECT_LE(static_cast<double>(result.cover.size()),
              1.5 * static_cast<double>(opt) + 1e-9);
  }
}

TEST(MvcCongestRandomized, PhaseOneFinishesInLogPhases) {
  // Section 3.3: the voting scheme needs O(log n) phases w.h.p. even in
  // plain CONGEST (though Phase II still dominates the total).
  Rng rng(157);
  Rng alg_rng(3141);
  for (graph::VertexId n : {64, 128, 256}) {
    const Graph g = graph::connected_gnp(n, 12.0 / n, rng);
    MvcCongestConfig config;
    config.epsilon = 0.25;
    const MvcCongestResult result =
        solve_g2_mvc_congest_randomized(g, alg_rng, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    EXPECT_LE(result.iterations,
              10 * static_cast<int>(std::log2(static_cast<double>(n))) + 10)
        << "n=" << n;
  }
}

// ------------------------------------------------------------- weighted ---

TEST(MwvcCongest, CoverIsValidAndWithinFactor) {
  Rng rng(211);
  for (const auto& inst : small_instances()) {
    VertexWeights w(inst.g.num_vertices());
    for (VertexId v = 0; v < inst.g.num_vertices(); ++v)
      w.set(v, rng.next_int(1, 20));
    MwvcCongestConfig config;
    config.epsilon = 0.5;
    const MwvcCongestResult result =
        solve_g2_mwvc_congest(inst.g, w, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(inst.g, result.cover))
        << inst.name;
    const Weight opt =
        solvers::solve_mwvc(graph::square(inst.g), w).value;
    EXPECT_LE(static_cast<double>(result.cover.weight(w)),
              1.5 * static_cast<double>(opt) + 1e-9)
        << inst.name;
  }
}

TEST(MwvcCongest, ZeroWeightVerticesAreFree) {
  const Graph g = graph::star_graph(6);
  VertexWeights w(g.num_vertices(), 3);
  w.set(0, 0);  // free center
  const MwvcCongestResult result = solve_g2_mwvc_congest(g, w);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  // The square of a star is a clique on 7 vertices: OPT leaves one leaf out
  // (free center + 5 leaves = 15); the algorithm guarantees (1+ε)·OPT with
  // the default ε = 1/2.
  EXPECT_TRUE(result.cover.contains(0));  // the free vertex is always taken
  EXPECT_LE(static_cast<double>(result.cover.weight(w)), 1.5 * 15.0 + 1e-9);
}

TEST(MwvcCongest, UniformWeightsMatchUnweightedBehaviour) {
  Rng rng(223);
  const Graph g = graph::connected_gnp(20, 0.2, rng);
  VertexWeights w(g.num_vertices(), 1);
  MwvcCongestConfig config;
  config.epsilon = 0.5;
  const MwvcCongestResult weighted = solve_g2_mwvc_congest(g, w, config);
  const Weight opt = solvers::solve_mvc(graph::square(g)).value;
  EXPECT_LE(static_cast<double>(weighted.cover.size()),
            1.5 * static_cast<double>(opt) + 1e-9);
}

TEST(MwvcCongest, RejectsHugeWeights) {
  const Graph g = graph::path_graph(4);
  VertexWeights w(g.num_vertices(), 1);
  w.set(0, Weight{1} << 40);  // > n^4
  EXPECT_THROW(solve_g2_mwvc_congest(g, w), PreconditionViolation);
}

TEST(MwvcCongest, WeightCapSaturatesInsteadOfOverflowing) {
  // n^4 is the largest cap that fits int64 at n = 55,108; one node more
  // and the product used to overflow (undefined behavior).
  constexpr Weight kMax = std::numeric_limits<Weight>::max();
  EXPECT_EQ(saturating_pow(55'108, 4), Weight{9'222'710'978'872'688'896});
  EXPECT_EQ(saturating_pow(55'109, 4), kMax);
  EXPECT_EQ(saturating_pow(100'000, 4), kMax);
  EXPECT_EQ(saturating_pow(16, 4), Weight{65'536});
  EXPECT_EQ(saturating_pow(0, 4), 0);
  EXPECT_EQ(saturating_pow(7, 0), 1);
}

// Lemma 3's leader-side H = G^2[U].  Corrupted tokens can still decode
// to an F-edge {u, u} or a U-neighbor the leader never listed; both are
// left out of H instead of reaching the graph builder's contract checks.
TEST(RemainderSquare, SkipsSelfLoopsAndUnlistedNeighbors) {
  const std::vector<VertexId> u_list = {1, 3, 4};
  const std::set<std::pair<VertexId, VertexId>> f_edges = {
      {1, 1}, {1, 3}, {2, 4}};
  std::map<VertexId, std::vector<VertexId>> u_neighbors = {
      {0, {4, 3, 4, 0}}, {2, {2, 4}}};
  const Graph h = remainder_square(5, u_list, f_edges, u_neighbors);
  ASSERT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 2u);  // {1, 3} direct, {3, 4} through vertex 0
  EXPECT_TRUE(h.has_edge(0, 1));
  EXPECT_TRUE(h.has_edge(1, 2));
  EXPECT_EQ(u_neighbors.at(0), (std::vector<VertexId>{3, 4}));
}

// ------------------------------------------------------------- Lemma 6 ----

TEST(Trivial, Lemma6LowerBoundHolds) {
  Rng rng(227);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_gnp(14, 0.18, rng);
    for (int r = 2; r <= 4; ++r) {
      const Graph p = graph::power(g, r);
      const Weight opt = solvers::solve_mvc(p).value;
      EXPECT_GE(static_cast<double>(opt) + 1e-9,
                trivial_cover_opt_lower_bound(g.num_vertices(), r))
          << "r=" << r;
      // And hence the trivial cover achieves the guaranteed factor.
      EXPECT_LE(static_cast<double>(g.num_vertices()),
                trivial_cover_guarantee(r) * static_cast<double>(opt) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace pg::core
