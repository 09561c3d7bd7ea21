// Cross-module integration tests: algorithms chained through the
// simulator, primitives composed, message accounting invariants, and
// end-to-end consistency between the distributed algorithms and their
// centralized counterparts on the same instances.
#include <gtest/gtest.h>

#include "congest/primitives.hpp"
#include "core/mds_congest.hpp"
#include "core/mvc_centralized.hpp"
#include "core/mvc_clique.hpp"
#include "core/mvc_congest.hpp"
#include "core/naive.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

TEST(Integration, MessageAccountingInvariants) {
  // total bits <= messages * bandwidth; both only ever grow.
  Rng rng(1101);
  const Graph g = graph::connected_gnp(30, 0.15, rng);
  core::MvcCongestConfig config;
  config.epsilon = 0.5;
  const auto result = core::solve_g2_mvc_congest(g, config);
  EXPECT_GT(result.stats.messages, 0);
  EXPECT_LE(result.stats.total_bits,
            result.stats.messages *
                static_cast<std::int64_t>(congest::bandwidth_bits(30)));
  EXPECT_GE(result.stats.total_bits, result.stats.messages * 8);
  EXPECT_EQ(result.stats.rounds,
            result.phase1_rounds + result.phase2_rounds);
}

TEST(Integration, AllAlgorithmsAgreeOnEasyInstances) {
  // On a star, the square is a clique: every algorithm must return n-1
  // vertices (MVC) — the unique optimum size.
  const Graph g = graph::star_graph(14);
  core::MvcCongestConfig congest_config;
  congest_config.epsilon = 0.25;
  const auto congest = core::solve_g2_mvc_congest(g, congest_config);
  const auto naive =
      core::solve_naively_in_congest(g, core::NaiveProblem::kMvcOnSquare);
  Rng rng(5);
  core::MvcCliqueConfig clique_config;
  clique_config.epsilon = 0.25;
  const auto clique = core::solve_g2_mvc_clique_randomized(g, rng,
                                                           clique_config);
  const auto central = core::five_thirds_mvc_of_square(g);
  EXPECT_EQ(congest.cover.size(), 14u);
  EXPECT_EQ(naive.solution.size(), 14u);
  EXPECT_EQ(clique.cover.size(), 14u);
  // Algorithm 2 eats whole triangles, so it may overshoot K_15 slightly —
  // but never beyond its 5/3 guarantee.
  EXPECT_GE(central.size(), 14u);
  EXPECT_LE(3 * central.size(), 5u * 14u);
}

TEST(Integration, DistributedNeverBeatsExactButStaysClose) {
  Rng rng(1109);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = graph::connected_gnp(24, 0.18, rng);
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    core::MvcCongestConfig config;
    config.epsilon = 0.25;
    const auto result = core::solve_g2_mvc_congest(g, config);
    EXPECT_GE(static_cast<Weight>(result.cover.size()), opt);
    EXPECT_LE(static_cast<double>(result.cover.size()),
              1.25 * static_cast<double>(opt) + 1e-9);
  }
}

TEST(Integration, PrimitivesComposeAcrossPhases) {
  // Elect, build a tree, upcast, downcast — all on one network; round
  // counter strictly increases and each phase's output feeds the next.
  Rng rng(1117);
  const Graph g = graph::connected_gnp(26, 0.12, rng);
  congest::Network net(g);
  const auto leader = congest::elect_min_id_leader(net);
  const auto after_election = net.stats().rounds;
  EXPECT_GT(after_election, 0);
  const auto tree = congest::build_bfs_tree(net, leader);
  const auto after_tree = net.stats().rounds;
  EXPECT_GT(after_tree, after_election);
  std::vector<std::vector<std::uint64_t>> tokens(net.n());
  for (std::size_t v = 0; v < net.n(); ++v)
    tokens[v].push_back(static_cast<std::uint64_t>(v) + 100);
  const auto collected =
      congest::upcast_tokens(net, tree, tokens, net.n() + 99);
  EXPECT_EQ(collected.size(), net.n());
  const auto echoed =
      congest::downcast_tokens(net, tree, collected, net.n() + 99);
  for (std::size_t v = 0; v < net.n(); ++v)
    EXPECT_EQ(echoed[v].size(), net.n());
}

TEST(Integration, BfsTreeHeightMatchesEccentricity) {
  Rng rng(1123);
  const Graph g = graph::connected_gnp(28, 0.12, rng);
  congest::Network net(g);
  const auto tree = congest::build_bfs_tree(net, 0);
  const auto dist = graph::bfs_distances(g, 0);
  EXPECT_EQ(tree.height, *std::max_element(dist.begin(), dist.end()));
}

TEST(Integration, MdsAndMvcOnTheSameNetworkShareNoState) {
  // Running one algorithm must not perturb another run on a fresh network
  // built from the same graph (determinism of the whole stack).
  Rng rng(1129);
  const Graph g = graph::connected_gnp(22, 0.15, rng);
  core::MvcCongestConfig config;
  config.epsilon = 0.5;
  const auto first = core::solve_g2_mvc_congest(g, config);
  Rng mds_rng(9);
  const auto mds = core::solve_g2_mds_congest(g, mds_rng);
  const auto second = core::solve_g2_mvc_congest(g, config);
  EXPECT_EQ(first.cover.to_vector(), second.cover.to_vector());
  EXPECT_EQ(first.stats.rounds, second.stats.rounds);
  EXPECT_TRUE(graph::is_dominating_set_of_square(g, mds.dominating_set));
}

TEST(Integration, WeightedAndUnweightedAgreeOnUniformWeights) {
  Rng rng(1151);
  const Graph g = graph::connected_gnp(20, 0.2, rng);
  const Graph sq = graph::square(g);
  graph::VertexWeights uniform(g.num_vertices(), 1);
  const auto unweighted = solvers::solve_mvc(sq);
  const auto weighted = solvers::solve_mwvc(sq, uniform);
  EXPECT_EQ(unweighted.value, weighted.value);
}

}  // namespace
}  // namespace pg
