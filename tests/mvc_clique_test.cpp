// Tests for Section 3.3: Corollary 10 (deterministic CONGESTED CLIQUE) and
// Theorem 11 (randomized voting) — validity, approximation, round scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "clique/clique.hpp"
#include "core/mvc_clique.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

TEST(CliqueNetwork, ModelEnforcement) {
  clique::CliqueNetwork net(4);
  // Any node can message any other, once per round.
  net.round([&](clique::NodeView& node) {
    if (node.id() == 0) node.send(3, clique::Message{1, {5}});
  });
  int heard = 0;
  net.round([&](clique::NodeView& node) {
    for (const auto& in : node.inbox()) {
      EXPECT_EQ(node.id(), 3);
      EXPECT_EQ(in.from, 0);
      ++heard;
    }
  });
  EXPECT_EQ(heard, 1);
  EXPECT_THROW(net.round([&](clique::NodeView& node) {
    if (node.id() == 0) {
      node.send(1, clique::Message{1, {}});
      node.send(1, clique::Message{2, {}});
    }
  }),
               PreconditionViolation);
  EXPECT_THROW(net.round([&](clique::NodeView& node) {
    if (node.id() == 0) node.send(0, clique::Message{1, {}});
  }),
               PreconditionViolation);
}

TEST(MvcCliqueDeterministic, ValidAndWithinFactor) {
  Rng rng(301);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_gnp(20, 0.2, rng);
    MvcCongestConfig config;
    config.epsilon = 0.5;
    const MvcCongestResult result =
        solve_g2_mvc_clique_deterministic(g, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    EXPECT_LE(static_cast<double>(result.cover.size()),
              1.5 * static_cast<double>(opt) + 1e-9);
  }
}

TEST(MvcCliqueRandomized, ValidAndWithinFactor) {
  Rng rng(307);
  Rng alg_rng(1234);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_gnp(24, 0.25, rng);
    MvcCongestConfig config;
    config.epsilon = 0.5;
    const MvcCongestResult result =
        solve_g2_mvc_clique_randomized(g, alg_rng, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    // Lemma 5's charging plus the voting threshold keep the factor at
    // (1+ε); we assert it on these seeded instances.
    EXPECT_LE(static_cast<double>(result.cover.size()),
              1.5 * static_cast<double>(opt) + 1e-9);
  }
}

TEST(MvcCliqueRandomized, PhasesAreLogarithmic) {
  // Theorem 11: O(log n) phases w.h.p.; check a generous multiple.
  Rng rng(311);
  Rng alg_rng(99);
  for (VertexId n : {32, 64, 128}) {
    const Graph g = graph::connected_gnp(n, 6.0 / n, rng);
    MvcCongestConfig config;
    config.epsilon = 0.25;
    const MvcCongestResult result =
        solve_g2_mvc_clique_randomized(g, alg_rng, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    EXPECT_LE(result.iterations,
              10 * static_cast<int>(std::log2(static_cast<double>(n))) + 10)
        << "n=" << n;
  }
}

TEST(MvcCliqueRandomized, RoundsBeatDeterministicOnDenseInputs) {
  // Corollary 10 pays Θ(εn) rounds in Phase I; Theorem 11 pays O(log n).
  Rng rng(313);
  Rng alg_rng(7);
  const Graph g = graph::connected_gnp(96, 0.3, rng);
  MvcCongestConfig config;
  config.epsilon = 0.25;
  const auto det = solve_g2_mvc_clique_deterministic(g, config);
  const auto rand = solve_g2_mvc_clique_randomized(g, alg_rng, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, det.cover));
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, rand.cover));
  // Both valid; the randomized one should use no more Phase I phases.
  EXPECT_LE(rand.iterations, std::max(det.iterations, 1));
}

TEST(MvcClique, TrivialAndTinyInputs) {
  MvcCongestConfig config;
  config.epsilon = 2.0;
  EXPECT_EQ(solve_g2_mvc_clique_deterministic(graph::path_graph(5), config)
                .cover.size(),
            5u);
  const auto single =
      solve_g2_mvc_clique_deterministic(graph::path_graph(1), {});
  EXPECT_EQ(single.cover.size(), 0u);
  Rng rng(317);
  const auto pair = solve_g2_mvc_clique_randomized(graph::path_graph(2), rng);
  EXPECT_TRUE(
      graph::is_vertex_cover_of_square(graph::path_graph(2), pair.cover));
}

// Corollary 10's measured numbers on fixed fixtures, one of them a
// two-component graph (the clique links every node, so G need not be
// connected).  Phase I, the U-status round pair, the token stream to the
// leader and the answer round each move at least one of them.
TEST(MvcCliqueDeterministic, PinnedNumbersOnFixedFixtures) {
  struct Pinned {
    const char* name;
    Graph g;
    double epsilon;
    std::vector<VertexId> uncovered;
    std::int64_t rounds, messages, total_bits;
    int iterations;
    std::size_t phase1_cover_size, f_edge_count;
  };
  Rng gnp_rng(331);
  Rng ba_rng(17);
  graph::GraphBuilder two(12);  // a star K_{1,6} beside a path on 5 nodes
  for (VertexId leaf = 1; leaf <= 6; ++leaf) two.add_edge(0, leaf);
  for (VertexId v = 7; v < 11; ++v) two.add_edge(v, v + 1);
  const std::vector<Pinned> fixtures = {
      {"gnp40", graph::connected_gnp(40, 0.15, gnp_rng), 0.5, {4, 12}, 41,
       5285, 56511, 8, 37, 13},
      {"grid5x6", graph::grid_graph(5, 6), 0.25, {0, 5, 9, 13, 23, 24, 27},
       11, 321, 4067, 0, 0, 49},
      {"ba60", graph::barabasi_albert(60, 3, ba_rng), 0.25, {29, 36}, 41, 7512,
       78393, 8, 56, 13},
      {"two-components", std::move(two).build(), 0.5, {0, 7, 10}, 13, 117,
       1205, 1, 6, 10},
  };
  for (const Pinned& p : fixtures) {
    MvcCongestConfig config;
    config.epsilon = p.epsilon;
    const auto result = solve_g2_mvc_clique_deterministic(p.g, config);
    std::vector<VertexId> uncovered;
    for (VertexId v = 0; v < p.g.num_vertices(); ++v)
      if (!result.cover.contains(v)) uncovered.push_back(v);
    EXPECT_EQ(uncovered, p.uncovered) << p.name;
    EXPECT_EQ(result.stats.rounds, p.rounds) << p.name;
    EXPECT_EQ(result.stats.messages, p.messages) << p.name;
    EXPECT_EQ(result.stats.total_bits, p.total_bits) << p.name;
    EXPECT_EQ(result.iterations, p.iterations) << p.name;
    EXPECT_EQ(result.phase1_cover_size, p.phase1_cover_size) << p.name;
    EXPECT_EQ(result.f_edge_count, p.f_edge_count) << p.name;
    EXPECT_TRUE(result.leader_solution_optimal) << p.name;
  }
}

TEST(MvcClique, FEdgeCountObeysLemma9Bound) {
  Rng rng(331);
  const Graph g = graph::connected_gnp(40, 0.15, rng);
  MvcCongestConfig config;
  config.epsilon = 0.5;
  const auto result = solve_g2_mvc_clique_deterministic(g, config);
  // After Phase I every vertex has at most l = 2 neighbors in U.
  EXPECT_LE(result.f_edge_count, static_cast<std::size_t>(g.num_vertices()) * 2);
}

}  // namespace
}  // namespace pg::core
