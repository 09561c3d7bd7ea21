// Property-based parameterized sweeps (TEST_P) over topology, parameter,
// and seed grids: algorithm guarantees, solver cross-checks, graph-power
// algebra, and model-enforcement failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/estimator.hpp"
#include "core/mds_congest.hpp"
#include "core/mvc_clique.hpp"
#include "core/mvc_congest.hpp"
#include "core/mwvc_congest.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/power.hpp"
#include "lowerbound/vc_families.hpp"
#include "solvers/brute.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::VertexWeights;
using graph::Weight;

Graph make_topology(const std::string& kind, VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  if (kind == "path") return graph::path_graph(n);
  if (kind == "cycle") return graph::cycle_graph(n);
  if (kind == "tree") return graph::random_tree(n, rng);
  if (kind == "gnp") return graph::connected_gnp(n, 5.0 / n, rng);
  if (kind == "disk") return graph::connected_unit_disk(n, 0.25, rng);
  PG_CHECK(false, "unknown topology kind");
}

// ---------------------------------------------------------------------------
// Theorem 1 sweep: topology x epsilon x seed.
class MvcCongestSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double, int>> {};

TEST_P(MvcCongestSweep, GuaranteesHold) {
  const auto& [kind, eps, seed] = GetParam();
  const Graph g = make_topology(kind, 20, static_cast<std::uint64_t>(seed));
  core::MvcCongestConfig config;
  config.epsilon = eps;
  const auto result = core::solve_g2_mvc_congest(g, config);
  ASSERT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  // Lemma 2: at most l F-edges per vertex.
  EXPECT_LE(result.f_edge_count,
            static_cast<std::size_t>(g.num_vertices()) *
                static_cast<std::size_t>(std::max(result.epsilon_inverse, 1)));
  const Weight opt = solvers::solve_mvc(graph::square(g)).value;
  const double guarantee =
      eps >= 1.0 ? 2.0 : 1.0 + 1.0 / std::max(result.epsilon_inverse, 1);
  EXPECT_LE(static_cast<double>(result.cover.size()),
            guarantee * static_cast<double>(opt) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MvcCongestSweep,
    ::testing::Combine(::testing::Values("path", "cycle", "tree", "gnp",
                                         "disk"),
                       ::testing::Values(1.0, 0.5, 0.34, 0.25),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_eps" +
             std::to_string(
                 static_cast<int>(std::round(std::get<1>(info.param) * 100))) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Weighted variant sweep.
class MwvcCongestSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MwvcCongestSweep, GuaranteesHold) {
  const auto& [kind, seed] = GetParam();
  const Graph g = make_topology(kind, 18, static_cast<std::uint64_t>(seed));
  Rng wrng(static_cast<std::uint64_t>(seed) * 97 + 5);
  VertexWeights w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    w.set(v, wrng.next_int(0, 12));  // includes zero weights
  core::MwvcCongestConfig config;
  config.epsilon = 0.5;
  const auto result = core::solve_g2_mwvc_congest(g, w, config);
  ASSERT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  const Weight opt = solvers::solve_mwvc(graph::square(g), w).value;
  EXPECT_LE(static_cast<double>(result.cover.weight(w)),
            1.5 * static_cast<double>(opt) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MwvcCongestSweep,
    ::testing::Combine(::testing::Values("path", "tree", "gnp"),
                       ::testing::Values(11, 12, 13, 14)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Solver cross-check sweep: branch-and-bound == brute force.
class SolverCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(SolverCrossCheck, AllFourSolversMatchBruteForce) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1237 + 11);
  const Graph g = graph::gnp(11, 0.15 + 0.02 * (seed % 5), rng);
  VertexWeights w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    w.set(v, rng.next_int(0, 7));
  EXPECT_EQ(solvers::solve_mvc(g).value, solvers::brute_force_mvc_size(g));
  EXPECT_EQ(solvers::solve_mwvc(g, w).value,
            solvers::brute_force_mwvc_weight(g, w));
  EXPECT_EQ(solvers::solve_mds(g).value, solvers::brute_force_mds_size(g));
  EXPECT_EQ(solvers::solve_mwds(g, w).value,
            solvers::brute_force_mwds_weight(g, w));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCrossCheck, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Graph power algebra.
class PowerAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(PowerAlgebra, CompositionAndMonotonicity) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  const Graph g = graph::connected_gnp(16, 0.15, rng);
  // power(g, 1) == g.
  EXPECT_EQ(graph::power(g, 1).edges(), g.edges());
  // square(square(g)) == power(g, 4).
  EXPECT_EQ(graph::square(graph::square(g)).edges(),
            graph::power(g, 4).edges());
  // Edge sets grow monotonically with r and saturate at the diameter.
  std::size_t previous = g.num_edges();
  for (int r = 2; r <= 5; ++r) {
    const std::size_t count = graph::power(g, r).num_edges();
    EXPECT_GE(count, previous);
    previous = count;
  }
  const int d = graph::diameter(g);
  EXPECT_EQ(graph::power(g, d).num_edges(),
            static_cast<std::size_t>(g.num_vertices()) *
                (static_cast<std::size_t>(g.num_vertices()) - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerAlgebra, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Lower-bound family invariants on random inputs.
class FamilyInvariants : public ::testing::TestWithParam<int> {};

TEST_P(FamilyInvariants, ThresholdIsAlwaysALowerBound) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1729 + 3);
  const lowerbound::DisjInstance disj =
      lowerbound::DisjInstance::random(2, seed % 2 == 0, rng);
  const auto base = lowerbound::build_ckp17_mvc(disj);
  EXPECT_GE(solvers::solve_mvc(base.lb.graph).value, base.lb.threshold);
  const auto weighted = lowerbound::build_g2_mwvc_family(disj);
  EXPECT_GE(solvers::solve_mwvc(graph::square(weighted.lb.graph),
                                weighted.lb.weights)
                .value,
            weighted.lb.threshold);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FamilyInvariants, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Randomized algorithms stay correct across seeds (CONGESTED CLIQUE + MDS).
class RandomizedSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedSweep, CliqueAndMdsStayValid) {
  const int seed = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 50);
  const Graph g = graph::connected_gnp(24, 0.2, grng);
  Rng alg1(static_cast<std::uint64_t>(seed) * 7 + 1);
  const auto clique = core::solve_g2_mvc_clique_randomized(g, alg1);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, clique.cover));
  Rng alg2(static_cast<std::uint64_t>(seed) * 13 + 2);
  const auto mds = core::solve_g2_mds_congest(g, alg2);
  EXPECT_TRUE(graph::is_dominating_set_of_square(g, mds.dominating_set));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Failure injection: every documented precondition actually throws.
TEST(FailureInjection, PreconditionsThrow) {
  const Graph path = graph::path_graph(4);
  // Bad epsilon.
  core::MvcCongestConfig bad;
  bad.epsilon = -0.5;
  EXPECT_THROW(core::solve_g2_mvc_congest(path, bad), PreconditionViolation);
  // Mismatched weights.
  VertexWeights short_w(3);
  EXPECT_THROW(core::solve_g2_mwvc_congest(path, short_w),
               PreconditionViolation);
  // Negative weights rejected by the solvers.
  VertexWeights negative(path.num_vertices(), 1);
  negative.set(0, -3);
  EXPECT_THROW(solvers::solve_mwvc(path, negative), PreconditionViolation);
  // Estimator membership size mismatch.
  congest::Network net(path);
  Rng rng(1);
  std::vector<bool> wrong_size(3, true);
  EXPECT_THROW(core::estimate_two_hop_counts(net, wrong_size, rng),
               PreconditionViolation);
}

}  // namespace
}  // namespace pg
