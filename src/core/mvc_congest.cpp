#include "core/mvc_congest.hpp"

#include <algorithm>
#include <cmath>

#include "congest/primitives.hpp"
#include "core/mvc_centralized.hpp"
#include "core/solver_util.hpp"
#include "core/trivial.hpp"
#include "graph/matching.hpp"
#include "solvers/exact_vc.hpp"

namespace pg::core {

using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::NodeId;
using congest::NodeView;
using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

namespace {

// Message tags.
constexpr std::uint8_t kStatus = 1;     // field 0: 1 iff sender is in R
constexpr std::uint8_t kCandidate = 2;  // field 0: r_c draw (0 when unused)
constexpr std::uint8_t kMaxCand = 3;    // field 0: max candidate id <=1 hop
constexpr std::uint8_t kSelect = 4;     // sender was selected as a center
constexpr std::uint8_t kUStatus = 5;    // field 0: 1 iff sender is in U
constexpr std::uint8_t kVote = 6;       // field 0: id of chosen candidate

/// One Phase I round that applies selections: R-vertices that heard a
/// kSelect join the cover, then `then(node)` runs in the same round.
/// Joins land in the per-node byte flags `joined` (never vector<bool>:
/// nodes write their own entry from inside possibly-parallel rounds) and
/// fold into the shared VertexSet after the round.
template <typename Then>
void absorb_selections(Network& net, std::vector<char>& in_r,
                       std::vector<char>& joined, MvcCongestResult& result,
                       Then&& then) {
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == kSelect && in_r[me] != 0) {
        in_r[me] = 0;  // joined S
        joined[me] = 1;
      }
    then(node);
  });
  for (std::size_t v = 0; v < joined.size(); ++v)
    if (joined[v] != 0) {
      result.cover.insert(static_cast<VertexId>(v));
      joined[v] = 0;
    }
}

/// The R-membership flag (0 or 1) announced after the select step.
void announce_r(NodeView& node, const std::vector<char>& in_r) {
  node.broadcast(Message{kStatus, {in_r[static_cast<std::size_t>(node.id())]}});
}

/// Deterministic Phase I of Algorithm 1 (max-id-in-2-hops symmetry
/// breaking).  Mutates in_r / result.cover; returns when no center with
/// more than l remaining neighbors is left anywhere.
void deterministic_phase1(Network& net, int l, std::vector<char>& in_r,
                          MvcCongestResult& result) {
  const std::size_t n = net.n();
  // Byte flags throughout (never vector<bool>): nodes write their own
  // entry from inside possibly-parallel rounds, and vector<bool> packs 64
  // nodes per word.
  std::vector<char> in_c(n, 1);
  std::vector<char> is_candidate(n, 0);
  std::vector<char> joined(n, 0);
  std::vector<NodeId> max1(n, -1);

  bool any_candidate = true;
  while (any_candidate) {
    // Round 1: apply selections from the previous iteration, then announce
    // R-membership.
    absorb_selections(net, in_r, joined, result,
                      [&](NodeView& node) { announce_r(node, in_r); });

    // Round 2: count R-neighbors; candidates announce themselves.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      int count = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.at(0) == 1) ++count;
      is_candidate[me] = in_c[me] != 0 && count > l ? 1 : 0;
      if (is_candidate[me] != 0) node.broadcast(Message{kCandidate, {0}});
    });
    // Only candidates sent, so a quiet round means no center is left
    // anywhere (a crashed node's stale flag cannot keep the loop alive).
    any_candidate = net.last_round_sent_messages();
    if (!any_candidate) break;

    // Rounds 3 and 4: the 2-hop max candidates are selected, and
    // N(c) ∩ R joins the cover (learned next round 1).
    select_two_hop_max(net, kCandidate, kMaxCand, is_candidate, max1,
                       [&](NodeView& node) {
                         in_c[static_cast<std::size_t>(node.id())] = 0;
                         node.broadcast(Message{kSelect, {}});
                       });
    ++result.iterations;
  }
}

/// Randomized voting Phase I (Section 3.3) in plain CONGEST: candidates
/// with d_R > 8/ε + 2 draw r_c ∈ [n^4]; R-vertices vote for the
/// highest-draw candidate neighbor; winners (>= d_R/8 votes) take their
/// neighborhoods.  O(log n) phases w.h.p.; a deterministic fallback caps
/// the loop.
void randomized_phase1(Network& net, double epsilon, Rng& rng,
                       std::vector<char>& in_r, MvcCongestResult& result) {
  const std::size_t n = net.n();
  const int threshold = static_cast<int>(std::ceil(8.0 / epsilon)) + 2;
  // Saturated so every draw fits a non-negative message field.
  const auto r_range = static_cast<std::uint64_t>(saturating_pow(n, 4));
  const int phase_cap =
      200 *
      (static_cast<int>(std::ceil(std::log2(std::max<double>(n, 2)))) + 1);

  // Byte flags, not vector<bool> — written per-node from inside the
  // (possibly parallel) rounds.
  std::vector<char> in_c(n, 1);
  std::vector<char> is_candidate(n, 0);
  std::vector<char> joined(n, 0);
  std::vector<int> r_deg(n, 0);
  std::vector<std::int64_t> draw(n, 0);

  bool any_candidate = true;
  int phases = 0;
  while (any_candidate && phases < phase_cap) {
    // Round 1: apply takes, announce R status.
    absorb_selections(net, in_r, joined, result,
                      [&](NodeView& node) { announce_r(node, in_r); });

    // Round 2: update d_R; below-threshold centers retire; candidates
    // draw and announce.  Whether a center survives this round depends on
    // the inbox, so the draw condition is not known before the round;
    // instead every still-active center consumes one pre-round draw (a
    // retiring center's draw simply goes unused).  The coin schedule is
    // therefore a deterministic function of (seed, topology) alone —
    // independent of the thread count and of the inter-node execution
    // order the parallel engine no longer fixes.
    for (std::size_t v = 0; v < n; ++v)
      if (in_c[v] != 0)
        draw[v] = static_cast<std::int64_t>(rng.next_below(r_range));
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      int count = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.at(0) == 1) ++count;
      r_deg[me] = count;
      if (in_c[me] != 0 && count <= threshold) in_c[me] = 0;
      is_candidate[me] = in_c[me];
      if (is_candidate[me] != 0)
        node.broadcast(Message{kCandidate, {draw[me]}});
    });
    any_candidate = net.last_round_sent_messages();  // only candidates sent
    if (!any_candidate) break;

    // Round 3: R-vertices vote for the highest-draw candidate neighbor and
    // inform all their candidate neighbors (distinct per-edge messages).
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (in_r[me] == 0) return;
      NodeId chosen = -1;
      std::int64_t chosen_draw = -1;
      std::vector<std::uint32_t> candidate_slots;
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kCandidate) continue;
        candidate_slots.push_back(in.reply_slot);
        if (in.msg.at(0) > chosen_draw ||
            (in.msg.at(0) == chosen_draw && in.from > chosen)) {
          chosen_draw = in.msg.at(0);
          chosen = in.from;
        }
      }
      for (std::uint32_t c : candidate_slots)
        node.send_slot(c, Message{kVote, {chosen}});
    });

    // Round 4: winners take their whole remaining neighborhood.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (is_candidate[me] == 0) return;
      int votes = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kVote && in.msg.at(0) == node.id()) ++votes;
      if (8 * votes >= r_deg[me] && votes > 0) {
        in_c[me] = 0;
        node.broadcast(Message{kSelect, {}});
      }
    });
    ++phases;
    ++result.iterations;
  }

  if (any_candidate) {
    // Safety net (never expected): finish deterministically.
    const int l = static_cast<int>(std::ceil(1.0 / epsilon));
    deterministic_phase1(net, l, in_r, result);
  } else {
    // Drain take messages possibly still in flight from the final phase.
    absorb_selections(net, in_r, joined, result, [](NodeView&) {});
  }
}

/// The leader's local step (free in either model): decode its
/// component's F, rebuild H = G^2[U] there (Lemma 3), solve it, and return
/// R* as vertices of G.  Leaders of several components each add their
/// share to the result's totals and draw on one exact-search `budget`.
std::vector<VertexId> solve_at_leader(std::size_t n,
                                      const std::vector<std::uint64_t>& raw,
                                      const MvcCongestConfig& config,
                                      std::vector<VertexId>& to_h,
                                      std::int64_t& budget,
                                      MvcCongestResult& result) {
  FEdges f;
  for (std::uint64_t token : raw) f.add(n, token);
  result.f_edge_count += f.edges.size();
  std::vector<VertexId> u_list;  // every vertex some token shows in U
  for (const auto& entry : f.u_neighbors)
    u_list.insert(u_list.end(), entry.second.begin(), entry.second.end());
  std::sort(u_list.begin(), u_list.end());
  u_list.erase(std::unique(u_list.begin(), u_list.end()), u_list.end());
  result.remainder_size += u_list.size();
  const LocalIds u(to_h, u_list);
  const Graph h = remainder_square(u, f.edges, f.u_neighbors);

  VertexSet h_cover(h.num_vertices());
  if (config.leader_solver == LeaderSolver::kExact) {
    const solvers::ExactResult exact = solvers::solve_mvc(h, budget);
    budget -= exact.nodes_explored;
    result.leader_solution_optimal &= exact.optimal;
    h_cover = exact.solution;
  } else {
    h_cover = config.leader_solver == LeaderSolver::kFiveThirds
                  ? five_thirds_cover(h)
                  : graph::matching_vertex_cover(h);
    result.leader_solution_optimal = false;
  }
  std::vector<VertexId> r_star;
  for (VertexId hv : h_cover.to_vector())
    r_star.push_back(u_list[static_cast<std::size_t>(hv)]);
  return r_star;
}

/// Theorem 1 in CONGEST: Phase II pipelines each component's F up its BFS
/// tree to its leader and R* back down (Lemma 2).
MvcCongestResult run_in_congest(Network& net, const MvcCongestConfig& config,
                                Rng* rng) {
  return run_algorithm1(
      net, config, rng,
      [&](std::vector<std::vector<std::uint64_t>> tokens,
          const LeaderSolve& solve, VertexSet& cover) {
        // The largest token packs (n-1, n-1, 1, 1): 4n^2 - 1.
        const std::uint64_t n = net.n();
        for (NodeId v : congest::gather_solve_scatter(
                 net, std::move(tokens), 4 * n * n - 1, solve))
          cover.insert(v);
      });
}

}  // namespace

std::vector<std::vector<std::uint64_t>> f_edge_tokens(
    Network& net, std::uint8_t kind, const std::vector<char>& in_u) {
  const std::size_t n = net.n();
  std::vector<std::vector<std::uint64_t>> tokens(n);
  net.round([&](NodeView& node) {
    node.broadcast(Message{kind, {in_u[static_cast<std::size_t>(node.id())]}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == kind && in.msg.at(0) == 1)
        tokens[me].push_back(
            encode_f_edge(n, node.id(), in.from, in_u[me] != 0, true));
  });
  return tokens;
}

MvcCongestResult run_algorithm1(Network& net, const MvcCongestConfig& config,
                                Rng* rng, const Phase2Transport& transport) {
  net.reset();
  GraphView g = net.topology();
  PG_REQUIRE(config.epsilon > 0, "epsilon must be positive");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  MvcCongestResult result;
  result.cover = VertexSet(g.num_vertices());

  // ε > 1: the all-vertices cover is already a 2 <= (1+ε)-approximation
  // (Lemma 6) and needs no communication.
  if (config.epsilon >= 1.0) {
    result.cover = trivial_power_cover(g);
    result.epsilon_inverse = 1;
    return result;
  }
  result.epsilon_inverse =
      static_cast<int>(std::ceil(1.0 / config.epsilon));

  const auto last = static_cast<std::int64_t>(n) - 1;
  net.declare(kStatus, {{0, 1}});
  net.declare(kCandidate, {{0, saturating_pow(n, 4) - 1}});
  net.declare(kMaxCand, {{-1, last}});
  net.declare(kSelect, {});
  net.declare(kUStatus, {{0, 1}});
  net.declare(kVote, {{0, last}});
  std::vector<char> in_r(n, 1);
  if (rng == nullptr)
    deterministic_phase1(net, result.epsilon_inverse, in_r, result);
  else
    randomized_phase1(net, config.epsilon, *rng, in_r, result);
  result.phase1_rounds = net.stats().rounds;
  result.phase1_cover_size = result.cover.size();

  std::vector<VertexId> to_h(n, -1);  // the leaders' LocalIds table
  std::int64_t budget = config.exact_node_budget;
  transport(f_edge_tokens(net, kUStatus, in_r),  // U = V \ S = R
            [&](NodeId, const std::vector<std::uint64_t>& raw) {
              return solve_at_leader(n, raw, config, to_h, budget, result);
            },
            result.cover);
  result.phase2_rounds = net.stats().rounds - result.phase1_rounds;
  result.stats = net.stats();
  return result;
}

MvcCongestResult solve_g2_mvc_congest(Network& net,
                                      const MvcCongestConfig& config) {
  return run_in_congest(net, config, nullptr);
}

MvcCongestResult solve_g2_mvc_congest(GraphView g,
                                      const MvcCongestConfig& config) {
  Network net(g);
  return solve_g2_mvc_congest(net, config);
}

MvcCongestResult solve_g2_mvc_congest_randomized(
    Network& net, Rng& rng, const MvcCongestConfig& config) {
  return run_in_congest(net, config, &rng);
}

MvcCongestResult solve_g2_mvc_congest_randomized(
    GraphView g, Rng& rng, const MvcCongestConfig& config) {
  Network net(g);
  return solve_g2_mvc_congest_randomized(net, rng, config);
}

}  // namespace pg::core
