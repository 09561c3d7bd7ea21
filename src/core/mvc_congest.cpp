#include "core/mvc_congest.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "congest/primitives.hpp"
#include "core/mvc_centralized.hpp"
#include "core/solver_util.hpp"
#include "core/trivial.hpp"
#include "graph/matching.hpp"
#include "graph/ops.hpp"
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

/// Packs an F-edge token: ((u*n + v) << 2) | (u_in_U << 1) | v_in_U.
std::uint64_t encode_f_edge(std::uint64_t n, VertexId u, VertexId v,
                            bool u_in_u, bool v_in_u) {
  const auto a = static_cast<std::uint64_t>(u);
  const auto b = static_cast<std::uint64_t>(v);
  return (((a * n) + b) << 2) | (static_cast<std::uint64_t>(u_in_u) << 1) |
         static_cast<std::uint64_t>(v_in_u);
}

struct FEdge {
  VertexId u, v;
  bool u_in_u, v_in_u;
};

FEdge decode_f_edge(std::uint64_t n, std::uint64_t token) {
  FEdge e{};
  e.v_in_u = token & 1;
  e.u_in_u = (token >> 1) & 1;
  const std::uint64_t pair = token >> 2;
  e.u = static_cast<VertexId>(pair / n);
  e.v = static_cast<VertexId>(pair % n);
  return e;
}

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

    // Round 3: spread the max candidate id one hop.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      NodeId best = is_candidate[me] != 0 ? node.id() : -1;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kCandidate) best = std::max(best, in.from);
      max1[me] = best;
      node.broadcast(Message{kMaxCand, {best}});
    });

    // Round 4: compute the 2-hop max; winners notify their neighborhoods.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      NodeId best = max1[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMaxCand)
          best = std::max(best, static_cast<NodeId>(in.msg.at(0)));
      if (is_candidate[me] != 0 && best == node.id()) {
        // Selected: N(me) ∩ R joins the cover (learned next round 1).
        in_c[me] = 0;
        node.broadcast(Message{kSelect, {}});
      }
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

/// Phase II's first two rounds: every node announces whether it is in U,
/// then holds one token per edge to a U-neighbor (it is responsible for
/// its edges into U, Lemma 2).
std::vector<std::vector<std::uint64_t>> f_edge_tokens(
    Network& net, const std::vector<char>& in_u) {
  const std::size_t n = net.n();
  std::vector<std::vector<std::uint64_t>> tokens(n);
  net.round([&](NodeView& node) {
    node.broadcast(
        Message{kUStatus, {in_u[static_cast<std::size_t>(node.id())]}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == kUStatus && in.msg.at(0) == 1)
        tokens[me].push_back(
            encode_f_edge(n, node.id(), in.from, in_u[me] != 0, true));
  });
  return tokens;
}

/// The leader's local step (free in either model): decode F, rebuild
/// H = G^2[U] (Lemma 3), solve it, and return R* as vertices of G.
std::vector<VertexId> solve_at_leader(std::size_t n,
                                      const std::vector<std::uint64_t>& raw,
                                      const MvcCongestConfig& config,
                                      MvcCongestResult& result) {
  std::set<std::pair<VertexId, VertexId>> f_edges;
  std::vector<bool> known_in_u(n, false);
  std::map<VertexId, std::vector<VertexId>> u_neighbors;  // w -> N(w) ∩ U
  for (std::uint64_t token : raw) {
    const FEdge e = decode_f_edge(n, token);
    const auto key = std::minmax(e.u, e.v);
    f_edges.insert({key.first, key.second});
    if (e.u_in_u) {
      known_in_u[static_cast<std::size_t>(e.u)] = true;
      u_neighbors[e.v].push_back(e.u);
    }
    if (e.v_in_u) {
      known_in_u[static_cast<std::size_t>(e.v)] = true;
      u_neighbors[e.u].push_back(e.v);
    }
  }
  result.f_edge_count = f_edges.size();

  std::vector<VertexId> u_list;
  for (std::size_t v = 0; v < n; ++v)
    if (known_in_u[v]) u_list.push_back(static_cast<VertexId>(v));
  result.remainder_size = u_list.size();
  const Graph h = remainder_square(n, u_list, f_edges, u_neighbors);

  VertexSet h_cover(h.num_vertices());
  switch (config.leader_solver) {
    case LeaderSolver::kExact: {
      const solvers::ExactResult exact =
          solvers::solve_mvc(h, config.exact_node_budget);
      result.leader_solution_optimal = exact.optimal;
      h_cover = exact.solution;
      break;
    }
    case LeaderSolver::kFiveThirds:
      h_cover = five_thirds_cover(h);
      result.leader_solution_optimal = false;
      break;
    case LeaderSolver::kTwoApprox:
      h_cover = graph::matching_vertex_cover(h);
      result.leader_solution_optimal = false;
      break;
  }
  std::vector<VertexId> r_star;
  for (VertexId hv : h_cover.to_vector())
    r_star.push_back(u_list[static_cast<std::size_t>(hv)]);
  return r_star;
}

/// Theorem 1 in CONGEST: Phase II elects a leader and pipelines F up a
/// BFS tree and R* back down it (Lemma 2).
MvcCongestResult run_in_congest(Network& net, const MvcCongestConfig& config,
                                Rng* rng) {
  PG_REQUIRE(graph::is_connected(net.topology()),
             "Theorem 1 assumes a connected network");
  return run_algorithm1(
      net, config, rng,
      [&](std::vector<std::vector<std::uint64_t>> tokens,
          const LeaderSolve& solve, VertexSet& cover) {
        const std::size_t n = net.n();
        const auto last = static_cast<VertexId>(n - 1);
        const NodeId leader = congest::elect_min_id_leader(net);
        const congest::BfsTree tree = congest::build_bfs_tree(net, leader);
        const std::vector<std::uint64_t> raw = congest::upcast_tokens(
            net, tree, std::move(tokens),
            encode_f_edge(n, last, last, true, true));
        std::vector<std::uint64_t> r_star;
        for (VertexId v : solve(raw))
          r_star.push_back(static_cast<std::uint64_t>(v));
        const auto received =
            congest::downcast_tokens(net, tree, r_star, n - 1);
        for (std::size_t v = 0; v < n; ++v)
          for (std::uint64_t token : received[v])
            if (token == v) cover.insert(static_cast<VertexId>(v));
      });
}

}  // namespace

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

  transport(f_edge_tokens(net, in_r),  // U = V \ S = R
            [&](const std::vector<std::uint64_t>& raw) {
              return solve_at_leader(n, raw, config, result);
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
