#include "core/mwvc_congest.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "congest/primitives.hpp"
#include "core/solver_util.hpp"
#include "graph/matching.hpp"
#include "graph/ops.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"

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
using graph::VertexWeights;
using graph::Weight;

namespace {

constexpr std::uint8_t kWeight = 11;   // field 0: sender's weight (once)
constexpr std::uint8_t kStatus = 12;   // field 0: 1 iff in R
constexpr std::uint8_t kCandidate = 13;
constexpr std::uint8_t kMaxCand = 14;  // field 0: 1-hop max candidate id
constexpr std::uint8_t kSelect = 15;   // fields: class index i, w_min(c)
constexpr std::uint8_t kUStatus = 16;  // field 0: 1 iff in U

}  // namespace

MwvcCongestResult solve_g2_mwvc_congest(GraphView g, const VertexWeights& w,
                                        const MwvcCongestConfig& config) {
  Network net(g);
  return solve_g2_mwvc_congest(net, w, config);
}

MwvcCongestResult solve_g2_mwvc_congest(Network& net, const VertexWeights& w,
                                        const MwvcCongestConfig& config) {
  net.reset();
  GraphView g = net.topology();
  PG_REQUIRE(config.epsilon > 0, "epsilon must be positive");
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  PG_REQUIRE(graph::is_connected(g), "Theorem 7 assumes a connected network");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const Weight max_weight = std::max<Weight>(saturating_pow(n, 4), 16);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    PG_REQUIRE(w[v] >= 0 && w[v] <= max_weight,
               "weights must fit in O(log n) bits (<= n^4)");
  net.declare(kWeight, {{0, max_weight}});
  net.declare(kStatus, {{0, 1}});
  net.declare(kCandidate, {});
  net.declare(kMaxCand, {{-1, static_cast<std::int64_t>(n) - 1}});
  net.declare(kSelect, {{0, 62}, {1, max_weight}});  // class i, w_min(c)
  net.declare(kUStatus, {{0, 1}});

  const int l = static_cast<int>(std::ceil(1.0 / config.epsilon));

  MwvcCongestResult result;
  result.cover = VertexSet(g.num_vertices());
  result.epsilon_inverse = l;

  // Byte flags, not vector<bool>: nodes write their own entry from inside
  // the (possibly parallel) rounds, and vector<bool> packs 64 nodes per
  // word.  Cover joins land in a per-node flag and fold into the shared
  // VertexSet between rounds.
  std::vector<char> in_r(n, 1);
  std::vector<char> joined(n, 0);
  auto fold_joins = [&] {
    for (std::size_t v = 0; v < n; ++v)
      if (joined[v] != 0) {
        result.cover.insert(static_cast<VertexId>(v));
        result.phase1_cover_weight += w[static_cast<VertexId>(v)];
        joined[v] = 0;
      }
  };
  // Zero-weight vertices enter the cover for free.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (w[v] == 0) {
      in_r[static_cast<std::size_t>(v)] = 0;
      result.cover.insert(v);
    }

  // Per-neighbor knowledge is slot-indexed: node v's entry for its i-th
  // neighbor lives at offsets[v] + i, and 0 stands for "never heard".
  const auto offsets = g.adjacency_offsets();
  const std::size_t slots = g.adjacency_array().size();

  // Round 0: announce weights; every node caches its neighbors' weights.
  std::vector<Weight> nbr_weight(slots, 0);
  std::vector<Weight> w_min(n, 0);  // min weight over the *original* N(v)
  net.round([&](NodeView& node) {
    node.broadcast(Message{kWeight, {w[node.id()]}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    Weight lowest = 0;
    for (const Incoming& in : node.inbox()) {
      if (in.msg.kind != kWeight) continue;
      const Weight wt = in.msg.at(0);
      nbr_weight[offsets[me] + in.reply_slot] = wt;
      if (wt > 0 && (lowest == 0 || wt < lowest)) lowest = wt;
    }
    w_min[me] = lowest;  // 0 means "no positive-weight neighbor"
  });

  std::vector<char> is_candidate(n, 0);
  std::vector<int> chosen_class(n, -1);
  std::vector<NodeId> max1(n, -1);
  std::vector<char> nbr_in_r(slots, 0);

  bool any_candidate = true;
  while (any_candidate) {
    // Round 1: apply selections, announce R status.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kSelect || in_r[me] == 0) continue;
        const int cls = static_cast<int>(in.msg.at(0));
        const Weight wmin = in.msg.at(1);
        // Each field is in range, but a corrupted pair's class bounds can
        // still overflow; legal announcements keep w_min·2^{cls+1} within
        // the weight cap enforced on entry.
        if (wmin > (std::numeric_limits<Weight>::max() >> (cls + 1))) continue;
        const Weight low = wmin << cls;
        if (w[node.id()] >= low && w[node.id()] < low * 2) {
          in_r[me] = 0;
          joined[me] = 1;
        }
      }
      node.broadcast(Message{kStatus, {in_r[me] != 0 ? 1 : 0}});
    });
    fold_joins();

    // Round 2: evaluate the per-class center condition.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      const std::size_t base = offsets[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus)
          nbr_in_r[base + in.reply_slot] = in.msg.at(0) == 1 ? 1 : 0;

      is_candidate[me] = 0;
      chosen_class[me] = -1;
      if (w_min[me] > 0) {
        // Accumulate W_i and w*_i over active neighbors.  Classes of
        // positive int64 weights over w_min >= 1 are 0..62, so a fixed
        // table indexed by class replaces a per-node ordered map; entries
        // [0, top] are live.  Sums are 128-bit: weights reach the int64
        // cap at large n, and a few of them overflow int64.
        std::array<std::pair<__int128, Weight>, 63> stats;  // i -> (sum, max)
        int top = -1;
        for (std::size_t e = base; e < base + node.degree(); ++e) {
          if (nbr_in_r[e] == 0) continue;
          const Weight wt = nbr_weight[e];
          if (wt <= 0) continue;
          const int i = weight_class(w_min[me], wt);
          while (top < i) stats[static_cast<std::size_t>(++top)] = {0, 0};
          auto& [sum, mx] = stats[static_cast<std::size_t>(i)];
          sum += wt;
          mx = std::max(mx, wt);
        }
        // The first (ascending) class some active neighbor falls in that
        // passes the center test (l+1)·w* <= W, phrased divide-side as in
        // gr_mwvc.cpp.
        for (int i = 0; i <= top; ++i) {
          const auto& [sum, mx] = stats[static_cast<std::size_t>(i)];
          if (mx > 0 && mx <= sum / (l + 1)) {
            is_candidate[me] = 1;
            chosen_class[me] = i;
            break;
          }
        }
      }
      if (is_candidate[me] != 0) node.broadcast(Message{kCandidate, {}});
    });
    // Derived after the barrier instead of set from inside the step: many
    // nodes writing one shared bool is a data race even when every write
    // stores the same value.
    any_candidate = std::any_of(is_candidate.begin(), is_candidate.end(),
                                [](char c) { return c != 0; });
    if (!any_candidate) break;

    // Round 3: 1-hop max candidate id.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      NodeId best = is_candidate[me] != 0 ? node.id() : -1;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kCandidate) best = std::max(best, in.from);
      max1[me] = best;
      node.broadcast(Message{kMaxCand, {best}});
    });

    // Round 4: 2-hop max; winners announce (class, w_min).
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      NodeId best = max1[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMaxCand)
          best = std::max(best, static_cast<NodeId>(in.msg.at(0)));
      if (is_candidate[me] != 0 && best == node.id())
        node.broadcast(Message{
            kSelect, {chosen_class[me], w_min[me]}});
    });
    ++result.iterations;
  }
  result.phase1_rounds = net.stats().rounds;

  // ---------------------------------------------------------- Phase II ---
  std::vector<char> in_u(in_r);
  std::vector<std::vector<std::uint64_t>> tokens(n);
  // Weight tokens pack (v, w(v)) as v·base + w.  The base must cover the
  // *actual* maximum weight only — the old choice of n^4+1 (the cap, not
  // the maximum) silently overflowed v·base for n >= ~6600 and corrupted
  // the leader's reconstruction of H; deriving the base from the weights
  // in hand keeps tokens minimal, and the explicit range checks below
  // turn any remaining impossibility into a clear error.
  Weight w_max = 1;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    w_max = std::max(w_max, w[v]);
  const std::uint64_t weight_base = static_cast<std::uint64_t>(w_max) + 1;
  PG_REQUIRE(weight_base <= (std::uint64_t{1} << 62) / std::max<std::size_t>(n, 1),
             "weights too large to token-encode at this n");
  PG_REQUIRE(n <= (std::size_t{1} << 30),
             "n too large for the leader's edge-token encoding");
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    node.broadcast(Message{kUStatus, {in_u[me] != 0 ? 1 : 0}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox()) {
      if (in.msg.kind != kUStatus || in.msg.at(0) != 1) continue;
      // F-edge token: 1 | u | v | u_in_u | v_in_u   (edge into U).
      const auto a = static_cast<std::uint64_t>(node.id());
      const auto b = static_cast<std::uint64_t>(in.from);
      const std::uint64_t packed =
          ((((a * n + b) << 1) | (in_u[me] != 0 ? 1 : 0)) << 1) | 1u;
      tokens[me].push_back((packed << 1) | 1u);  // low bit 1: edge token
    }
    if (in_u[me] != 0) {
      // Weight token: (v * base + w) with low bit 0.
      const std::uint64_t packed =
          static_cast<std::uint64_t>(node.id()) * weight_base +
          static_cast<std::uint64_t>(w[node.id()]);
      tokens[me].push_back(packed << 1);
    }
  });

  const NodeId leader = congest::elect_min_id_leader(net);
  const congest::BfsTree tree = congest::build_bfs_tree(net, leader);
  // Largest edge token: packed (n-1, n-1, 1, 1) over a low 1; largest
  // weight token: ((n-1)·base + w_max) over a low 0.
  const auto raw = congest::upcast_tokens(
      net, tree, std::move(tokens),
      std::max(8 * n * n - 1, 2 * (n * weight_base - 1)));

  // Leader-local reconstruction of H = G^2[U] with weights.
  std::set<std::pair<VertexId, VertexId>> f_edges;
  std::map<VertexId, Weight> u_weight;
  std::map<VertexId, std::vector<VertexId>> u_neighbors;
  const bool adversarial = net.faults_active();
  for (std::uint64_t token : raw) {
    std::uint64_t packed = token >> 1;
    const bool edge = (token & 1u) != 0;
    // kToken's domain spans both token shapes, so a corrupted token can be
    // in range yet malformed: an edge token without its marker bit or with
    // a sender id >= n, a weight token naming a vertex id >= n.  It is
    // rejected — a hard invariant unless an adversary is active, in which
    // case the degraded cover goes to the certifier.
    if (edge ? (packed & 1u) != 1u || (packed >> 2) / n >= n
             : packed / weight_base >= n) {
      PG_CHECK(adversarial, "malformed token");
      continue;
    }
    if (edge) {
      packed >>= 1;
      const bool sender_in_u = (packed & 1u) != 0;
      packed >>= 1;
      const auto sender = static_cast<VertexId>(packed / n);
      const auto nbr = static_cast<VertexId>(packed % n);
      const auto key = std::minmax(sender, nbr);
      f_edges.insert({key.first, key.second});
      u_neighbors[sender].push_back(nbr);  // nbr is in U by construction
      if (sender_in_u) u_neighbors[nbr].push_back(sender);
    } else {
      u_weight[static_cast<VertexId>(packed / weight_base)] =
          static_cast<Weight>(packed % weight_base);
    }
  }
  result.f_edge_count = f_edges.size();

  std::vector<VertexId> u_list;
  for (const auto& [v, weight] : u_weight) {
    (void)weight;
    u_list.push_back(v);
  }
  const Graph h = remainder_square(n, u_list, f_edges, u_neighbors);

  VertexWeights h_weights(h.num_vertices());
  for (std::size_t i = 0; i < u_list.size(); ++i)
    h_weights.set(static_cast<VertexId>(i), u_weight.at(u_list[i]));

  VertexSet h_cover(h.num_vertices());
  if (config.leader_exact) {
    const solvers::ExactResult exact =
        solvers::solve_mwvc(h, h_weights, config.exact_node_budget);
    result.leader_solution_optimal = exact.optimal;
    h_cover = exact.solution;
  } else {
    h_cover = solvers::local_ratio_mwvc(h, h_weights);
    result.leader_solution_optimal = false;
  }

  std::vector<std::uint64_t> solution_tokens;
  for (VertexId hv : h_cover.to_vector())
    solution_tokens.push_back(
        static_cast<std::uint64_t>(u_list[static_cast<std::size_t>(hv)]));
  const auto received =
      congest::downcast_tokens(net, tree, solution_tokens, n - 1);
  for (std::size_t v = 0; v < n; ++v)
    for (std::uint64_t token : received[v])
      if (token == v) result.cover.insert(static_cast<VertexId>(v));

  result.phase2_rounds = net.stats().rounds - result.phase1_rounds;
  result.stats = net.stats();
  return result;
}

}  // namespace pg::core
