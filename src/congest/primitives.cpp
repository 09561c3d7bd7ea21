#include "congest/primitives.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <numeric>

#include "graph/ops.hpp"

namespace pg::congest {

namespace {
// Message tags local to the primitives.
constexpr std::uint8_t kMinId = 201;
constexpr std::uint8_t kBfsJoin = 202;   // field 0: depth of sender
constexpr std::uint8_t kBfsAdopt = 203;  // child -> parent
constexpr std::uint8_t kToken = 204;     // field 0: token payload

// Declares kToken's domain as [0, max_token]; the caller's bound must fit
// the bandwidth.  Each token is then checked against it where it is sent.
void declare_tokens(Network& net, std::uint64_t max_token) {
  const auto hi = static_cast<std::int64_t>(max_token);
  PG_REQUIRE(hi >= 0 && Message::significant_bits(hi) <= net.bandwidth() - 8,
             "token too wide for CONGEST bandwidth");
  net.declare(kToken, {{0, hi}});
}

// Adjacency slot of `target` within `v`'s neighbor list.  Resolved once per
// tree edge so the pipelined per-round sends below are O(1) slot sends.
std::size_t slot_of(graph::GraphView g, NodeId v, NodeId target) {
  const std::size_t slot = g.neighbor_index(v, target);
  PG_CHECK(slot != graph::Graph::npos, "tree edge missing from graph");
  return slot;
}
}  // namespace

std::vector<NodeId> elect_min_id_leader(Network& net) {
  const std::size_t n = net.n();
  std::vector<NodeId> best(n);
  std::iota(best.begin(), best.end(), 0);
  // Sentinel forcing everyone to broadcast in the first round.
  std::vector<NodeId> last_broadcast(n, std::numeric_limits<NodeId>::max());
  net.declare(kMinId, {{0, static_cast<std::int64_t>(n) - 1}});

  // Flood the minimum: whenever a node's known minimum improves on what it
  // last announced, it re-broadcasts.  Stabilizes after diameter+1 rounds;
  // the trailing quiet round is the (counted) termination check.
  do {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMinId)
          best[me] = std::min(best[me], static_cast<NodeId>(in.msg.at(0)));
      if (best[me] != last_broadcast[me]) {
        node.broadcast(Message{kMinId, {best[me]}});
        last_broadcast[me] = best[me];
      }
    });
  } while (net.last_round_sent_messages());

  // Components are labeled in order of their smallest vertex, so the
  // first vertex seen with a label is that component's leader.
  const graph::Components comps = graph::connected_components(net.topology());
  std::vector<NodeId> smallest(static_cast<std::size_t>(comps.count), -1);
  for (std::size_t v = 0; v < n; ++v) {
    NodeId& leader = smallest[static_cast<std::size_t>(comps.component[v])];
    if (leader == -1) leader = static_cast<NodeId>(v);
    PG_CHECK(best[v] == leader,
             "leader flood did not converge (lost message or crashed relay?)");
  }
  return best;
}

BfsTree build_bfs_tree(Network& net, const std::vector<NodeId>& leader) {
  const std::size_t n = net.n();
  PG_REQUIRE(leader.size() == n, "leader list size mismatch");
  BfsTree tree;
  tree.root = leader;
  tree.parent.assign(n, -1);
  tree.depth.assign(n, -1);
  tree.children.resize(n);

  // char, not vector<bool>: nodes flip their own flag from inside the
  // (possibly parallel) round, and vector<bool> packs neighbors into one
  // shared word.
  std::vector<char> announce(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    if (leader[v] == static_cast<NodeId>(v)) {
      tree.depth[v] = 0;
      announce[v] = 1;
    }
  net.declare(kBfsJoin, {{0, static_cast<std::int64_t>(n) - 1}});
  net.declare(kBfsAdopt, {});
  // A node's depth is the flood layer it joins in: joins happen on odd
  // rounds, layer (round + 1) / 2.  Fault-free this equals the announced
  // depth plus one; deriving it from the round keeps a corrupted
  // announcement from pushing the next announcement out of its domain.
  int round = 0;
  do {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      // Collect adoption notices from children.
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kBfsAdopt) tree.children[me].push_back(in.from);
      // Join the tree under the smallest-id announcer heard.
      if (tree.depth[me] == -1) {
        const Incoming* best = nullptr;
        for (const Incoming& in : node.inbox()) {
          if (in.msg.kind != kBfsJoin) continue;
          if (best == nullptr || in.from < best->from) best = &in;
        }
        if (best != nullptr) {
          tree.parent[me] = best->from;
          tree.depth[me] = (round + 1) / 2;
          node.reply(*best, Message{kBfsAdopt, {}});
          announce[me] = 1;
          return;  // announce own depth next round
        }
      }
      if (announce[me] != 0) {
        node.broadcast(Message{kBfsJoin, {tree.depth[me]}});
        announce[me] = 0;
      }
    });
    ++round;
  } while (net.last_round_sent_messages());

  for (std::size_t v = 0; v < n; ++v) {
    PG_CHECK(tree.depth[v] >= 0, "BFS tree did not reach every node");
    tree.height = std::max(tree.height, tree.depth[v]);
  }
  return tree;
}

std::vector<std::vector<std::uint64_t>> upcast_tokens(
    Network& net, const BfsTree& tree,
    std::vector<std::vector<std::uint64_t>> tokens_per_node,
    std::uint64_t max_token) {
  const std::size_t n = net.n();
  PG_REQUIRE(tokens_per_node.size() == n, "token list size mismatch");
  const auto is_root = [&](std::size_t v) {
    return tree.root[v] == static_cast<NodeId>(v);
  };
  std::vector<std::deque<std::uint64_t>> queue(n);
  std::vector<std::vector<std::uint64_t>> collected(n);
  // Tokens not yet received by their root.  Several roots may collect in
  // one (possibly parallel) round, so the count is shared atomically.
  std::atomic<std::size_t> pending = 0;
  declare_tokens(net, max_token);
  // Unreached nodes (parent == -1) are skipped: they may legally appear in a
  // partial tree as long as they hold no tokens.  Parent slots are resolved
  // once so the pipelined per-round sends are O(1) slot sends.
  std::vector<std::size_t> parent_slot(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    PG_REQUIRE(tokens_per_node[v].empty() || is_root(v) ||
                   tree.parent[v] != -1,
               "tokens at a node the BFS tree did not reach");
    if (is_root(v)) {
      collected[v] = std::move(tokens_per_node[v]);
      continue;
    }
    queue[v].assign(tokens_per_node[v].begin(), tokens_per_node[v].end());
    pending += queue[v].size();
    if (tree.parent[v] != -1)
      parent_slot[v] = slot_of(net.topology(), static_cast<NodeId>(v),
                               tree.parent[v]);
  }

  while (pending > 0) {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kToken) continue;
        const auto token = static_cast<std::uint64_t>(in.msg.at(0));
        if (is_root(me)) {
          collected[me].push_back(token);
          pending.fetch_sub(1, std::memory_order_relaxed);
        } else {
          queue[me].push_back(token);
        }
      }
      if (!is_root(me) && !queue[me].empty()) {
        const auto token = queue[me].front();
        queue[me].pop_front();
        node.send_slot(parent_slot[me],
                       Message{kToken, {static_cast<std::int64_t>(token)}});
      }
    });
    // Divergence guard: a quiet round with tokens still pending means no
    // token is in flight and no live node holds one to forward — under
    // fault injection (a dropped kToken, a crashed relay) this loop would
    // otherwise spin quiet rounds forever.  Unreachable fault-free: any
    // undelivered token sits in some non-root queue, whose owner sends
    // every round.
    PG_CHECK(pending == 0 || net.last_round_sent_messages(),
             "upcast stalled: tokens lost in transit (dropped message or "
             "crashed relay?)");
  }
  return collected;
}

std::vector<std::vector<std::uint64_t>> downcast_tokens(
    Network& net, const BfsTree& tree,
    const std::vector<std::vector<std::uint64_t>>& tokens,
    std::uint64_t max_token) {
  const std::size_t n = net.n();
  PG_REQUIRE(tokens.size() == n, "token list size mismatch");
  declare_tokens(net, max_token);

  std::vector<std::deque<std::uint64_t>> queue(n);
  std::vector<std::vector<std::uint64_t>> received(n);
  for (std::size_t v = 0; v < n; ++v)
    if (tree.root[v] == static_cast<NodeId>(v)) {
      queue[v].assign(tokens[v].begin(), tokens[v].end());
      received[v] = tokens[v];
    }

  std::vector<std::vector<std::size_t>> child_slot(n);
  for (std::size_t v = 0; v < n; ++v)
    for (NodeId child : tree.children[v])
      child_slot[v].push_back(
          slot_of(net.topology(), static_cast<NodeId>(v), child));

  do {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kToken) continue;
        const auto token = static_cast<std::uint64_t>(in.msg.at(0));
        received[me].push_back(token);
        queue[me].push_back(token);
      }
      if (!queue[me].empty()) {
        const auto token = queue[me].front();
        queue[me].pop_front();
        for (std::size_t slot : child_slot[me])
          node.send_slot(slot,
                         Message{kToken, {static_cast<std::int64_t>(token)}});
      }
    });
  } while (net.last_round_sent_messages());

  for (std::size_t v = 0; v < n; ++v)
    PG_CHECK(received[v].size() ==
                 tokens[static_cast<std::size_t>(tree.root[v])].size(),
             "downcast did not deliver all tokens");
  return received;
}

std::vector<NodeId> gather_solve_scatter(
    Network& net, std::vector<std::vector<std::uint64_t>> tokens,
    std::uint64_t max_token, const LeaderSolve& solve) {
  const std::size_t n = net.n();
  if (n == 0) return {};
  const BfsTree tree = build_bfs_tree(net, elect_min_id_leader(net));
  auto answers = upcast_tokens(net, tree, std::move(tokens), max_token);
  for (std::size_t v = 0; v < n; ++v) {
    if (tree.root[v] != static_cast<NodeId>(v)) continue;
    const std::vector<NodeId> ids = solve(static_cast<NodeId>(v), answers[v]);
    answers[v].assign(ids.begin(), ids.end());
  }
  const auto received = downcast_tokens(net, tree, answers, n - 1);
  std::vector<NodeId> heard;
  for (std::size_t v = 0; v < n; ++v)
    if (std::ranges::find(received[v], v) != received[v].end())
      heard.push_back(static_cast<NodeId>(v));
  return heard;
}

}  // namespace pg::congest
