#include "congest/primitives.hpp"

#include <algorithm>
#include <deque>
#include <limits>

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

NodeId elect_min_id_leader(Network& net) {
  const std::size_t n = net.n();
  PG_REQUIRE(n > 0, "cannot elect a leader in an empty network");
  std::vector<NodeId> best(n);
  for (std::size_t v = 0; v < n; ++v) best[v] = static_cast<NodeId>(v);
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

  const NodeId leader = best[0];
  for (std::size_t v = 0; v < n; ++v)
    PG_CHECK(best[v] == leader,
             "leader flood did not converge (disconnected topology?)");
  return leader;
}

BfsTree build_bfs_tree(Network& net, NodeId root) {
  const std::size_t n = net.n();
  net.topology().check_vertex(root);
  BfsTree tree;
  tree.root = root;
  tree.parent.assign(n, -1);
  tree.depth.assign(n, -1);
  tree.children.resize(n);
  tree.depth[static_cast<std::size_t>(root)] = 0;

  // char, not vector<bool>: nodes flip their own flag from inside the
  // (possibly parallel) round, and vector<bool> packs neighbors into one
  // shared word.
  std::vector<char> announce(n, 0);
  announce[static_cast<std::size_t>(root)] = 1;
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

std::vector<std::uint64_t> upcast_tokens(
    Network& net, const BfsTree& tree,
    std::vector<std::vector<std::uint64_t>> tokens_per_node,
    std::uint64_t max_token) {
  const std::size_t n = net.n();
  PG_REQUIRE(tokens_per_node.size() == n, "token list size mismatch");
  std::vector<std::deque<std::uint64_t>> queue(n);
  std::size_t pending = 0;  // tokens not yet received by the root
  declare_tokens(net, max_token);
  for (std::size_t v = 0; v < n; ++v) {
    PG_REQUIRE(tokens_per_node[v].empty() ||
                   v == static_cast<std::size_t>(tree.root) ||
                   tree.parent[v] != -1,
               "tokens at a node the BFS tree did not reach");
    queue[v].assign(tokens_per_node[v].begin(), tokens_per_node[v].end());
    if (v != static_cast<std::size_t>(tree.root)) pending += queue[v].size();
  }

  // Unreached nodes (parent == -1) are skipped: they may legally appear in a
  // partial tree as long as they hold no tokens (`pending` counts theirs, so
  // the loop below would spin forever on a violation — same contract as
  // before the slot precompute).
  std::vector<std::size_t> parent_slot(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    if (static_cast<NodeId>(v) != tree.root && tree.parent[v] != -1)
      parent_slot[v] = slot_of(net.topology(), static_cast<NodeId>(v),
                               tree.parent[v]);

  std::vector<std::uint64_t> collected(
      tokens_per_node[static_cast<std::size_t>(tree.root)]);
  while (pending > 0) {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kToken) continue;
        const auto token = static_cast<std::uint64_t>(in.msg.at(0));
        if (node.id() == tree.root) {
          collected.push_back(token);
          --pending;
        } else {
          queue[me].push_back(token);
        }
      }
      if (node.id() != tree.root && !queue[me].empty()) {
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
    const std::vector<std::uint64_t>& tokens, std::uint64_t max_token) {
  const std::size_t n = net.n();
  declare_tokens(net, max_token);

  std::vector<std::deque<std::uint64_t>> queue(n);
  std::vector<std::vector<std::uint64_t>> received(n);
  queue[static_cast<std::size_t>(tree.root)].assign(tokens.begin(),
                                                    tokens.end());
  received[static_cast<std::size_t>(tree.root)] = tokens;

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
    PG_CHECK(received[v].size() == tokens.size(),
             "downcast did not deliver all tokens");
  return received;
}

}  // namespace pg::congest
