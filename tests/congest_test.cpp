// Tests for the CONGEST simulator: delivery semantics, model enforcement
// (bandwidth, one message per edge per direction), and the distributed
// primitives (leader election, BFS tree, pipelined upcast/downcast).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "util/rng.hpp"

namespace pg::congest {
namespace {

using graph::Graph;

TEST(Message, BitAccounting) {
  EXPECT_EQ(Message::significant_bits(0), 1);
  EXPECT_EQ(Message::significant_bits(1), 2);
  EXPECT_EQ(Message::significant_bits(-1), 1);
  EXPECT_EQ(Message::significant_bits(255), 9);
  const Message m{1, {3, 7}};
  EXPECT_EQ(m.logical_bits(), 8 + 3 + 4);
}

TEST(Message, BandwidthFormula) {
  EXPECT_EQ(bandwidth_bits(2), 16);
  EXPECT_EQ(bandwidth_bits(16), 64);
  EXPECT_EQ(bandwidth_bits(17), 80);
  EXPECT_EQ(bandwidth_bits(1024), 160);
}

// ------------------------------------------------------ packed decode ---

void expect_same_message(const Message& a, const Message& b,
                         const std::string& where) {
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.num_fields, b.num_fields) << where;
  EXPECT_EQ(a.fields, b.fields) << where;
}

TEST(PackedMessage, StraightLineDecodeMatchesGeneric) {
  // unpack_into's straight-line path (narrow 0–1 field messages) must
  // agree with the generic decoder on every encoding — narrow, wide, and
  // after fault corruption — and both must overwrite every field of a
  // reused Message.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t k57 = std::int64_t{1} << 57;
  const std::vector<std::int64_t> values = {0,    1,    -1,  kMin,
                                            kMax, k57, -k57};
  std::vector<std::array<std::int64_t, 4>> pool;
  std::size_t wide = 0;
  auto check = [&](const PackedMessage& p, const std::string& where) {
    Message fast{99, {7, 7, 7, 7}};  // stale contents to be overwritten
    Message generic = fast;
    p.unpack_into(fast, pool.data());
    p.unpack_generic(generic, pool.data());
    expect_same_message(fast, generic, where);
    return fast;
  };
  for (std::uint8_t nf = 0; nf <= 4; ++nf) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      Message m;
      m.kind = static_cast<std::uint8_t>(200 + j);
      m.num_fields = nf;
      for (std::size_t i = 0; i < nf; ++i)
        m.fields[i] = values[(j + i) % values.size()];
      PackedMessage p;
      if (!p.try_pack(m)) {
        pool.push_back(m.fields);
        p.pack_wide(m, static_cast<std::uint32_t>(pool.size() - 1));
        ++wide;
      }
      const std::string where =
          "nf=" + std::to_string(nf) + " j=" + std::to_string(j);
      expect_same_message(check(p, where), m, where);
      for (std::uint64_t entropy = 0; entropy < 300; entropy += 7) {
        PackedMessage hit = p;
        hit.corrupt(entropy * 0x9e3779b97f4a7c15ull);
        check(hit, where + " corrupted " + std::to_string(entropy));
      }
    }
  }
  EXPECT_GT(wide, 0u) << "the wide path went unexercised";
}

TEST(Network, DeliversNextRound) {
  const Graph g = graph::path_graph(3);
  Network net(g);
  std::vector<int> received(3, 0);
  net.round([&](NodeView& node) {
    if (node.id() == 0) node.send(1, Message{7, {42}});
  });
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(node.id(), 1);
      EXPECT_EQ(in.from, 0);
      EXPECT_EQ(in.msg.kind, 7);
      EXPECT_EQ(in.msg.at(0), 42);
      ++received[static_cast<std::size_t>(node.id())];
    }
  });
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(net.stats().rounds, 2);
  EXPECT_EQ(net.stats().messages, 1);
}

TEST(Network, RejectsNonNeighborSend) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) node.send(2, Message{1, {}});
  }),
               PreconditionViolation);
}

TEST(Network, RejectsDoubleSendOnEdge) {
  Network net(graph::path_graph(2));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.send(1, Message{1, {}});
      node.send(1, Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, AllowsBothDirectionsSameRound) {
  Network net(graph::path_graph(2));
  net.round([&](NodeView& node) {
    node.broadcast(Message{1, {node.id()}});
  });
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(Network, RejectsOversizedMessage) {
  // n = 4: bandwidth is 16*2 = 32 bits; a 60-bit field must be rejected.
  Network net(graph::path_graph(4));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0)
      node.send(1, Message{1, {(std::int64_t{1} << 60)}});
  }),
               PreconditionViolation);
}

// One inbox observation: (receiver, sender, kind, first field or -1).
using InboxLog = std::vector<std::array<std::int64_t, 4>>;

// Drives a fixed mixed unicast/broadcast schedule for `rounds` rounds and
// returns every inbox observation in delivery order.
InboxLog run_schedule(Network& net, int rounds) {
  InboxLog log;
  for (int i = 0; i < rounds; ++i) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox())
        log.push_back({node.id(), in.from, in.msg.kind,
                       in.msg.num_fields > 0 ? in.msg.at(0) : -1});
      if (node.id() % 3 == 0) {
        node.broadcast(Message{10, {node.id()}});
      } else if (node.degree() > 0) {
        const auto slot = static_cast<std::size_t>(node.id()) % node.degree();
        node.send_slot(slot, Message{11, {node.id()}});
      }
    });
  }
  return log;
}

TEST(Network, InboxSortedBySenderId) {
  Rng rng(41);
  Network net(graph::connected_gnp(20, 0.3, rng));
  net.round([&](NodeView& node) { node.broadcast(Message{1, {node.id()}}); });
  bool saw_any = false;
  net.round([&](NodeView& node) {
    NodeId prev = -1;
    for (const Incoming& in : node.inbox()) {
      EXPECT_LT(prev, in.from) << "inbox must be sorted by sender id";
      prev = in.from;
      saw_any = true;
    }
  });
  EXPECT_TRUE(saw_any);
}

TEST(Network, InboxSpanCoversOnlyTheNodesOwnEntries) {
  // The decode buffer is shared by every node a worker steps and only
  // grows; a leaf stepped right after the hub's large inbox must see its
  // own single entry, not the hub's leftovers.
  const Graph g = graph::star_graph(9);
  Network net(g);
  net.round([&](NodeView& node) { node.broadcast(Message{5, {node.id()}}); });
  net.round([&](NodeView& node) {
    const auto inbox = node.inbox();
    if (node.id() == 0) {
      ASSERT_EQ(inbox.size(), 9u);
      for (std::size_t i = 0; i < inbox.size(); ++i)
        EXPECT_EQ(inbox[i].msg.at(0), static_cast<std::int64_t>(i + 1));
      return;
    }
    ASSERT_EQ(inbox.size(), 1u) << "node " << node.id();
    EXPECT_EQ(inbox[0].from, 0);
    EXPECT_EQ(inbox[0].msg.at(0), 0);
    EXPECT_EQ(node.inbox().data(), inbox.data());  // memoized per round
  });
}

TEST(Network, SparseMixedRoundWithDropsMatchesBruteForce) {
  // One broadcast plus unicasts converging on the same receiver, in a
  // round sparse enough (deliverable slots <= 2m/4) to take the merged
  // slot-list path, with drops on.  The reference is derived from the
  // topology and the drop hash alone.
  constexpr NodeId kHub = 50;
  constexpr NodeId kBroadcaster = 51;
  graph::GraphBuilder builder(200);
  for (NodeId v = 0; v + 1 < 200; ++v) builder.add_edge(v, v + 1);
  std::vector<std::pair<NodeId, NodeId>> unicasts;  // (from, to)
  for (NodeId v = 1; v < 30; v += 2) {
    builder.add_edge(v, kHub);
    unicasts.push_back({v, kHub});
  }
  unicasts.push_back({49, kHub});
  unicasts.push_back({150, 151});
  unicasts.push_back({152, 151});
  const Graph g = std::move(builder).build();
  FaultModel model;
  model.drop_rate = 0.3;
  model.seed = 5;
  auto sends = [&](NodeView& node) {
    if (node.id() == kBroadcaster) {
      node.broadcast(Message{3, {node.id()}});
      return;
    }
    for (const auto& [from, to] : unicasts)
      if (from == node.id()) node.send(to, Message{4, {from, to}});
  };
  auto sends_to = [&](NodeId u, NodeId v) {
    if (u == kBroadcaster) return true;
    return std::find(unicasts.begin(), unicasts.end(),
                     std::pair<NodeId, NodeId>{u, v}) != unicasts.end();
  };

  // Brute force: every (receiver, sender) pair in receiver slot order.
  using Entry = std::array<std::int64_t, 4>;  // to, from, kind, field 0
  std::vector<Entry> expected;
  std::int64_t drops = 0;
  const auto offsets = g.adjacency_offsets();
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!sends_to(nbrs[i], v)) continue;
      const std::uint64_t e = offsets[static_cast<std::size_t>(v)] + i;
      if (fault_fires(fault_threshold(model.drop_rate), model.seed,
                      kFaultTagDrop, 0, e)) {
        ++drops;
        continue;
      }
      expected.push_back({v, nbrs[i], nbrs[i] == kBroadcaster ? 3 : 4,
                          nbrs[i]});
    }
  }
  ASSERT_GT(drops, 0) << "pick a seed that drops something";
  const std::size_t candidates = unicasts.size() + g.degree(kBroadcaster);
  ASSERT_LE(4 * candidates, g.adjacency_array().size());

  for (const int threads : {1, 3}) {
    Network net(g);
    net.set_threads(threads);
    net.set_fault_model(model);
    net.round(sends);
    // Per-node logs (each node writes only its own), flattened in id
    // order — the reference's order when inboxes are sender-sorted.
    std::vector<std::vector<Entry>> logs(g.num_vertices());
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox()) {
        logs[static_cast<std::size_t>(node.id())].push_back(
            {node.id(), in.from, in.msg.kind, in.msg.at(0)});
        if (in.msg.kind == 4) EXPECT_EQ(in.msg.at(1), node.id());
      }
    });
    std::vector<Entry> seen;
    for (const auto& log : logs)
      seen.insert(seen.end(), log.begin(), log.end());
    EXPECT_EQ(seen, expected) << "threads " << threads;
    EXPECT_EQ(net.stats().faults.messages_dropped, drops);
  }
}

TEST(Network, DeliveryIsDeterministic) {
  Rng rng(43);
  const Graph g = graph::connected_gnp(24, 0.2, rng);
  Network first(g);
  Network second(g);
  const InboxLog log_a = run_schedule(first, 6);
  const InboxLog log_b = run_schedule(second, 6);
  EXPECT_EQ(log_a, log_b)
      << "identical runs must produce identical inbox orderings";
  EXPECT_EQ(first.stats(), second.stats());
}

TEST(Network, ResetRewindsForIdenticalReuse) {
  Rng rng(47);
  Network net(graph::connected_gnp(16, 0.25, rng));
  const InboxLog log_a = run_schedule(net, 5);
  const RoundStats stats_a = net.stats();
  net.reset();
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(net.stats().messages, 0);
  EXPECT_FALSE(net.last_round_sent_messages());
  const InboxLog log_b = run_schedule(net, 5);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(stats_a, net.stats());
}

TEST(Network, SendSlotAndReplyDeliver) {
  Network net(graph::path_graph(3));
  net.round([&](NodeView& node) {
    if (node.id() == 1) {
      // Node 1's neighbors are {0, 2}; slot 1 is node 2.
      node.send_slot(1, Message{9, {77}});
    }
  });
  int replies = 0;
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(node.id(), 2);
      EXPECT_EQ(in.from, 1);
      EXPECT_EQ(in.msg.at(0), 77);
      node.reply(in, Message{12, {88}});
    }
  });
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(node.id(), 1);
      EXPECT_EQ(in.from, 2);
      EXPECT_EQ(in.msg.kind, 12);
      EXPECT_EQ(in.msg.at(0), 88);
      ++replies;
    }
  });
  EXPECT_EQ(replies, 1);
}

TEST(Network, MixedUnicastAndBroadcastSameRound) {
  // Different senders may mix strategies in one round; delivery must merge
  // both, still sorted by sender id.
  Network net(graph::path_graph(3));
  net.round([&](NodeView& node) {
    if (node.id() == 0) node.send(1, Message{5, {50}});
    if (node.id() == 2) node.broadcast(Message{6, {60}});
  });
  net.round([&](NodeView& node) {
    if (node.id() != 1) return;
    ASSERT_EQ(node.inbox().size(), 2u);
    EXPECT_EQ(node.inbox()[0].from, 0);
    EXPECT_EQ(node.inbox()[0].msg.at(0), 50);
    EXPECT_EQ(node.inbox()[1].from, 2);
    EXPECT_EQ(node.inbox()[1].msg.at(0), 60);
  });
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(Network, RejectsDoubleBroadcast) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.broadcast(Message{1, {}});
      node.broadcast(Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsSendAfterBroadcastOnSameEdge) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.broadcast(Message{1, {}});
      node.send(1, Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsBroadcastAfterSendOnSameEdge) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.send(1, Message{1, {}});
      node.broadcast(Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsDoubleSendSlot) {
  Network net(graph::path_graph(2));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.send_slot(0, Message{1, {}});
      node.send_slot(0, Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsOutOfRangeSlot) {
  Network net(graph::path_graph(2));
  EXPECT_THROW(net.round([&](NodeView& node) {
    node.send_slot(1, Message{1, {}});
  }),
               PreconditionViolation);
}

TEST(Network, RejectsOversizedBroadcast) {
  // n = 4: bandwidth is 32 bits; the broadcast fast path must also reject.
  Network net(graph::path_graph(4));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0)
      node.broadcast(Message{1, {(std::int64_t{1} << 60)}});
  }),
               PreconditionViolation);
}

TEST(Network, RebindReusesBuffersAndMatchesFreshConstruction) {
  // The sweep runner's pool rebinds one simulator across topologies of a
  // group sweep; after reset(topology) the network must be
  // indistinguishable from a freshly constructed one — same inboxes, same
  // stats, no state leaking from the previous graph (which here exercised
  // both the unicast and the broadcast buffers).
  Network net(graph::complete_graph(6));
  net.round([&](NodeView& node) {
    node.broadcast(Message{static_cast<std::uint8_t>(node.id()), {}});
  });
  net.round([&](NodeView& node) {
    if (node.id() == 1) node.send(0, Message{42, {}});
  });
  EXPECT_GT(net.stats().messages, 0);

  const Graph cycle = graph::cycle_graph(9);
  net.reset(cycle);
  Network fresh(cycle);
  EXPECT_EQ(net.n(), fresh.n());
  EXPECT_EQ(net.bandwidth(), fresh.bandwidth());
  EXPECT_EQ(net.stats(), fresh.stats());

  auto run_round = [](Network& target) {
    std::vector<std::vector<int>> heard(target.n());
    target.round([&](NodeView& node) {
      node.broadcast(
          Message{static_cast<std::uint8_t>(node.id() * 10), {}});
    });
    target.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox())
        heard[static_cast<std::size_t>(node.id())].push_back(in.msg.kind);
    });
    return heard;
  };
  EXPECT_EQ(run_round(net), run_round(fresh));
  EXPECT_EQ(net.stats(), fresh.stats());
}

TEST(Network, RebindToASmallTopologyShrinksOversizedBuffers) {
  // A pooled simulator that just ran a big dense graph must not pin that
  // graph's buffers forever: reset(topology) releases capacity that is
  // grossly oversized for the new binding (the sweep runner's pool walks
  // topologies largest-first, so without this a whole sweep would hold
  // the peak graph's footprint).
  Network net(graph::complete_graph(192));  // ~36k directed slots
  net.round([&](NodeView& node) {
    // Node 0 unicasts (touches the staging buffers), everyone else
    // broadcasts (fills the dense inbox arena).
    if (node.id() == 0)
      node.send(1, Message{8, {}});
    else
      node.broadcast(Message{7, {}});
  });
  const std::size_t big = net.buffer_bytes();

  net.reset(graph::path_graph(8));
  const Network fresh(graph::path_graph(8));
  EXPECT_LT(net.buffer_bytes(), big / 8);
  // Within the fit_capacity slack (2x + the 1024-element floor) of a
  // fresh simulator: rebinding is allowed to keep warm capacity, not an
  // old topology's worth of it.
  EXPECT_LE(net.buffer_bytes(),
            8 * std::max<std::size_t>(fresh.buffer_bytes(), 1) + (1 << 16));
}

// Every node of a connected network led by node 0: the single-tree case.
std::vector<NodeId> rooted_at_zero(const Network& net) {
  return std::vector<NodeId>(net.n(), 0);
}

TEST(Primitives, LeaderElectionFindsMinId) {
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::connected_gnp(24, 0.12, rng);
    Network net(g);
    EXPECT_EQ(elect_min_id_leader(net), rooted_at_zero(net));
    // Rounds are bounded by diameter + constant.
    EXPECT_LE(net.stats().rounds, graph::diameter(g) + 3);
  }
}

TEST(Primitives, BfsTreeIsValid) {
  Rng rng(29);
  const Graph g = graph::connected_gnp(30, 0.12, rng);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, rooted_at_zero(net));
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(tree.depth[static_cast<std::size_t>(v)], dist[static_cast<std::size_t>(v)])
        << "BFS tree depth must equal BFS distance";
    if (v != 0) {
      const NodeId p = tree.parent[static_cast<std::size_t>(v)];
      EXPECT_TRUE(g.has_edge(v, p));
      EXPECT_EQ(tree.depth[static_cast<std::size_t>(p)] + 1,
                tree.depth[static_cast<std::size_t>(v)]);
      const auto& siblings = tree.children[static_cast<std::size_t>(p)];
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), v),
                siblings.end());
    }
  }
}

TEST(Primitives, UpcastCollectsEverything) {
  const Graph g = graph::path_graph(6);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, rooted_at_zero(net));
  std::vector<std::vector<std::uint64_t>> tokens(6);
  std::vector<std::uint64_t> expected;
  for (std::size_t v = 0; v < 6; ++v)
    for (std::size_t i = 0; i <= v; ++i) {
      tokens[v].push_back(10 * v + i);
      expected.push_back(10 * v + i);
    }
  auto collected = upcast_tokens(net, tree, tokens, 55);
  std::sort(collected[0].begin(), collected[0].end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(collected[0], expected);
  for (std::size_t v = 1; v < 6; ++v) EXPECT_TRUE(collected[v].empty());
}

TEST(Primitives, UpcastRoundsArePipelined) {
  // A path of length L with T tokens at the far end takes ~L+T rounds,
  // not L*T.
  const int length = 20, count = 30;
  const Graph g = graph::path_graph(length);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, rooted_at_zero(net));
  const auto before = net.stats().rounds;
  std::vector<std::vector<std::uint64_t>> tokens(length);
  for (int i = 0; i < count; ++i)
    tokens[length - 1].push_back(static_cast<std::uint64_t>(i));
  upcast_tokens(net, tree, tokens, count - 1);
  const auto used = net.stats().rounds - before;
  EXPECT_LE(used, length + count + 2);
  EXPECT_GE(used, length - 1);
}

TEST(Primitives, DowncastDeliversToAll) {
  Rng rng(31);
  const Graph g = graph::connected_gnp(18, 0.15, rng);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, rooted_at_zero(net));
  std::vector<std::vector<std::uint64_t>> tokens(18);
  tokens[0] = {5, 9, 14};
  const auto received = downcast_tokens(net, tree, tokens, 14);
  for (std::size_t v = 0; v < 18; ++v) {
    auto sorted = received[v];
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, tokens[0]);
  }
}

TEST(Primitives, UpcastRejectsWideTokens) {
  const Graph g = graph::path_graph(4);  // bandwidth 32 bits
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, rooted_at_zero(net));
  std::vector<std::vector<std::uint64_t>> tokens(4);
  tokens[3].push_back(std::uint64_t{1} << 40);
  // A bound the bandwidth cannot carry, and a token above the bound.
  EXPECT_THROW(upcast_tokens(net, tree, tokens, std::uint64_t{1} << 40),
               PreconditionViolation);
  EXPECT_THROW(upcast_tokens(net, tree, tokens, 255), PreconditionViolation);
}

// Two components with interleaved ids — a path 0-2-5-7 and a star around
// 4 on {1, 4, 6, 8} — plus the isolated vertex 3.
Graph two_components_and_a_singleton() {
  graph::GraphBuilder b(9);
  for (auto [u, v] : {std::pair{0, 2}, {2, 5}, {5, 7}, {1, 4}, {4, 6}, {4, 8}})
    b.add_edge(u, v);
  return std::move(b).build();
}

const std::vector<NodeId> kComponentLeader = {0, 1, 0, 3, 1, 0, 1, 0, 1};

TEST(PrimitivesForest, EachRootCollectsExactlyItsComponentsTokens) {
  const Graph g = two_components_and_a_singleton();
  Network net(g);
  const std::vector<NodeId> leader = elect_min_id_leader(net);
  ASSERT_EQ(leader, kComponentLeader);
  const BfsTree tree = build_bfs_tree(net, leader);
  EXPECT_EQ(tree.root, leader);
  EXPECT_EQ(tree.height, 3);  // 7 sits three hops below 0
  std::vector<std::vector<std::uint64_t>> tokens(9);
  std::vector<std::vector<std::uint64_t>> expected(9);
  for (std::size_t v = 0; v < 9; ++v)
    for (std::uint64_t i = 0; i < 3; ++i) {
      tokens[v].push_back(10 * v + i);
      expected[static_cast<std::size_t>(leader[v])].push_back(10 * v + i);
    }
  auto collected = upcast_tokens(net, tree, tokens, 99);
  for (auto& list : collected) std::sort(list.begin(), list.end());
  EXPECT_EQ(collected, expected);
}

TEST(PrimitivesForest, EachDowncastReachesOnlyItsOwnTree) {
  const Graph g = two_components_and_a_singleton();
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, elect_min_id_leader(net));
  std::vector<std::vector<std::uint64_t>> tokens(9);
  tokens[0] = {100, 101};
  tokens[1] = {200};
  tokens[2] = {999};  // not a root: ignored
  const auto received = downcast_tokens(net, tree, tokens, 999);
  for (std::size_t v = 0; v < 9; ++v)
    EXPECT_EQ(received[v], tokens[static_cast<std::size_t>(kComponentLeader[v])])
        << "node " << v;
}

TEST(PrimitivesForest, GatherSolveScatterAnswersEachComponent) {
  const Graph g = two_components_and_a_singleton();
  Network net(g);
  std::vector<std::vector<std::uint64_t>> tokens(9);
  for (std::size_t v = 0; v < 9; ++v) tokens[v] = {v};
  std::vector<NodeId> leaders;
  // Each leader answers with the largest id it gathered.
  const std::vector<NodeId> heard = gather_solve_scatter(
      net, tokens, 8,
      [&](NodeId leader, const std::vector<std::uint64_t>& gathered) {
        leaders.push_back(leader);
        return std::vector<NodeId>{static_cast<NodeId>(
            *std::max_element(gathered.begin(), gathered.end()))};
      });
  EXPECT_EQ(leaders, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(heard, (std::vector<NodeId>{3, 7, 8}));
}

TEST(PrimitivesForest, CrashedRelayEndsInANamedOutcome) {
  const Graph g = two_components_and_a_singleton();
  std::vector<std::vector<std::uint64_t>> tokens(9);
  for (std::size_t v = 0; v < 9; ++v) tokens[v] = {v};
  const LeaderSolve echo = [](NodeId leader, const std::vector<std::uint64_t>&) {
    return std::vector<NodeId>{leader};
  };
  // The fault-free election and forest take this many rounds; crashing
  // relay 2 (between 0 and 5-7) before the first round cuts the flood,
  // crashing it then strands the tokens below it.
  Network clean(g);
  build_bfs_tree(clean, elect_min_id_leader(clean));
  const std::int64_t forest_rounds = clean.stats().rounds;
  for (const auto& [round, outcome] :
       {std::pair<std::int64_t, std::string>{0, "leader flood did not converge"},
        {forest_rounds, "upcast stalled"}}) {
    FaultModel model;
    model.crash_schedule = {{round, 2}};
    Network net(g);
    net.set_fault_model(model);
    try {
      gather_solve_scatter(net, tokens, 8, echo);
      ADD_FAILURE() << "crash at round " << round << " went unnoticed";
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string(e.what()).find(outcome), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pg::congest
