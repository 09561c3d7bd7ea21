// Reusable distributed primitives on top of the CONGEST simulator.  Each
// primitive advances the network's round counter by exactly the rounds it
// consumes, so algorithm-level round counts include these costs.
//
// Termination convention: primitives run until a round in which no messages
// were sent ("quiescence").  Detecting quiescence is a simulator
// convenience; the algorithms of the paper can replace it with fixed round
// budgets derived from n without changing asymptotics (noted per call site).
//
// Forest contract: every primitive runs on all connected components at
// once, and no message crosses a component.  The leader election gives
// each node its component's smallest id; the nodes that lead themselves
// are the roots of the BFS forest; an upcast collects at each root exactly
// the tokens of its own tree, and a downcast sends each root's tokens to
// exactly its own tree.  Components share rounds, so a primitive takes as
// many rounds as its slowest component, and on a connected network it
// sends exactly the messages of the single-tree version.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "congest/network.hpp"

namespace pg::congest {

/// Floods the minimum node id within each component; returns every node's
/// leader, the smallest id of its component.  Takes the largest component
/// diameter + O(1) rounds.
std::vector<NodeId> elect_min_id_leader(Network& net);

/// A BFS forest: one tree per root.
struct BfsTree {
  std::vector<NodeId> root;                   // root of each node's tree
  std::vector<NodeId> parent;                 // -1 for roots / unreached
  std::vector<int> depth;                     // -1 if unreached
  std::vector<std::vector<NodeId>> children;  // tree children per node
  int height = 0;                             // deepest node in the forest
};

/// Builds a BFS forest rooted at every v with leader[v] == v by layered
/// flooding from all roots at once; ties broken by smallest parent id.
/// `leader` is elect_min_id_leader's output (or any vector naming, for
/// each node, the root of its component).
BfsTree build_bfs_tree(Network& net, const std::vector<NodeId>& leader);

/// Pipelined convergecast: every node starts with a list of 64-bit tokens,
/// each at most `max_token` (the kind's declared domain is [0, max_token],
/// and max_token must fit in B(n)-8 bits); all tokens are forwarded up the
/// forest, one token per tree edge per round.  Returns, per node, the
/// tokens collected there: a root's own tokens followed by its tree's, and
/// nothing at non-roots.  Completes in O(height + total token count)
/// rounds.
std::vector<std::vector<std::uint64_t>> upcast_tokens(
    Network& net, const BfsTree& tree,
    std::vector<std::vector<std::uint64_t>> tokens_per_node,
    std::uint64_t max_token);

/// Pipelined broadcast: every root r streams `tokens[r]` down its tree
/// (non-roots' entries are ignored); every node ends up having seen all of
/// its root's tokens.  Returns per-node received tokens (returned per node
/// so callers consume them "locally").  Completes in O(height + largest
/// token count) rounds.  `max_token` bounds the tokens as in upcast_tokens.
std::vector<std::vector<std::uint64_t>> downcast_tokens(
    Network& net, const BfsTree& tree,
    const std::vector<std::vector<std::uint64_t>>& tokens,
    std::uint64_t max_token);

/// A leader's local step: maps the tokens its component gathered to the
/// node ids it answers with.
using LeaderSolve = std::function<std::vector<NodeId>(
    NodeId leader, const std::vector<std::uint64_t>& tokens)>;

/// One leader round trip per component (Lemma 2): elects the min-id
/// leaders, builds the BFS forest, upcasts every node's tokens (each at
/// most `max_token`) to its leader, calls `solve` once per leader in
/// ascending id order, and downcasts each leader's answer in its tree.
/// Returns the nodes that heard their own id, ascending.
std::vector<NodeId> gather_solve_scatter(
    Network& net, std::vector<std::vector<std::uint64_t>> tokens,
    std::uint64_t max_token, const LeaderSolve& solve);

}  // namespace pg::congest
