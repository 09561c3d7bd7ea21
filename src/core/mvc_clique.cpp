#include "core/mvc_clique.hpp"

#include "clique/clique.hpp"

namespace pg::core {

using clique::CliqueNetwork;
using clique::Incoming;
using clique::Message;
using clique::NodeView;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

namespace {

constexpr std::uint8_t kFEdge = 26;    // field 0: F-edge token >> 1
constexpr std::uint8_t kInCover = 27;  // field 0: 1 iff recipient in R*

/// Lemma 9's transport: every node but the leader (node 0) sends it one
/// token per round, the leader solves once the last one has arrived, then
/// answers every node with a dedicated message in a single round.  A
/// token's lowest bit (its U-neighbor is in U) is always set, so the wire
/// drops it and the leader puts it back.
void stream_to_leader(CliqueNetwork& clique,
                      std::vector<std::vector<std::uint64_t>> tokens,
                      const LeaderSolve& solve, VertexSet& cover) {
  const std::size_t n = tokens.size();
  std::vector<std::uint64_t> at_leader;
  std::vector<std::size_t> sent(n, 0);
  const auto queued = [&] {
    for (std::size_t v = 0; v < n; ++v)
      if (sent[v] < tokens[v].size()) return true;
    return false;
  };
  const auto step = [&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    if (me != 0) {
      if (sent[me] < tokens[me].size())
        node.send(0, Message{kFEdge, {static_cast<std::int64_t>(
                                         tokens[me][sent[me]++] >> 1)}});
      return;
    }
    for (const Incoming& in : node.inbox())
      at_leader.push_back((static_cast<std::uint64_t>(in.msg.at(0)) << 1) | 1);
    // The leader's own tokens are local knowledge.
    at_leader.insert(at_leader.end(), tokens[0].begin() + sent[0],
                     tokens[0].end());
    sent[0] = tokens[0].size();
  };
  while (queued()) clique.round(step);
  clique.round(step);  // the last tokens in flight reach the leader

  std::vector<char> in_r_star(n, 0);
  for (VertexId v : solve(0, at_leader))
    in_r_star[static_cast<std::size_t>(v)] = 1;
  clique.round([&](NodeView& node) {
    if (node.id() != 0) return;
    for (std::size_t other = 1; other < n; ++other)
      node.send(static_cast<VertexId>(other),
                Message{kInCover, {in_r_star[other]}});
  });
  if (in_r_star[0] != 0) cover.insert(0);
  clique.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox())
      if (in.msg.at(0) == 1) cover.insert(node.id());
  });
}

MvcCongestResult solve_in_clique(GraphView g, Rng* rng,
                                 const MvcCongestConfig& config) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (n <= 1) {  // nothing to cover, nothing to send
    MvcCongestResult result;
    result.cover = VertexSet(g.num_vertices());
    return result;
  }
  congest::Network net(g);
  CliqueNetwork clique(n);
  MvcCongestResult result = run_algorithm1(
      net, config, rng,
      [&](std::vector<std::vector<std::uint64_t>> tokens,
          const LeaderSolve& solve, VertexSet& cover) {
        stream_to_leader(clique, std::move(tokens), solve, cover);
      });
  result.phase2_rounds += clique.stats().rounds;
  result.stats.rounds += clique.stats().rounds;
  result.stats.messages += clique.stats().messages;
  result.stats.total_bits += clique.stats().total_bits;
  return result;
}

}  // namespace

MvcCongestResult solve_g2_mvc_clique_deterministic(
    GraphView g, const MvcCongestConfig& config) {
  return solve_in_clique(g, nullptr, config);
}

MvcCongestResult solve_g2_mvc_clique_randomized(
    GraphView g, Rng& rng, const MvcCongestConfig& config) {
  return solve_in_clique(g, &rng, config);
}

}  // namespace pg::core
