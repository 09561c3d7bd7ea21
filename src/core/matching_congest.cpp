#include "core/matching_congest.hpp"

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
constexpr std::uint8_t kPropose = 51;
constexpr std::uint8_t kMatched = 52;
}  // namespace

MatchingCongestResult solve_maximal_matching_congest(GraphView g) {
  Network net(g);
  return solve_maximal_matching_congest(net);
}

MatchingCongestResult solve_maximal_matching_congest(Network& net) {
  net.reset();
  GraphView g = net.topology();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  MatchingCongestResult result;
  result.cover = VertexSet(g.num_vertices());

  // Byte flags, not vector<bool>: nodes flip their own entry from inside
  // the (possibly parallel) rounds, and vector<bool> packs 64 nodes per
  // shared word.  nbr_matched has one flag per CSR slot — node v's view of
  // its i-th neighbor lives at offsets[v] + i — and flags only ever go
  // 0 -> 1, so each node's first-unmatched-neighbor cursor only advances.
  const auto offsets = g.adjacency_offsets();
  std::vector<char> matched(n, 0);
  std::vector<NodeId> partner(n, -1);
  std::vector<char> nbr_matched(g.adjacency_array().size(), 0);
  std::vector<std::uint32_t> cursor(n, 0);
  std::vector<NodeId> proposed_to(n, -1);
  net.declare(kPropose, {});
  net.declare(kMatched, {});

  // Termination: once no unmatched vertex has an unmatched neighbor, no
  // proposals are sent and the loop exits (checked globally, as usual).
  bool any_proposal = true;
  while (any_proposal) {
    // Round A: absorb match announcements, then propose to the smallest
    // unmatched neighbor.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      char* flags = nbr_matched.data() + offsets[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMatched) flags[in.reply_slot] = 1;
      proposed_to[me] = -1;
      if (matched[me] != 0) return;
      // Rows are sorted ascending, so the first unflagged slot is the
      // smallest unmatched neighbor.
      const std::size_t degree = node.degree();
      std::uint32_t& i = cursor[me];
      while (i < degree && flags[i] != 0) ++i;
      if (i < degree) {
        proposed_to[me] = node.neighbors()[i];
        node.send_slot(i, Message{kPropose, {}});
      }
    });
    // Only proposals were sent, so a quiet round means none was made (a
    // crashed node's stale proposed_to cannot keep the loop alive).
    any_proposal = net.last_round_sent_messages();
    if (!any_proposal) break;

    // Round B: mutual proposals match; newly matched announce it.  A
    // proposal to a matched node means its kMatched never arrived (only
    // an adversary loses one), so it answers that proposer again.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (matched[me] != 0) {
        for (const Incoming& in : node.inbox())
          if (in.msg.kind == kPropose) node.reply(in, Message{kMatched, {}});
        return;
      }
      bool mutual = false;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kPropose && in.from == proposed_to[me])
          mutual = true;
      if (mutual) {
        matched[me] = 1;
        partner[me] = proposed_to[me];
        node.broadcast(Message{kMatched, {}});
      }
    });
    ++result.proposal_rounds;
  }

  // Under an active fault model these invariants are the *expected*
  // casualties (a forged kPropose makes a one-sided match; a dropped
  // kMatched breaks maximality), so instead of tripping, the result is
  // repaired where possible and returned for the sweep's independent
  // feasibility/--certify re-check to judge.
  const bool adversarial = net.faults_active();
  for (std::size_t v = 0; v < n; ++v) {
    if (matched[v] == 0) continue;
    if (partner[static_cast<std::size_t>(partner[v])] !=
        static_cast<NodeId>(v)) {
      PG_CHECK(adversarial, "matching partners disagree");
      continue;  // one-sided match: leave v out of the cover
    }
    result.cover.insert(static_cast<VertexId>(v));
    if (static_cast<NodeId>(v) < partner[v])
      result.matching.emplace_back(static_cast<VertexId>(v), partner[v]);
  }
  result.stats = net.stats();

  if (!adversarial)
    PG_CHECK(graph::is_vertex_cover(g, result.cover),
             "matching endpoints failed to cover G");
  return result;
}

}  // namespace pg::core
