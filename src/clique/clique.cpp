#include "clique/clique.hpp"

namespace pg::clique {

CliqueNetwork::CliqueNetwork(std::size_t n)
    : bandwidth_(congest::bandwidth_bits(n)),
      inbox_(n),
      next_inbox_(n),
      last_to_(n, {-1, -1}) {}

void CliqueNetwork::round(const std::function<void(NodeView&)>& step) {
  for (NodeId v = 0; v < static_cast<NodeId>(n()); ++v) {
    NodeView view(this, v);
    step(view);
  }
  // Senders step in id order, so every inbox lists its senders ascending.
  std::swap(inbox_, next_inbox_);
  for (auto& inbox : next_inbox_) inbox.clear();
  ++stats_.rounds;
}

void CliqueNetwork::do_send(NodeId from, NodeId to, const Message& m) {
  PG_REQUIRE(to >= 0 && to < static_cast<NodeId>(n()) && to != from,
             "CONGESTED CLIQUE: destination must be another node");
  auto& last = last_to_[static_cast<std::size_t>(to)];
  PG_REQUIRE(last != std::pair(stats_.rounds, from),
             "CONGESTED CLIQUE: one message per ordered pair per round");
  last = {stats_.rounds, from};

  const int bits = m.logical_bits();
  PG_REQUIRE(bits <= bandwidth_,
             "CONGESTED CLIQUE: message exceeds O(log n) bandwidth");

  next_inbox_[static_cast<std::size_t>(to)].push_back(Incoming{from, m});
  ++stats_.messages;
  stats_.total_bits += bits;
}

std::span<const Incoming> NodeView::inbox() const {
  return net_->inbox_[static_cast<std::size_t>(id_)];
}

void NodeView::send(NodeId to, const Message& m) { net_->do_send(id_, to, m); }

}  // namespace pg::clique
