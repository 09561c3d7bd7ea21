// Synchronous simulator for the CONGESTED CLIQUE model [LPPP03]: in every
// round, each node may send a distinct O(log n)-bit message to *every*
// other node.  Only the all-to-all links live here; an algorithm's rounds
// along the input graph's edges run on the CONGEST engine (congest/), which
// models them exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "congest/network.hpp"

namespace pg::clique {

using congest::Message;
using congest::NodeId;

struct Incoming {
  NodeId from = -1;
  Message msg;
};

class CliqueNetwork;

class NodeView {
 public:
  NodeId id() const { return id_; }
  std::span<const Incoming> inbox() const;

  /// Sends to any other node (the communication graph is complete).
  void send(NodeId to, const Message& m);

 private:
  friend class CliqueNetwork;
  NodeView(CliqueNetwork* net, NodeId id) : net_(net), id_(id) {}
  CliqueNetwork* net_;
  NodeId id_;
};

class CliqueNetwork {
 public:
  explicit CliqueNetwork(std::size_t n);

  std::size_t n() const { return inbox_.size(); }
  const congest::RoundStats& stats() const { return stats_; }

  void round(const std::function<void(NodeView&)>& step);

 private:
  friend class NodeView;
  void do_send(NodeId from, NodeId to, const Message& m);

  int bandwidth_;
  congest::RoundStats stats_;
  std::vector<std::vector<Incoming>> inbox_;
  std::vector<std::vector<Incoming>> next_inbox_;
  // (round, sender) of the last message to each destination.  `round`
  // steps the nodes one after another, so a sender's sends of one round
  // are contiguous and a repeated (sender, destination) pair always finds
  // its own stamp.
  std::vector<std::pair<std::int64_t, NodeId>> last_to_;
};

}  // namespace pg::clique
