#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pg::core {

using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::NodeView;

namespace {

constexpr std::uint8_t kSample = 31;   // field 0: quantized own draw
constexpr std::uint8_t kOneHop = 32;   // field 0: quantized 1-hop min

}  // namespace

EstimateResult estimate_two_hop_counts(Network& net,
                                       const std::vector<bool>& membership,
                                       Rng& rng, int samples) {
  const std::size_t n = net.n();
  PG_REQUIRE(membership.size() == n, "membership size mismatch");
  PG_REQUIRE(n >= 2, "estimation needs at least two nodes");

  if (samples <= 0)
    samples =
        3 * static_cast<int>(std::ceil(std::log2(static_cast<double>(n)))) + 8;

  const Quantizer quant(net.bandwidth() - 9);
  net.declare(kSample, {{1, quant.infinity}});
  net.declare(kOneHop, {{1, quant.infinity}});
  const std::int64_t start_rounds = net.stats().rounds;

  std::vector<double> sum_of_mins(n, 0.0);
  // Byte flags, not vector<bool>: written per-node from inside (possibly
  // parallel) rounds, and vector<bool> packs 64 nodes per word.
  std::vector<char> saw_member(n, 0);
  // Quantized draws fit 32 bits (Quantizer clamps bits to 32, so every
  // value — infinity included — is < 2^32); storing them narrow halves
  // the estimator's per-node footprint.  Messages still carry int64.
  std::vector<std::uint32_t> one_hop_min(n, 0);
  std::vector<std::uint32_t> my_draw(
      n, static_cast<std::uint32_t>(quant.infinity));

  for (int j = 0; j < samples; ++j) {
    // Round 1: members broadcast a fresh exponential draw.  The draws are
    // hoisted out of the round: the serial engine consumed them in
    // ascending node order inside the step and membership is fixed, so
    // pre-drawing preserves the exact Rng byte stream while keeping the
    // shared generator off the round workers.
    for (std::size_t v = 0; v < n; ++v)
      my_draw[v] = static_cast<std::uint32_t>(
          membership[v] ? quant.encode(rng.next_exponential())
                        : quant.infinity);
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (!membership[me]) return;
      node.broadcast(Message{kSample, {my_draw[me]}});
    });
    // Round 2: everyone broadcasts the 1-hop minimum (including itself).
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      std::int64_t best = my_draw[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kSample) best = std::min(best, in.msg.at(0));
      one_hop_min[me] = static_cast<std::uint32_t>(best);
      node.broadcast(Message{kOneHop, {best}});
    });
    // Round 3 (folded into the next sample's round 1 bookkeeping would
    // conflict on tags; one extra round per sample keeps the protocol
    // simple and still O(log n) total): fold 2-hop minima.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      std::int64_t best = one_hop_min[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kOneHop) best = std::min(best, in.msg.at(0));
      if (best < quant.infinity) {
        saw_member[me] = 1;
        sum_of_mins[me] += quant.decode(best);
      }
    });
  }

  EstimateResult result;
  result.samples = samples;
  result.estimate.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v)
    if (saw_member[v] != 0 && sum_of_mins[v] > 0)
      result.estimate[v] = static_cast<double>(samples) / sum_of_mins[v];
  result.rounds_used = net.stats().rounds - start_rounds;
  return result;
}

}  // namespace pg::core
