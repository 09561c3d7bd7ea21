#include "core/mds_congest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/estimator.hpp"
#include "core/solver_util.hpp"
#include "graph/ops.hpp"

namespace pg::core {

using congest::FieldRange;
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

constexpr std::uint8_t kRho = 41;      // field 0: rounded density
constexpr std::uint8_t kCandDraw = 42; // fields: r_v
constexpr std::uint8_t kMinCand = 43;  // fields: best (r, id) within 1 hop
constexpr std::uint8_t kVoteW = 44;    // fields: candidate id, quantized draw
constexpr std::uint8_t kVoteMin = 45;  // fields: quantized min (to candidate)
constexpr std::uint8_t kJoined = 46;   // sender joined the dominating set
constexpr std::uint8_t kCovered1 = 47; // sender is within 1 hop of the set

// Rounded densities are 0 or an exact power of two, so they live in the
// per-node arrays as one-byte codes (0 for zero, k+1 for 2^k).  The code
// order matches the value order — maxima and the candidate test compare
// codes directly — and messages decode back to the exact int64 payloads
// the unencoded representation carried.
std::uint8_t round_up_to_power_of_two_code(double x) {
  if (x < 0.75) return 0;
  int e = 0;
  while (static_cast<double>(std::int64_t{1} << e) < x) ++e;
  return static_cast<std::uint8_t>(e + 1);
}

std::uint8_t density_code(std::int64_t value) {
  return static_cast<std::uint8_t>(
      std::bit_width(static_cast<std::uint64_t>(value)));
}

std::int64_t density_value(std::uint8_t code) {
  return code == 0 ? 0 : std::int64_t{1} << (code - 1);
}

}  // namespace

MdsCongestResult solve_g2_mds_congest(GraphView g, Rng& rng,
                                      const MdsCongestConfig& config) {
  Network net(g);
  return solve_g2_mds_congest(net, rng, config);
}

MdsCongestResult solve_g2_mds_congest(Network& net, Rng& rng,
                                      const MdsCongestConfig& config) {
  net.reset();
  GraphView g = net.topology();
  PG_REQUIRE(graph::is_connected(g), "Theorem 28 assumes a connected network");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  MdsCongestResult result;
  result.dominating_set = VertexSet(g.num_vertices());
  if (n == 0) return result;
  if (n == 1) {
    result.dominating_set.insert(0);
    return result;
  }

  const int log_n =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(n))));
  const int max_phases =
      config.max_phases > 0 ? config.max_phases : 40 * (log_n + 1);
  // Saturated so every draw fits a non-negative message field.
  const std::int64_t r_range = saturating_pow(n, 4);

  // Byte flags, not vector<bool>: nodes write their own entry from inside
  // (possibly parallel) rounds, and vector<bool> packs 64 nodes per word.
  std::vector<char> covered(n, 0);
  std::vector<std::uint8_t> rho(n, 0);
  std::vector<NodeId> vote_of(n, -1);

  // The estimator's quantizer: the voting minima reuse the same idea but
  // carry an explicit candidate id (≈ bandwidth/16 bits) next to the
  // sample, so their fixed-point payload is a little narrower.
  const Quantizer quant(net.bandwidth() - 9 - net.bandwidth() / 16 - 1);
  const std::int64_t qinf = quant.infinity;
  // Rounded densities are powers of two up to the largest that fits the
  // bandwidth; ids are vertex ids, draws r_v ∈ [n^4], votes quantized.
  const FieldRange id{0, static_cast<std::int64_t>(n) - 1};
  net.declare(kRho, {{0, density_value(static_cast<std::uint8_t>(
                             std::min(62, net.bandwidth() - 9)))}});
  net.declare(kCandDraw, {{0, r_range - 1}});
  net.declare(kMinCand, {{0, r_range - 1}, id});
  net.declare(kVoteW, {id, {1, qinf}});
  net.declare(kVoteMin, {{1, qinf}});
  net.declare(kJoined, {});
  net.declare(kCovered1, {});
  const int samples =
      config.estimator_samples > 0 ? config.estimator_samples : 3 * log_n + 8;

  auto all_covered = [&]() {
    return std::all_of(covered.begin(), covered.end(),
                       [](char c) { return c != 0; });
  };

  // Phase-loop scratch, hoisted: at n = 10⁵⁺ re-allocating these every
  // phase is measurable churn, and the per-node candidate lists below are
  // the structures whose capacity is worth keeping across phases.
  std::vector<bool> uncovered(n);
  std::vector<std::uint8_t> best_rho(n);
  std::vector<bool> is_candidate(n);
  std::vector<std::int64_t> draw(n);
  std::vector<std::pair<std::int64_t, NodeId>> best1(n);
  std::vector<double> vote_sum(n);
  std::vector<std::uint16_t> vote_samples_seen(n);
  // Quantized draws fit 32 bits (Quantizer clamps at 32), so the voting
  // arrays store them narrow; messages still carry int64.
  std::vector<std::uint32_t> voter_draw(n);
  std::vector<std::uint32_t> direct_min(n);
  std::vector<char> joined(n);
  // Candidate neighbors of each node as (id, adjacency slot, forwarded
  // minimum).  The entries double as the per-sample vote-forwarding
  // accumulator (min = 0 marks "no vote seen" — encode never returns 0,
  // so the sentinel is out of band), replacing a per-node std::map whose
  // node churn dominated the cell's heap at large n.
  // Inbox order is sender-ascending, so each list is sorted by id.
  struct CandidateNeighbor {
    NodeId id;
    std::uint32_t slot;
    std::uint32_t min;
  };
  std::vector<std::vector<CandidateNeighbor>> candidate_neighbors(n);

  while (!all_covered() && result.phases < max_phases) {
    ++result.phases;

    // --- step 1: estimate densities --------------------------------------
    for (std::size_t v = 0; v < n; ++v) uncovered[v] = covered[v] == 0;
    const EstimateResult density =
        estimate_two_hop_counts(net, uncovered, rng, config.estimator_samples);
    for (std::size_t v = 0; v < n; ++v)
      rho[v] = round_up_to_power_of_two_code(density.estimate[v]);

    // --- step 2: candidates = 4-hop maxima of ρ ---------------------------
    best_rho.assign(rho.begin(), rho.end());
    auto fold_rho = [&](std::size_t me, const Incoming& in) {
      if (in.msg.kind == kRho)
        best_rho[me] = std::max(best_rho[me], density_code(in.msg.at(0)));
    };
    for (int hop = 0; hop < 4; ++hop) {
      net.round([&](NodeView& node) {
        const auto me = static_cast<std::size_t>(node.id());
        for (const Incoming& in : node.inbox()) fold_rho(me, in);
        node.broadcast(Message{kRho, {density_value(best_rho[me])}});
      });
    }
    net.round([&](NodeView& node) {  // absorb the last hop
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) fold_rho(me, in);
    });
    for (std::size_t v = 0; v < n; ++v)
      is_candidate[v] = rho[v] >= 1 && rho[v] >= best_rho[v];

    // --- step 3: voting ----------------------------------------------------
    draw.assign(n, -1);
    // Draws hoisted out of the round: the serial engine consumed them in
    // ascending node order inside the step, so pre-drawing here preserves
    // the exact byte stream while keeping the shared Rng off the round
    // workers (candidacy is fixed before the round, so the draw set is
    // identical).
    for (std::size_t v = 0; v < n; ++v)
      if (is_candidate[v])
        draw[v] = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(r_range)));
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      candidate_neighbors[me].clear();
      if (is_candidate[me]) node.broadcast(Message{kCandDraw, {draw[me]}});
    });
    // best (r, id) seen within 1 hop, then spread one more hop.
    best1.assign(n, {std::numeric_limits<std::int64_t>::max(), -1});
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      auto& best = best1[me];
      if (is_candidate[me]) best = {draw[me], node.id()};
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kCandDraw) {
          candidate_neighbors[me].push_back({in.from, in.reply_slot, 0});
          best = std::min(best, {in.msg.at(0), in.from});
        }
      if (best.second != -1)
        node.broadcast(Message{kMinCand, {best.first, best.second}});
    });
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      auto best = best1[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMinCand)
          best = std::min(best,
                          {in.msg.at(0), static_cast<NodeId>(in.msg.at(1))});
      vote_of[me] = covered[me] != 0 ? -1 : best.second;
    });

    // --- step 4: estimate votes per candidate (3-round cadence) -----------
    vote_sum.assign(n, 0.0);
    vote_samples_seen.assign(n, 0);
    voter_draw.assign(n, qinf);
    for (int j = 0; j < samples; ++j) {
      // r1: voters broadcast (candidate, draw).  Same hoist as step 3:
      // the voter set is fixed before the round, so drawing serially in
      // node order reproduces the serial engine's Rng stream exactly.
      for (std::size_t v = 0; v < n; ++v)
        voter_draw[v] = static_cast<std::uint32_t>(
            vote_of[v] == -1 ? qinf : quant.encode(rng.next_exponential()));
      net.round([&](NodeView& node) {
        const auto me = static_cast<std::size_t>(node.id());
        if (vote_of[me] == -1) return;
        node.broadcast(Message{kVoteW, {vote_of[me], voter_draw[me]}});
      });
      // r2: forwarders compute per-candidate minima; candidates absorb
      // direct votes.  Only votes for *adjacent* candidates can be
      // forwarded (non-adjacent ones have no delivery slot), so the
      // accumulator is the candidate-neighbor list itself: a sorted
      // array with min = -1 meaning "no vote seen", reproducing the
      // presence semantics of the std::map it replaced (a legal vote may
      // equal qinf, so the sentinel must be out of band).
      net.round([&](NodeView& node) {
        const auto me = static_cast<std::size_t>(node.id());
        auto& cands = candidate_neighbors[me];
        for (CandidateNeighbor& c : cands) c.min = 0;
        std::int64_t direct = qinf;
        if (vote_of[me] == static_cast<NodeId>(node.id()) &&
            vote_of[me] != -1)
          direct = std::min<std::int64_t>(direct, voter_draw[me]);
        for (const Incoming& in : node.inbox()) {
          if (in.msg.kind != kVoteW) continue;
          const auto cand = static_cast<NodeId>(in.msg.at(0));
          const std::int64_t q = in.msg.at(1);
          if (cand == node.id()) {
            direct = std::min(direct, q);
            continue;
          }
          const auto it = std::lower_bound(
              cands.begin(), cands.end(), cand,
              [](const CandidateNeighbor& c, NodeId id) { return c.id < id; });
          if (it != cands.end() && it->id == cand)
            it->min = static_cast<std::uint32_t>(
                it->min == 0 ? q : std::min<std::int64_t>(it->min, q));
        }
        // Stash the direct minimum for round 3.
        if (is_candidate[me])
          direct_min[me] = static_cast<std::uint32_t>(direct);
        for (const CandidateNeighbor& c : cands)
          if (c.min != 0)
            node.send_slot(c.slot,
                           Message{kVoteMin, {static_cast<std::int64_t>(c.min)}});
      });
      // r3: candidates fold direct + forwarded minima into the estimate.
      net.round([&](NodeView& node) {
        const auto me = static_cast<std::size_t>(node.id());
        if (!is_candidate[me]) return;
        std::int64_t best = direct_min[me];
        for (const Incoming& in : node.inbox())
          if (in.msg.kind == kVoteMin) best = std::min(best, in.msg.at(0));
        if (best < qinf) {
          vote_sum[me] += quant.decode(best);
          ++vote_samples_seen[me];
        }
      });
    }

    // --- step 5: join and flood coverage ----------------------------------
    // Joins land in a per-node flag and fold into the (shared) result
    // bitset between rounds: VertexSet::insert packs many nodes per word,
    // so it cannot be written from concurrent steps.
    joined.assign(n, 0);
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (!is_candidate[me]) return;
      const double votes = vote_sum[me] > 0
                               ? static_cast<double>(samples) / vote_sum[me]
                               : 0.0;
      if (votes + 1e-12 >= density.estimate[me] / 8.0 && votes > 0) {
        joined[me] = 1;
        covered[me] = 1;
        node.broadcast(Message{kJoined, {}});
      }
    });
    for (std::size_t v = 0; v < n; ++v)
      if (joined[v] != 0) result.dominating_set.insert(static_cast<VertexId>(v));
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      bool near = result.dominating_set.contains(node.id());
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kJoined) near = true;
      if (near) {
        covered[me] = 1;
        node.broadcast(Message{kCovered1, {}});
      }
    });
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kCovered1) covered[me] = 1;
    });
  }

  if (!all_covered()) {
    // Deterministic safety net: uncovered vertices dominate themselves.
    result.used_fallback = true;
    for (std::size_t v = 0; v < n; ++v)
      if (covered[v] == 0) {
        result.dominating_set.insert(static_cast<VertexId>(v));
        covered[v] = 1;
      }
  }

  result.stats = net.stats();
  return result;
}

}  // namespace pg::core
