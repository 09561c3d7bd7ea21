// Lemma 29: randomized 2-hop cardinality estimation in CONGEST.
//
// Every member vertex draws r independent Exp(1) variables; the minimum of
// the j-th variables over N^2[v] is Exp(d_v) where d_v = |N^2[v] ∩ U|, so
// d_v is estimated by r / Σ_j min_j (Cramér concentration, Lemma 30).
// Each sample costs two broadcast rounds (1-hop min, then 2-hop min).
// Values are quantized to fixed point so a sample fits the O(log n)
// bandwidth — the paper's "O(log n) bits of precision suffice".
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "util/rng.hpp"

namespace pg::core {

/// Fixed-point scale: values live in [0, 16) (an Exp(1) draw exceeds 16
/// with probability e^-16), with 2^-(bits-4) resolution.  A sample costs
/// `payload_bits` clamped to [6, 32], so every code (infinity included)
/// is < 2^32; codes of positive draws are >= 1.
struct Quantizer {
  std::int64_t scale;  // fixed-point multiplier
  std::int64_t infinity;

  explicit Quantizer(int payload_bits) {
    const int bits = std::clamp(payload_bits, 6, 32);  // bits per sample
    scale = std::int64_t{1} << (bits - 4);
    infinity = (std::int64_t{1} << bits) - 1;
  }

  std::int64_t encode(double w) const {
    const double scaled = w * static_cast<double>(scale);
    if (scaled >= static_cast<double>(infinity)) return infinity;
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(scaled));
  }
  double decode(std::int64_t q) const {
    return static_cast<double>(q) / static_cast<double>(scale);
  }
};

struct EstimateResult {
  std::vector<double> estimate;   // per vertex: ~|N^2[v] ∩ U|; 0 if none
  std::int64_t rounds_used = 0;
  int samples = 0;
};

/// Estimates |N^2[v] ∩ U| for every v, where U = {u : membership[u]}.
/// `samples` <= 0 selects the default 3·⌈log2 n⌉ + 8.
EstimateResult estimate_two_hop_counts(congest::Network& net,
                                       const std::vector<bool>& membership,
                                       Rng& rng, int samples = 0);

}  // namespace pg::core
