// Deterministic network-fault model for the CONGEST simulator.
//
// A FaultModel describes an adversary acting on the wire, not on the
// process: per-(round, edge-slot) message drops, per-(round, node) payload
// corruption targets, and crash-stop node failures (scheduled explicitly or
// drawn per round from a hazard rate).  Every decision is a pure function
//
//     fault_hash(seed, tag, round, unit)  <  rate * 2^64
//
// of the model's seed and global coordinates (the round counter, a global
// directed-edge slot, a node id) — never of thread count, worker
// partitioning, shard assignment, or resume position.  The same (seed,
// model) therefore perturbs a run identically whether it executes on 1 or
// 64 round workers, inside `sweep --spawn k` children, or replayed after
// `--resume`; tests/congest_fault_test.cpp pins this.
//
// A model with all rates zero and an empty crash schedule is *disabled*:
// Network treats it exactly like no model at all, and the engine's
// fault-free byte-identity contract is untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace pg::congest {

/// SplitMix64 finalizer — the same bijective mixer the parallel-round
/// harness uses.  Pure, so fault decisions need no shared generator state.
inline std::uint64_t fault_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The decision hash: uniform in [0, 2^64) for fixed (seed, tag) as
/// (round, unit) vary.  `tag` namespaces the independent decision streams
/// (drop vs corrupt vs crash) so one rate never aliases another.
inline std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t tag,
                                std::int64_t round, std::uint64_t unit) {
  return fault_mix(fault_mix(fault_mix(seed ^ tag) ^
                             static_cast<std::uint64_t>(round)) ^
                   unit);
}

/// Maps a probability to the `hash < threshold` cutoff.  Rates <= 0 map to
/// 0 (never fires — the comparison below is strict), rates >= 1 saturate.
inline std::uint64_t fault_threshold(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
}

/// One decision: fires with probability ~rate, independently per
/// (round, unit) for the given stream tag.  A saturated threshold always
/// fires (hash < 2^64 - 1 misses one value in 2^64; the explicit branch
/// keeps rate = 1 exact).
inline bool fault_fires(std::uint64_t threshold, std::uint64_t seed,
                        std::uint64_t tag, std::int64_t round,
                        std::uint64_t unit) {
  if (threshold == 0) return false;
  if (threshold == ~std::uint64_t{0}) return true;
  return fault_hash(seed, tag, round, unit) < threshold;
}

/// Decision-stream tags (arbitrary distinct constants).
inline constexpr std::uint64_t kFaultTagDrop = 0xd401;
inline constexpr std::uint64_t kFaultTagCorrupt = 0xc0;
inline constexpr std::uint64_t kFaultTagCorruptBit = 0xc1;
inline constexpr std::uint64_t kFaultTagCrash = 0xcc;

/// A scheduled crash-stop: `node` stops executing its step from round
/// `round` on (messages it sent earlier are still delivered; messages
/// addressed to it still occupy its inbox — crash-stop, not omission).
/// Entries naming nodes outside the bound topology are ignored, so one
/// schedule can ride a whole sweep grid of different sizes.
struct CrashEvent {
  std::int64_t round = 0;
  graph::VertexId node = -1;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

struct FaultModel {
  double drop_rate = 0.0;     // P(delivered message is dropped), per slot
  double corrupt_rate = 0.0;  // P(delivered message is bit-flipped)
  double crash_rate = 0.0;    // per-(node, round) crash-stop hazard
  std::uint64_t seed = 0;
  std::vector<CrashEvent> crash_schedule;

  /// A disabled model is byte-invisible: Network bypasses every fault
  /// branch exactly as if no model were installed.
  bool enabled() const {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || crash_rate > 0.0 ||
           !crash_schedule.empty();
  }

  friend bool operator==(const FaultModel&, const FaultModel&) = default;
};

/// Per-run fault accounting, carried inside RoundStats so it flows through
/// the same channel as rounds/messages into RunOutcome and the reports.
struct FaultStats {
  std::int64_t messages_dropped = 0;
  /// Every corrupted delivery, counted once — also those the network then
  /// discards because the flipped bit took them out of their kind's
  /// declared domain (Network::declare); a discard is not a drop.
  std::int64_t messages_corrupted = 0;
  std::int64_t nodes_crashed = 0;
  /// Rounds completed while the fault model was active.
  std::int64_t rounds_survived = 0;

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

}  // namespace pg::congest
