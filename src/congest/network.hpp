// Synchronous message-passing simulator for the CONGEST model.
//
// Execution is round-based and lock-step: the driver calls
// `net.round(step)`, the step callable runs once per node against a
// `NodeView` that exposes only what a node may legally see (its id, its
// neighbor list, n, and the messages delivered this round), and the
// simulator then delivers all sent messages for the next round.  The
// simulator enforces, per round:
//   * at most one message per (node, incident edge, direction);
//   * each message's logical size <= B(n) bits;
//   * each message of a declared kind lies in its declared domain.
//
// Message domains.  The paper's algorithms send O(log n)-bit ids, flags,
// draws and weights, each from a range the sender knows.  After its
// `reset()`, an entry point calls `declare(kind, {{lo, hi}, ...})` for each
// kind it sends: the arity plus an inclusive range per field (primitives
// declare their own kinds when called).  Declarations last until the next
// reset()/reset(topology) and are made between rounds, on the driver
// thread.  A send of a declared kind that leaves its domain is a contract
// violation, checked next to the bandwidth check (O(1) per broadcast).
// Under an active fault model, a message the adversary corrupts out of
// its kind's domain — a field out of range, or a flipped kind bit landing
// on a declared kind of another arity — is discarded at delivery (it
// still counts once in FaultStats::messages_corrupted).  So every
// delivered message of a declared kind satisfies its declaration, and
// receivers read its fields without guards or clamps.  Undeclared kinds
// are neither checked nor discarded.  Fault-free traffic never reaches
// the delivery-side check.
//
// Internals are flat and CSR-indexed.  Every directed edge (u, i-th
// neighbor of u) owns the adjacency slot `offsets[u] + i`; a precomputed
// reverse-edge table maps it to the matching slot on the receiver's side.
// A unicast stamps that receiver-side slot with the current round number
// and stages (slot, 16-byte payload), so the one-message-per-edge-per-round
// rule is enforced structurally — two sends on one edge hit the same slot
// and the stamp betrays the second.  A broadcast stores its message *once*
// in a per-sender buffer (O(1), not O(degree)).  Delivery gathers into a
// flat inbox arena with per-node spans, choosing per round: quiet rounds
// cost O(n); sparse rounds walk only the deliverable slots (the staged
// unicasts, already slot-sorted, merged with the sorted broadcast
// fan-out); dense rounds make one O(m) pass over each receiver's sorted
// adjacency range, and skip the unicast stamps entirely when nobody
// unicast (the common case for the paper's algorithms).  Either way a
// unicast's payload is read through a forward-only cursor into the staged
// list, never by search.  `NodeView::inbox()` decodes a node's packed
// entries in place into a grow-only per-worker buffer, with a
// straight-line path for the 0–1 field messages that dominate traffic.
//
// Delivery order is deterministic and documented: each node's inbox is
// sorted by sender id, ascending (the sweep walks the receiver's sorted
// adjacency range).  Algorithms may rely on this; a regression test pins it.
//
// Parallel rounds.  `set_threads(w)` splits both phases of a round over w
// workers on contiguous node ranges balanced by adjacency mass (the same
// partitioning proven byte-identical in graph::detail::power_sparse_parallel).
// The discipline checks need no synchronization: every mutable send stamp
// (a directed edge's receiver-side slot, a sender's broadcast/unicast
// stamp) has exactly one writing node, and nodes never migrate between
// workers mid-round.  Sends are staged into per-worker tallies and merged
// at the phase barrier in worker order — worker ranges ascend, so the
// merged sequences (and therefore delivery, stats, and every inbox byte)
// are identical to the serial engine's for any thread count.  The
// determinism contract is: **identical topology + identical step logic =>
// bit-identical inboxes, outputs, and RoundStats at every thread count**;
// tests/congest_parallel_test.cpp pins it.
//
// Step callables must be safe to run concurrently for distinct nodes:
// per-node state (indexed by NodeView::id()) needs no locking, but writes
// to shared scalars or bit-packed containers (std::vector<bool>) from
// inside a step are data races.  After a step callable throws, staged
// round state is unspecified until the next reset()/reset(topology); the
// first failing node in ascending id order is the one whose exception
// propagates, matching the serial engine.
//
// The cancellation poll stays on the driver thread at the round boundary:
// worker threads never observe the thread-local token, so a watchdog
// expiry unwinds between rounds exactly as in the serial engine.
//
// Algorithms in src/core are written against this interface; their reported
// complexity is the simulator's round counter, which includes every
// primitive they invoke (leader election, BFS-tree building, pipelining).
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace pg::congest {

using NodeId = graph::VertexId;

struct Incoming {
  NodeId from = -1;
  /// Position of `from` in the *receiver's* neighbor list.  Lets a node
  /// answer a message in O(1) via `NodeView::reply` / `send_slot`, without
  /// re-deriving the slot from the sender id.
  std::uint32_t reply_slot = 0;
  Message msg;
};

namespace detail {

/// The stored form of an inbox entry: 20 bytes instead of Incoming's 48.
/// `from` is not stored — it is the receiver's `reply_slot`-th neighbor,
/// recovered from the adjacency row the inbox is anchored to.
struct PackedIncoming {
  std::uint32_t reply_slot = 0;
  PackedMessage msg;
};

static_assert(sizeof(PackedIncoming) == 20);

/// Per-worker decode buffer for `NodeView::inbox()`: the packed arena is
/// expanded into full `Incoming` entries once per (node, round) and the
/// span handed to the step points at the first `count` of them.  `items`
/// only grows — entries past `count` are stale leftovers of a larger
/// inbox, never value-initialized again as inbox sizes vary — so its size
/// is bounded by the largest inbox the worker has seen (O(max degree),
/// not O(m)) and is reused across nodes, rounds, and pooled rebinds.
struct InboxScratch {
  std::vector<Incoming> items;
  std::uint32_t count = 0;
  NodeId node = -1;
  std::int64_t round = -1;
};

}  // namespace detail

struct RoundStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  /// Fault accounting (all zero when no fault model is active).  `messages`
  /// and `total_bits` above count *sent* traffic — a dropped message still
  /// charges its sender, so quiescence detection and bandwidth accounting
  /// are adversary-independent.
  FaultStats faults;

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

class Network;

namespace detail {

/// A staged unicast: the receiver-side slot it lands in plus the packed
/// payload.  Unicast messages live only here (and in the merged, sorted
/// per-round list) — there is no dense 2m-entry message array, because a
/// round's unicast volume is bounded by n sends yet a dense array would
/// charge every directed edge 16 bytes for the whole cell.
struct StagedUnicast {
  std::uint32_t slot = 0;
  PackedMessage msg;
};

/// A worker's staged sends for the round in flight.  Counters accumulate
/// here instead of in shared Network::stats_ fields so the hot send path
/// never touches a contended cache line; the merge at the phase barrier
/// folds them into the canonical stats in worker order.
struct alignas(64) SendTally {
  std::vector<StagedUnicast> staged;  // unicasts (slot + payload)
  std::vector<NodeId> bcasters;       // nodes that broadcast
  std::int64_t messages = 0;
  std::int64_t bits = 0;

  void clear() {
    staged.clear();
    bcasters.clear();
    messages = bits = 0;
  }
};

/// Per-worker fault counters for the delivery sweep (summed serially after
/// the sweep, so FaultStats totals are thread-count invariant).
struct alignas(64) FaultTally {
  std::int64_t dropped = 0;
  std::int64_t corrupted = 0;
};

}  // namespace detail

/// The per-node façade handed to step callables.
class NodeView {
 public:
  NodeId id() const { return id_; }
  std::size_t n() const;
  std::span<const NodeId> neighbors() const;
  std::size_t degree() const { return neighbors().size(); }
  /// This round's messages, sorted by sender id ascending.  The span stays
  /// valid for the duration of the step (entries are decoded from the
  /// packed arena into a per-worker buffer on first access per round).
  std::span<const Incoming> inbox() const;

  /// Sends to one neighbor (delivered next round).  Resolves the neighbor's
  /// adjacency slot by binary search; prefer `send_slot`/`reply` in loops.
  void send(NodeId neighbor, const Message& m);
  /// Sends to the i-th neighbor (as indexed by `neighbors()`) in O(1).
  void send_slot(std::size_t i, const Message& m);
  /// Answers an incoming message: sends to `in.from` in O(1).
  void reply(const Incoming& in, const Message& m);
  /// Sends the same message along every incident edge.
  void broadcast(const Message& m);

 private:
  friend class Network;
  NodeView(Network* net, NodeId id, detail::SendTally* tally,
           detail::InboxScratch* scratch)
      : net_(net), id_(id), tally_(tally), scratch_(scratch) {}
  Network* net_;
  NodeId id_;
  detail::SendTally* tally_;
  detail::InboxScratch* scratch_;
};

class Network {
 public:
  /// The topology is copied: the network owns its graph, so callers may
  /// pass temporaries safely.
  explicit Network(graph::Graph topology);

  /// Non-owning variant: the network simulates over `topology`'s storage
  /// in place (no copy).  The caller must keep that storage alive for the
  /// network's lifetime — this is the path file-backed (mmap'd) graphs
  /// take, so a million-node cell never duplicates its CSR arrays.
  explicit Network(graph::GraphView topology);

  graph::GraphView topology() const { return graph_; }
  std::size_t n() const { return static_cast<std::size_t>(graph_.num_vertices()); }
  int bandwidth() const { return bandwidth_; }
  const RoundStats& stats() const { return stats_; }

  /// Requests `t` round workers (clamped to [1, min(n, 64)]).  Results are
  /// byte-identical for every value; only wall clock changes.  Worker
  /// threads are parked between rounds and survive reset()/reset(topology),
  /// so pooled simulators keep their pool across rebinds.
  void set_threads(int t);
  /// The effective worker count (after clamping).
  int threads() const { return threads_; }

  /// Total *capacity* footprint of the slot- and node-sized simulator
  /// buffers in bytes (excluding the owned graph).  Introspection for the
  /// pool-rebind shrink tests and memory-envelope assertions; not a hot
  /// path.
  std::size_t buffer_bytes() const;

  /// Installs a deterministic network-fault model (see congest/fault.hpp).
  /// A disabled model (all rates zero, empty schedule) is byte-invisible.
  /// The model survives `reset()` — entry points reset the network they are
  /// handed, and the adversary must outlive that — but is cleared by
  /// construction and `reset(topology)` (a rebind means a new cell).
  /// Installing a model re-arms crash state and the default round budget.
  void set_fault_model(const FaultModel& model);
  void clear_fault_model();
  /// True iff an enabled fault model is installed.  Algorithms may consult
  /// this to relax *self*-checks whose failure under an adversary is the
  /// expected outcome (the sweep's --certify pass re-checks independently);
  /// they must never branch on it in fault-free runs' message logic.  Field
  /// formats are not among those self-checks: the declared domains already
  /// keep corrupted payloads out of range (see `declare`).
  bool faults_active() const { return faults_enabled_; }
  const FaultModel& fault_model() const { return fault_model_; }

  /// Declares the domain of message kind `kind`: `fields.size()` fields,
  /// the i-th within the inclusive `fields[i]`.  Sends of the kind are
  /// checked against it and corrupted deliveries outside it are discarded
  /// (header comment).  Re-declaring a kind replaces its domain; reset()
  /// forgets every declaration.  Call between rounds only.
  void declare(std::uint8_t kind, std::initializer_list<FieldRange> fields);

  /// Caps the round counter: the next `round()` call at or past the limit
  /// throws instead of executing — divergence detection for quiescence
  /// loops an adversary can starve forever.  `reset()` re-arms the default
  /// (64·n + 16384 when a fault model is active, unlimited otherwise);
  /// -1 means unlimited.
  void set_round_limit(std::int64_t limit) { round_limit_ = limit; }
  std::int64_t round_limit() const { return round_limit_; }

  /// Executes one synchronous round.  `step(NodeView&)` is called for every
  /// node; messages sent become visible in inboxes next round.  The step
  /// callable is invoked directly (no type erasure), so lambdas inline.
  /// With threads() > 1 the per-node calls run concurrently on contiguous
  /// node ranges; see the parallel-rounds contract in the header comment.
  template <typename Step>
    requires std::invocable<Step&, NodeView&>
  void round(Step&& step) {
    // Cancellation point for the sweep runner's per-cell watchdog: an
    // over-budget CONGEST cell unwinds at its next round boundary (one
    // pointer load + null check when no token is installed).  The poll
    // stays on the driver thread — workers never see the token.
    pg::cancel::poll();
    // Round stamps are 32-bit (4 bytes × 2m slots matter at 10⁶ nodes).
    PG_REQUIRE(stats_.rounds < std::numeric_limits<std::int32_t>::max(),
               "CONGEST: round counter exceeds 32-bit stamp range");
    // Crash-stop prologue + round-budget guard, on the driver thread so
    // crash decisions are made exactly once regardless of worker count.
    // `crashed_` is read-only for the rest of the round, so the skip in
    // the (possibly parallel) step loops below is race-free.
    if (faults_enabled_ || round_limit_ >= 0) begin_faulty_round();
    if (threads_ == 1) {
      const auto num_nodes = static_cast<NodeId>(n());
      detail::SendTally& tally = tallies_[0];
      detail::InboxScratch& scratch = scratch_[0];
      for (NodeId v = 0; v < num_nodes; ++v) {
        if (faults_enabled_ && crashed_[static_cast<std::size_t>(v)] != 0)
          continue;
        NodeView view(this, v, &tally, &scratch);
        step(view);
      }
    } else {
      run_step_phase([this, &step](int t) {
        detail::SendTally& tally = tallies_[static_cast<std::size_t>(t)];
        detail::InboxScratch& scratch = scratch_[static_cast<std::size_t>(t)];
        const NodeId hi = bounds_[static_cast<std::size_t>(t) + 1];
        for (NodeId v = bounds_[static_cast<std::size_t>(t)]; v < hi; ++v) {
          if (faults_enabled_ && crashed_[static_cast<std::size_t>(v)] != 0)
            continue;
          NodeView view(this, v, &tally, &scratch);
          step(view);
        }
      });
    }
    merge_and_deliver();
  }

  /// True iff the previous round sent at least one message.
  bool last_round_sent_messages() const { return last_round_messages_ > 0; }

  /// Rewinds the network to its post-construction state (round counter,
  /// stats, in-flight messages) without reallocating any buffer, so one
  /// topology can serve many runs.
  void reset();

  /// Rebinds the simulator to a *new* topology, reusing every internal
  /// buffer's capacity — including the owned graph's CSR arrays, which is
  /// why this overload takes a reference and copy-assigns (the sweep
  /// runner pools networks across topology groups of equal size, so wide
  /// sweeps stop paying per-group allocation churn).  Equivalent to
  /// `*this = Network(topology)` minus the frees.
  void reset(const graph::Graph& topology);

  /// Rebind to externally-owned storage (same contract as the GraphView
  /// constructor): simulator buffers are reused, the graph is not copied,
  /// and the caller keeps `topology`'s storage alive.  Frees any
  /// previously owned copy — a view rebind means the pool serves a
  /// file-backed cell and must not pin the old resident topology.
  void reset(graph::GraphView topology);

 private:
  friend class NodeView;

  /// The send-side message contract shared by unicast and broadcast:
  /// bandwidth plus the kind's declared domain.  Returns the logical size.
  int checked_bits(const Message& m) const {
    const int bits = m.logical_bits();
    PG_REQUIRE(bits <= bandwidth_,
               "CONGEST: message exceeds O(log n) bandwidth");
    PG_REQUIRE(domains_[m.kind].admits(m),
               "CONGEST: message outside its kind's declared domain");
    return bits;
  }

  /// One store into the receiver-side slot of directed edge
  /// `first_slot_[from] + local_slot`; the round stamp enforces the
  /// one-message-per-edge rule (against other unicasts via the slot stamp,
  /// against a broadcast of the same sender via its broadcast stamp).
  /// Thread-safe for distinct senders: the stamped slot is a bijective
  /// image of the sender's directed edge, so no two nodes share one.
  void do_send_slot(NodeId from, std::size_t local_slot, const Message& m,
                    detail::SendTally& tally) {
    if (!unicast_ready_.load(std::memory_order_acquire))
      init_unicast_buffers();
    const auto v = static_cast<std::size_t>(from);
    const std::size_t e = first_slot_[v] + local_slot;
    const std::uint32_t dst = reverse_slot_[e];
    const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
    PG_REQUIRE(slot_round_[dst] != now && bcast_round_[v] != now,
               "CONGEST: one message per edge per direction per round");
    const int bits = checked_bits(m);
    slot_round_[dst] = now;
    unicast_round_[v] = now;
    tally.staged.push_back({dst, encode_message(m)});
    ++tally.messages;
    tally.bits += bits;
  }

  /// One store into the sender's broadcast buffer — O(1) regardless of
  /// degree; delivery fans the message out.  Collisions with unicasts the
  /// sender already issued this round are rejected on the (rare) mixed path
  /// (those slots are written only by this sender, so the check is
  /// race-free too).
  void do_broadcast(NodeId from, const Message& m,
                    detail::SendTally& tally) {
    const int bits = checked_bits(m);
    const auto v = static_cast<std::size_t>(from);
    const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
    PG_REQUIRE(bcast_round_[v] != now,
               "CONGEST: one message per edge per direction per round");
    const std::uint32_t begin = first_slot_[v];
    const std::uint32_t end = first_slot_[v + 1];
    if (unicast_round_[v] == now) {
      // Only a sender that already unicast this round can collide; keep
      // everyone else's broadcast O(1).
      for (std::uint32_t e = begin; e < end; ++e)
        PG_REQUIRE(slot_round_[reverse_slot_[e]] != now,
                   "CONGEST: one message per edge per direction per round");
    }
    bcast_round_[v] = now;
    bcast_msg_[v] = encode_message(m);
    tally.bcasters.push_back(from);
    const auto deg = static_cast<std::int64_t>(end - begin);
    tally.messages += deg;
    tally.bits += bits * deg;
  }

  /// Runs `body(t)` for every worker t with exception capture; the first
  /// failing worker's exception (= the first failing node in ascending id
  /// order, since worker ranges ascend and each worker runs its nodes in
  /// order) is rethrown after the join, matching serial semantics.
  void run_step_phase(const std::function<void(int)>& body);

  /// Folds the per-worker tallies into the canonical round lists/stats (in
  /// worker order — byte-identical to the serial engine) and delivers.
  void merge_and_deliver();

  /// Gathers this round's messages into the inbox arena and advances the
  /// round counter.  Output-sensitive: quiet rounds are O(n), rounds whose
  /// delivered-slot count is small relative to 2m gather via a sorted slot
  /// list (the already-sorted unicast slots merged with the sorted
  /// broadcast fan-out), and only message-heavy rounds pay the full O(m)
  /// sweep — split over the same worker ranges as the step phase when
  /// threads() > 1.  Unicast payloads are read through a per-worker
  /// cursor into the slot-sorted staged list, never by search.  Defined
  /// in network.cpp (shared by all instantiations).
  void deliver();

  /// Allocates the per-directed-edge unicast buffers on first use, so
  /// broadcast-only algorithms never pay their 2m-slot footprint.
  /// Double-checked under a mutex: concurrent first unicasts are safe.
  void init_unicast_buffers();

  /// Encodes a message into its 16-byte slot form.  The narrow encoding
  /// covers every 1–2 field message and all realistic wider ones; the rare
  /// remainder parks its fields in the round's overflow pool (mutex-guarded
  /// append — pool index order may vary across thread interleavings, but
  /// decoded inboxes never do).
  PackedMessage encode_message(const Message& m) {
    PackedMessage p;
    if (p.try_pack(m)) [[likely]]
      return p;
    p.pack_wide(m, push_wide(m));
    return p;
  }

  /// Appends to the sending-generation overflow pool; returns the index.
  std::uint32_t push_wide(const Message& m);

  /// Expands node v's packed inbox into the worker's scratch buffer (once
  /// per round — repeat calls return the memoized span).  Each entry is
  /// decoded in place over the buffer's previous contents.
  std::span<const Incoming> decode_inbox(NodeId v,
                                         detail::InboxScratch& scratch) const {
    if (scratch.node != v || scratch.round != stats_.rounds) {
      const auto vi = static_cast<std::size_t>(v);
      const std::uint32_t begin = first_slot_[vi];
      const std::uint32_t count = inbox_count_[vi];
      const detail::PackedIncoming* entries = inbox_arena_.data() + begin;
      const NodeId* adj = graph_.adjacency_array().data() + begin;
      const std::array<std::int64_t, 4>* wide = wide_inbox_.data();
      if (scratch.items.size() < count) scratch.items.resize(count);
      Incoming* items = scratch.items.data();
      for (std::uint32_t i = 0; i < count; ++i) {
        const detail::PackedIncoming& e = entries[i];
        items[i].from = adj[e.reply_slot];
        items[i].reply_slot = e.reply_slot;
        e.msg.unpack_into(items[i].msg, wide);
      }
      scratch.count = count;
      scratch.node = v;
      scratch.round = stats_.rounds;
    }
    return {scratch.items.data(), scratch.count};
  }

  /// Flips the adversary's bit in a delivered message; false iff the result
  /// left its kind's declared domain (delivery then discards it).  Out of
  /// line and cold: only corrupted deliveries come here, and the delivery
  /// sweeps' per-message step must stay small enough to inline.
  [[gnu::cold, gnu::noinline]] bool corrupt_admitted(
      PackedMessage& m, std::uint64_t entropy) const;

  /// Round prologue when a fault model or round limit is armed: enforces
  /// the round budget, then applies scheduled and hazard-rate crash-stops
  /// for the round about to execute.  Driver thread only.
  void begin_faulty_round();

  /// Re-arms per-run fault state (crash flags, schedule cursor, default
  /// round budget, worker counters) for the current model.
  void arm_faults();

  /// Recomputes the adjacency-mass-balanced worker ranges for the current
  /// (topology, threads) pair.
  void compute_bounds();

  /// Lazily (re)creates the parked worker pool at the current size.
  void ensure_pool();

  /// (Re)derives every index and buffer from graph_ — the shared tail of
  /// construction and reset(topology).  Existing capacity is reused.
  void rebuild();

  // The active topology is always queried through the view; owned_ holds
  // the backing storage on the owning paths and stays empty when the
  // caller's storage (e.g. a MappedGraph) backs the view directly.
  graph::Graph owned_;
  graph::GraphView graph_;
  int bandwidth_;
  RoundStats stats_;
  std::int64_t last_round_messages_ = 0;

  // CSR directed-edge index: node v's slots are [first_slot_[v],
  // first_slot_[v+1]); reverse_slot_[e] is the matching slot of the same
  // undirected edge on the other endpoint.
  std::vector<std::uint32_t> first_slot_;   // n+1 entries
  std::vector<std::uint32_t> reverse_slot_; // 2m entries

  // Per-directed-edge unicast *stamps*, indexed by the receiver-side slot,
  // allocated lazily on the first unicast.  slot_round_[e] records the
  // round that last wrote slot e (-1 = never; stamps are 32-bit, guarded
  // once per round).  The messages themselves are not stored densely —
  // they ride in round_staged_, sorted by slot after the merge.
  std::vector<std::int32_t> slot_round_;    // 2m entries (lazy)
  std::atomic<bool> unicast_ready_{false};  // acquire-gated lazy init
  std::mutex unicast_init_mutex_;
  std::vector<std::int32_t> unicast_round_; // last round each node unicast
  // This round's senders after the merge: every staged unicast sorted by
  // receiver-side slot (slots are unique by the send discipline, so the
  // order is deterministic at any thread count, and delivery consumes it
  // with a forward-only cursor as it meets the slots) and the nodes that
  // broadcast.  Staged unicasts + broadcaster degrees bound the
  // deliverable slot set; a sparse round merges them into round_slots_
  // and gathers in O(k log k + n) instead of sweeping 2m slots.
  std::vector<detail::StagedUnicast> round_staged_;
  std::vector<std::uint32_t> round_slots_;
  std::vector<NodeId> round_bcasters_;

  // Per-sender broadcast buffers (same stamping discipline).
  std::vector<std::int32_t> bcast_round_;   // n entries
  std::vector<PackedMessage> bcast_msg_;    // n entries

  // Flat inbox arena: node v's inbox lives at the head of its adjacency
  // slot range — inbox_arena_[first_slot_[v] .. first_slot_[v] +
  // inbox_count_[v]), sorted by sender id.  Anchoring every inbox at its
  // own slot range (instead of packing the arena) lets delivery workers
  // write disjoint regions with no cross-worker offsets to agree on.
  std::vector<detail::PackedIncoming> inbox_arena_;
  std::vector<std::uint32_t> inbox_count_;  // n entries

  // Overflow pools for messages too wide for the narrow packed encoding,
  // in two generations: sends of the round in flight append to
  // wide_send_ (under wide_mutex_), inboxes of the delivered round decode
  // from wide_inbox_ (read-only while steps run).  deliver() swaps the
  // generations, so pool entries live exactly one round past their send
  // and the pools stay bounded by the width of a single round.
  std::vector<std::array<std::int64_t, 4>> wide_send_;
  std::vector<std::array<std::int64_t, 4>> wide_inbox_;
  std::mutex wide_mutex_;

  // Parallel round machinery.  threads_ is the effective worker count
  // (requested, clamped to [1, min(n, 64)]); bounds_ has threads_ + 1
  // entries partitioning [0, n) by adjacency mass; tallies_ holds one
  // staging buffer per worker; the pool parks threads_ - 1 helpers.
  int threads_requested_ = 1;
  int threads_ = 1;
  std::vector<NodeId> bounds_;
  std::vector<detail::SendTally> tallies_;
  std::vector<detail::InboxScratch> scratch_;
  std::vector<std::exception_ptr> step_errors_;
  std::unique_ptr<util::WorkerPool> pool_;

  // Fault-injection state.  Thresholds are the precomputed hash cutoffs
  // (0 = stream disabled); crashed_ is written only in the driver-thread
  // prologue and read by the step/delivery phases; fault_tallies_ hold the
  // per-worker drop/corrupt counts folded (in any order — they are sums)
  // into stats_.faults after each delivery sweep.
  FaultModel fault_model_;
  bool faults_enabled_ = false;
  std::uint64_t drop_threshold_ = 0;
  std::uint64_t corrupt_threshold_ = 0;
  std::uint64_t crash_threshold_ = 0;
  std::vector<char> crashed_;
  std::size_t crash_cursor_ = 0;
  std::int64_t round_limit_ = -1;
  std::vector<detail::FaultTally> fault_tallies_;

  // Declared message domains, indexed by kind (see `declare`).  Written
  // between rounds only; read by the step and delivery phases.
  std::array<MessageDomain, 256> domains_{};
};

inline std::size_t NodeView::n() const { return net_->n(); }

inline std::span<const NodeId> NodeView::neighbors() const {
  const auto v = static_cast<std::size_t>(id_);
  const auto* adj = net_->graph_.adjacency_array().data();
  return {adj + net_->first_slot_[v], adj + net_->first_slot_[v + 1]};
}

inline std::span<const Incoming> NodeView::inbox() const {
  return net_->decode_inbox(id_, *scratch_);
}

inline void NodeView::send(NodeId neighbor, const Message& m) {
  const std::size_t slot = net_->graph_.neighbor_index(id_, neighbor);
  PG_REQUIRE(slot != graph::Graph::npos,
             "CONGEST: can only send to a direct neighbor");
  net_->do_send_slot(id_, slot, m, *tally_);
}

inline void NodeView::send_slot(std::size_t i, const Message& m) {
  PG_REQUIRE(i < degree(), "CONGEST: neighbor slot out of range");
  net_->do_send_slot(id_, i, m, *tally_);
}

inline void NodeView::reply(const Incoming& in, const Message& m) {
  net_->do_send_slot(id_, in.reply_slot, m, *tally_);
}

inline void NodeView::broadcast(const Message& m) {
  net_->do_broadcast(id_, m, *tally_);
}

}  // namespace pg::congest
