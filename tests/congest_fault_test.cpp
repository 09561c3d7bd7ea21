// Tests for deterministic network-fault injection: the pure hash layer
// (congest/fault.hpp), Network's adversarial delivery path (drops,
// structurally-safe corruption, the discard of corrupted messages that
// leave their kind's declared domain, crash-stop schedules and hazards,
// the round-budget divergence guard), a corruption fuzz over every CONGEST
// algorithm and primitive, and the sweep-level determinism
// contract — a fixed (plan, seed) produces byte-identical rows at every
// CONGEST thread count and across a shard merge, and a fault-free plan
// is byte-invisible.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "core/matching_congest.hpp"
#include "core/mds_congest.hpp"
#include "core/mvc_congest.hpp"
#include "core/mwvc_congest.hpp"
#include "graph/generators.hpp"
#include "scenario/algorithms.hpp"
#include "scenario/fault.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pg::congest {
namespace {

using graph::Graph;

// ------------------------------------------------------------ hash layer ---

TEST(FaultHash, PureAndSeedSensitive) {
  const std::uint64_t h = fault_hash(7, kFaultTagDrop, 3, 11);
  EXPECT_EQ(h, fault_hash(7, kFaultTagDrop, 3, 11));
  EXPECT_NE(h, fault_hash(8, kFaultTagDrop, 3, 11));
  EXPECT_NE(h, fault_hash(7, kFaultTagCorrupt, 3, 11));
  EXPECT_NE(h, fault_hash(7, kFaultTagDrop, 4, 11));
  EXPECT_NE(h, fault_hash(7, kFaultTagDrop, 3, 12));
}

TEST(FaultHash, ThresholdEndpointsAreExact) {
  EXPECT_EQ(fault_threshold(0.0), 0u);
  EXPECT_EQ(fault_threshold(-0.5), 0u);
  EXPECT_EQ(fault_threshold(1.0), ~std::uint64_t{0});
  EXPECT_EQ(fault_threshold(2.0), ~std::uint64_t{0});
  const std::uint64_t half = fault_threshold(0.5);
  EXPECT_GT(half, std::uint64_t{1} << 62);
  EXPECT_LT(half, (std::uint64_t{1} << 63) + (std::uint64_t{1} << 62));
  // Rate 0 never fires and rate 1 always fires, for every (round, unit):
  // the explicit threshold branches, not floating-point luck.
  for (std::int64_t round = 0; round < 64; ++round)
    for (std::uint64_t unit = 0; unit < 64; ++unit) {
      EXPECT_FALSE(fault_fires(fault_threshold(0.0), 5, kFaultTagDrop, round,
                               unit));
      EXPECT_TRUE(fault_fires(fault_threshold(1.0), 5, kFaultTagDrop, round,
                              unit));
    }
}

TEST(FaultModel, EnabledSemantics) {
  FaultModel model;
  EXPECT_FALSE(model.enabled());
  model.drop_rate = 0.1;
  EXPECT_TRUE(model.enabled());
  model.drop_rate = 0.0;
  model.crash_schedule.push_back({4, 2});
  EXPECT_TRUE(model.enabled());
}

// --------------------------------------------------------- network layer ---

// Drives `rounds` all-broadcast rounds and logs every inbox observation
// as (receiver, sender, kind, first field or -1).
using InboxLog = std::vector<std::vector<std::int64_t>>;

InboxLog run_broadcasts(Network& net, int rounds, std::int64_t kind = 10) {
  InboxLog log;
  for (int i = 0; i < rounds; ++i) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox())
        log.push_back({node.id(), in.from, in.msg.kind,
                       in.msg.num_fields > 0 ? in.msg.at(0) : -1});
      node.broadcast(Message{kind, {node.id()}});
    });
  }
  return log;
}

TEST(NetworkFaults, DisabledModelIsByteInvisible) {
  const Graph g = graph::path_graph(8);
  Network plain(g);
  const InboxLog expected = run_broadcasts(plain, 4);

  Network armed(g);
  armed.set_fault_model(FaultModel{});  // all rates zero, empty schedule
  EXPECT_FALSE(armed.faults_active());
  EXPECT_EQ(run_broadcasts(armed, 4), expected);
  EXPECT_EQ(armed.stats(), plain.stats());
  EXPECT_EQ(armed.stats().faults, FaultStats{});
}

TEST(NetworkFaults, CrashScheduleStopsNodesAndIgnoresForeignEntries) {
  const Graph g = graph::path_graph(4);
  FaultModel model;
  model.crash_schedule = {{0, 1}, {1, 2}, {0, 900000}};  // last: no-op node
  Network net(g);
  net.set_fault_model(model);

  std::vector<int> steps(4, 0);
  for (int r = 0; r < 3; ++r) {
    net.round([&](NodeView& node) {
      ++steps[static_cast<std::size_t>(node.id())];
      node.broadcast(Message{1, {node.id()}});
    });
  }
  EXPECT_EQ(net.stats().faults.nodes_crashed, 2);
  // Node 1 crashed before round 1, node 2 before round 2: their handlers
  // never (resp. once) ran, while the survivors stepped every round.
  EXPECT_EQ(steps[0], 3);
  EXPECT_EQ(steps[1], 0);
  EXPECT_EQ(steps[2], 1);
  EXPECT_EQ(steps[3], 3);
  // Messages: round 0 alive {0,2,3} send 1+2+1, rounds 1-2 alive {0,3}
  // send 1+1 each.
  EXPECT_EQ(net.stats().messages, 8);
  EXPECT_EQ(net.stats().faults.rounds_survived, 3);
}

TEST(NetworkFaults, DropRateOneEmptiesEveryInbox) {
  FaultModel model;
  model.drop_rate = 1.0;
  model.seed = 3;
  Network net(graph::path_graph(6));
  net.set_fault_model(model);
  const InboxLog log = run_broadcasts(net, 3);
  EXPECT_TRUE(log.empty());
  // Every staged message after round 0 was a candidate delivery and was
  // dropped; sends themselves are still counted.
  EXPECT_EQ(net.stats().messages, 3 * 10);
  EXPECT_EQ(net.stats().faults.messages_dropped, 3 * 10);
  EXPECT_EQ(net.stats().faults.messages_corrupted, 0);
}

TEST(NetworkFaults, CorruptionIsStructurallySafe) {
  FaultModel model;
  model.corrupt_rate = 1.0;
  model.seed = 17;
  Rng rng(5);
  Network net(graph::connected_gnp(12, 0.4, rng));
  net.set_fault_model(model);
  int flipped_payloads = 0;
  std::int64_t deliveries = 0;
  // 4 sending rounds plus one read-only round, so every staged (and
  // therefore corrupted) message is also observed in an inbox.
  for (int r = 0; r < 5; ++r) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox()) {
        ++deliveries;
        // Payload-carrying messages keep kind and arity: corruption flips
        // exactly one payload bit.
        EXPECT_EQ(in.msg.kind, 10);
        EXPECT_EQ(in.msg.num_fields, 1);
        if (in.msg.at(0) != in.from) ++flipped_payloads;
      }
      if (r < 4) node.broadcast(Message{10, {node.id()}});
    });
  }
  EXPECT_GT(deliveries, 0);
  EXPECT_EQ(net.stats().faults.messages_corrupted, deliveries);
  EXPECT_GT(flipped_payloads, 0);
}

TEST(NetworkFaults, ZeroFieldCorruptionFlipsOneLowKindBit) {
  FaultModel model;
  model.corrupt_rate = 1.0;
  model.seed = 9;
  Network net(graph::path_graph(2));
  net.set_fault_model(model);
  net.round([&](NodeView& node) { node.broadcast(Message{46, {}}); });
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(in.msg.num_fields, 0);
      const auto diff =
          static_cast<std::uint64_t>(in.msg.kind) ^ std::uint64_t{46};
      EXPECT_EQ(std::popcount(diff), 1);
      EXPECT_LT(diff, 256u);  // only the low 8 kind bits are fair game
    }
  });
  EXPECT_EQ(net.stats().faults.messages_corrupted, 2);
}

TEST(NetworkFaults, DeliveredMessagesOfDeclaredKindsSatisfyTheirDomains) {
  // Every corruption flavor at rate 1: payload flips of narrow messages
  // (kId, kPair), kind flips of field-less messages (kPing; bit 0 turns it
  // into kId, bit 1 into the never-sent, field-less kEcho) and of wide ones
  // (kWide's fields overflow the narrow width; bit 2 turns it into kPair).
  // Kinds flipped onto a declared kind of another arity, and payloads
  // flipped out of range, must be discarded.
  constexpr std::uint8_t kPair = 8, kEcho = 9, kId = 10, kPing = 11,
                         kWide = 12;
  constexpr std::int64_t kBase = std::int64_t{1} << 28;
  Rng rng(3);
  Network net(graph::connected_gnp(160, 0.03, rng));  // B(n) = 128 bits
  const auto n = static_cast<std::int64_t>(net.n());
  const FieldRange ids{0, n - 1};
  const FieldRange wide{kBase, kBase + n};
  const std::map<std::uint8_t, std::vector<FieldRange>> declared = {
      {kPair, {ids, ids}}, {kEcho, {}}, {kId, {ids}}, {kPing, {}},
      {kWide, {wide, wide, wide, wide}}};
  net.declare(kPair, {ids, ids});
  net.declare(kEcho, {});
  net.declare(kId, {ids});
  net.declare(kPing, {});
  net.declare(kWide, {wide, wide, wide, wide});
  FaultModel model;
  model.corrupt_rate = 1.0;
  model.seed = 29;
  net.set_fault_model(model);

  std::int64_t delivered = 0;
  std::map<std::uint8_t, std::int64_t> delivered_declared;
  for (int r = 0; r < 9; ++r) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox()) {
        ++delivered;
        const auto it = declared.find(in.msg.kind);
        if (it == declared.end()) continue;
        ++delivered_declared[in.msg.kind];
        const std::vector<FieldRange>& fields = it->second;
        ASSERT_EQ(in.msg.num_fields, fields.size());
        for (std::size_t i = 0; i < fields.size(); ++i) {
          EXPECT_GE(in.msg.fields[i], fields[i].lo);
          EXPECT_LE(in.msg.fields[i], fields[i].hi);
        }
      }
      if (r == 8) return;  // read-only round: observe the last sends
      const std::int64_t v = node.id();
      switch ((v + r) % 4) {
        case 0: node.broadcast(Message{kId, {v}}); break;
        case 1: node.broadcast(Message{kPing, {}}); break;
        case 2: node.send_slot(0, Message{kPair, {v, node.neighbors()[0]}});
                break;
        default:
          node.broadcast(Message{kWide, {kBase + v, kBase, kBase + n, kBase}});
      }
    });
  }
  // Every delivery was corrupted exactly once; the discarded ones are the
  // gap between corruptions and inbox entries.
  const FaultStats& faults = net.stats().faults;
  EXPECT_EQ(faults.messages_corrupted, net.stats().messages);
  EXPECT_EQ(faults.messages_dropped, 0);
  EXPECT_GT(faults.messages_corrupted, delivered);
  // In-range payload flips still arrive, and so do kind flips onto a
  // declared kind of the same arity; a field-less or wide message never
  // arrives as itself, since its corruption always flips the kind.
  for (const std::uint8_t kind : {kPair, kId, kEcho})
    EXPECT_GT(delivered_declared[kind], 0) << static_cast<int>(kind);
  EXPECT_EQ(delivered_declared[kPing], 0);
  EXPECT_EQ(delivered_declared[kWide], 0);
}

TEST(NetworkFaults, SendsOutsideTheDeclaredDomainAreRejected) {
  Network net(graph::path_graph(4));
  net.declare(7, {{0, 3}});
  net.declare(9, {});
  const auto send = [&](const Message& m) {
    net.round([&](NodeView& node) {
      if (node.id() == 0) node.broadcast(m);
    });
  };
  EXPECT_NO_THROW(send(Message{7, {3}}));
  EXPECT_NO_THROW(send(Message{8, {-5, 6}}));  // undeclared: unchecked
  EXPECT_THROW(send(Message{7, {4}}), PreconditionViolation);
  EXPECT_THROW(send(Message{7, {1, 1}}), PreconditionViolation);
  EXPECT_THROW(send(Message{9, {0}}), PreconditionViolation);
  net.reset();  // forgets every declaration
  EXPECT_NO_THROW(send(Message{7, {4}}));
}

TEST(NetworkFaults, RoundBudgetGuardsDivergence) {
  FaultModel model;
  model.drop_rate = 0.5;
  model.seed = 1;
  Network net(graph::path_graph(4));
  net.set_fault_model(model);
  net.set_round_limit(3);
  for (int r = 0; r < 3; ++r) net.round([](NodeView&) {});
  try {
    net.round([](NodeView&) {});
    FAIL() << "round past the budget must throw";
  } catch (const PreconditionViolation& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos);
  }
}

TEST(NetworkFaults, CrashHazardIsReproducible) {
  Rng rng(11);
  const Graph g = graph::connected_gnp(24, 0.2, rng);
  FaultModel model;
  model.crash_rate = 0.05;
  model.seed = 21;
  const auto run = [&] {
    Network net(g);
    net.set_fault_model(model);
    const InboxLog log = run_broadcasts(net, 8);
    return std::pair(log, net.stats());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second.faults.nodes_crashed, 0);
}

// ------------------------------------------------------- corruption fuzz ---

// The named outcomes an adversary may legitimately force: a starved
// quiescence loop, lost pipeline tokens, an unreached BFS node, a leader
// flood that never settles.  A field-index, vertex-range or bandwidth
// contract failure is never among them — it would mean a corrupted
// payload reached a receiver outside its kind's declared domain.
bool is_adversary_outcome(const std::string& what) {
  for (const char* named :
       {"round budget of", "upcast stalled", "downcast did not deliver",
        "BFS tree did not reach", "leader flood did not converge"})
    if (what.find(named) != std::string::npos) return true;
  return false;
}

TEST(CorruptionFuzz, EveryErrorIsANamedAdversaryOutcome) {
  Rng topo(41);
  const std::vector<Graph> graphs = {
      graph::barabasi_albert(24, 2, topo), graph::barabasi_albert(40, 2, topo),
      graph::grid_graph(4, 6), graph::connected_gnp(20, 0.2, topo)};
  using Run = std::function<void(Network&, const Graph&, std::uint64_t)>;
  const std::vector<std::pair<std::string, Run>> algorithms = {
      {"mvc", [](Network& net, const Graph&, std::uint64_t) {
         core::solve_g2_mvc_congest(net, {0.25});
       }},
      {"mvc-rand", [](Network& net, const Graph&, std::uint64_t seed) {
         Rng rng(seed);
         core::solve_g2_mvc_congest_randomized(net, rng, {0.25});
       }},
      {"mvc53", [](Network& net, const Graph&, std::uint64_t) {
         core::MvcCongestConfig config;
         config.epsilon = 0.25;
         config.leader_solver = core::LeaderSolver::kFiveThirds;
         core::solve_g2_mvc_congest(net, config);
       }},
      {"mwvc", [](Network& net, const Graph& g, std::uint64_t seed) {
         Rng rng(seed);
         graph::VertexWeights w(g.num_vertices());
         for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
           w.set(v, static_cast<graph::Weight>(1 + rng.next_below(1000)));
         core::solve_g2_mwvc_congest(net, w);
       }},
      {"mwvc-unit", [](Network& net, const Graph& g, std::uint64_t) {
         core::solve_g2_mwvc_congest(net,
                                     graph::VertexWeights(g.num_vertices(), 1));
       }},
      {"mds", [](Network& net, const Graph&, std::uint64_t seed) {
         Rng rng(seed);
         core::solve_g2_mds_congest(net, rng);
       }},
      {"matching", [](Network& net, const Graph&, std::uint64_t) {
         core::solve_maximal_matching_congest(net);
       }},
      {"primitives", [](Network& net, const Graph& g, std::uint64_t) {
         net.reset();
         const BfsTree tree = build_bfs_tree(net, elect_min_id_leader(net));
         const auto n = static_cast<std::uint64_t>(g.num_vertices());
         std::vector<std::vector<std::uint64_t>> tokens(n);
         for (std::uint64_t v = 0; v < n; ++v) tokens[v] = {v * n, v};
         const auto collected = upcast_tokens(net, tree, tokens, n * n);
         downcast_tokens(net, tree, collected, n * n);
       }},
  };
  // Odd seeds run the serial engine, even ones two round workers, so the
  // parallel delivery sweep's discards are exercised too.
  int runs = 0, failures = 0;
  for (const Graph& g : graphs) {
    Network net(g);
    for (const double rate : {0.01, 0.1, 1.0})
      for (const std::uint64_t seed : {1, 2, 3})
        for (const auto& [name, run] : algorithms) {
          FaultModel model;
          model.corrupt_rate = rate;
          model.seed = seed;
          net.set_fault_model(model);
          net.set_threads(static_cast<int>(2 - seed % 2));
          ++runs;
          try {
            run(net, g, seed);
          } catch (const std::exception& e) {
            ++failures;
            EXPECT_TRUE(is_adversary_outcome(e.what()))
                << name << " rate " << rate << " seed " << seed << ": "
                << e.what();
          }
        }
  }
  // The fuzz must bite, yet not every run may end in an adversary outcome.
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, runs);
}

// Unit weights make the edge-token range the larger part of mwvc's kToken
// domain, so a bit flip in a weight token can stay inside the domain yet
// name a vertex id >= n.  Each of these runs delivers such a token to the
// leader, which must drop it rather than index its tables with it.
TEST(CorruptionFuzz, InDomainWeightTokensNamingNoVertexAreDropped) {
  Rng topo(41);
  const Graph ba = graph::barabasi_albert(24, 2, topo);
  const Graph grid = graph::grid_graph(4, 6);
  for (const auto& [g, seed] : {std::pair{&ba, std::uint64_t{71}},
                                {&grid, std::uint64_t{72}},
                                {&grid, std::uint64_t{114}}}) {
    Network net(*g);
    FaultModel model;
    model.corrupt_rate = 0.01;
    model.seed = seed;
    net.set_fault_model(model);
    net.set_threads(static_cast<int>(2 - seed % 2));
    try {
      core::solve_g2_mwvc_congest(net,
                                  graph::VertexWeights(g->num_vertices(), 1));
    } catch (const std::exception& e) {
      EXPECT_TRUE(is_adversary_outcome(e.what())) << "seed " << seed << ": "
                                                  << e.what();
    }
  }
}

// ----------------------------------------------------------- sweep layer ---

using scenario::CellResult;
using scenario::CellStatus;
using scenario::CsvWriter;
using scenario::ExecOptions;
using scenario::FaultPlan;
using scenario::JsonWriter;
using scenario::SweepSpec;

std::vector<std::string> congest_algorithm_names() {
  std::vector<std::string> names;
  for (const auto& alg : scenario::all_algorithms())
    if (alg.needs_network && !alg.hidden) names.push_back(alg.name);
  return names;
}

std::vector<CellResult> sweep_rows(const SweepSpec& spec,
                                   const ExecOptions& opts = {}) {
  std::vector<CellResult> rows;
  scenario::run_sweep_stream(
      spec, [&](const CellResult& row) { rows.push_back(row); }, opts);
  return rows;
}

// The fields a fault-free adversary must not perturb (everything the
// report serializes except the fault-accounting block).
void expect_core_fields_equal(const CellResult& a, const CellResult& b,
                              const std::string& where) {
  EXPECT_EQ(a.status, b.status) << where;
  EXPECT_EQ(a.solution_size, b.solution_size) << where;
  EXPECT_EQ(a.solution_weight, b.solution_weight) << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.exact, b.exact) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.error, b.error) << where;
}

TEST(SweepFaults, InertPlanLeavesEveryAdapterRowUnchanged) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = congest_algorithm_names();
  ASSERT_GE(spec.algorithms.size(), 5u);
  spec.sizes = {24};
  spec.exact_baseline_max_n = 0;
  const std::vector<CellResult> plain = sweep_rows(spec);

  // Enabled (so every fault branch is live) but nothing ever fires: the
  // single crash entry names a node far outside every topology.
  const FaultPlan plan = FaultPlan::parse("crash@900000:900000000");
  ASSERT_TRUE(plan.has_net_faults());
  for (const int threads : {1, 2, 4}) {
    SweepSpec threaded = spec;
    threaded.congest_threads = threads;
    ExecOptions opts;
    opts.fault_plan = &plan;
    const std::vector<CellResult> rows = sweep_rows(threaded, opts);
    ASSERT_EQ(rows.size(), plain.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string where = "cell " + std::to_string(i) + " threads " +
                                std::to_string(threads);
      expect_core_fields_equal(rows[i], plain[i], where);
      EXPECT_EQ(rows[i].status, CellStatus::kOk) << where;
      EXPECT_EQ(rows[i].msgs_dropped, 0) << where;
      EXPECT_EQ(rows[i].msgs_corrupted, 0) << where;
      EXPECT_EQ(rows[i].nodes_crashed, 0) << where;
      EXPECT_GT(rows[i].rounds_survived, 0) << where;
    }
  }
}

std::string faulty_sweep_csv(const SweepSpec& spec, const FaultPlan& plan) {
  std::ostringstream out;
  CsvWriter writer(out, false, false, /*faults=*/true);
  writer.begin(spec, scenario::count_grid_cells(spec));
  ExecOptions opts;
  opts.fault_plan = &plan;
  scenario::run_sweep_stream(
      spec, [&](const CellResult& row) { writer.row(row); }, opts);
  return out.str();
}

TEST(SweepFaults, AdversarialRowsDeterministicAcrossThreadsAndShards) {
  SweepSpec spec;
  spec.scenarios = {"ba", "geo-torus"};
  spec.algorithms = {"mds", "mvc", "matching"};
  spec.sizes = {20, 24};
  spec.seeds = {1, 2};
  spec.exact_baseline_max_n = 0;
  const FaultPlan plan = FaultPlan::parse("drop=0.03,corrupt=0.02,net-seed=7");

  ExecOptions opts;
  opts.fault_plan = &plan;
  const std::vector<CellResult> base = sweep_rows(spec, opts);
  std::int64_t dropped = 0;
  for (const CellResult& row : base) dropped += row.msgs_dropped;
  EXPECT_GT(dropped, 0) << "the plan was expected to actually bite";

  for (const int threads : {2, 4}) {
    SweepSpec threaded = spec;
    threaded.congest_threads = threads;
    const std::vector<CellResult> rows = sweep_rows(threaded, opts);
    ASSERT_EQ(rows.size(), base.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string where = "cell " + std::to_string(i) + " threads " +
                                std::to_string(threads);
      expect_core_fields_equal(rows[i], base[i], where);
      EXPECT_EQ(rows[i].msgs_dropped, base[i].msgs_dropped) << where;
      EXPECT_EQ(rows[i].msgs_corrupted, base[i].msgs_corrupted) << where;
      EXPECT_EQ(rows[i].nodes_crashed, base[i].nodes_crashed) << where;
      EXPECT_EQ(rows[i].rounds_survived, base[i].rounds_survived) << where;
    }
  }

  // A 2-shard split under the same plan merges back byte-identically.
  const std::string whole = faulty_sweep_csv(spec, plan);
  std::vector<std::string> shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = spec;
    shard.shard_index = i;
    shard.shard_count = 2;
    shards.push_back(faulty_sweep_csv(shard, plan));
  }
  EXPECT_EQ(scenario::merge_csv(shards), whole);
  EXPECT_EQ(scenario::merge_csv({shards[1], shards[0]}), whole);
}

TEST(SweepFaults, CorruptedPayloadsNeverReachRangeChecks) {
  // Regression: a flipped bit in the leader election's kMinId payload used
  // to flood an out-of-range id into build_bfs_tree, failing cells with
  // "vertex id out of range" instead of a named adversary outcome.
  //   sweep --scenarios grid,ba --algorithms mvc,matching,mds --sizes 24
  //         --seeds 1,2,3 --fault-plan drop=0.02,corrupt=0.01
  SweepSpec found;
  found.scenarios = {"grid", "ba"};
  found.algorithms = {"mvc", "matching", "mds"};
  found.sizes = {24};
  found.seeds = {1, 2, 3};
  found.exact_baseline_max_n = 0;
  // The same failure hit chung-lu mvc53 and mwvc at n = 40 under
  // corruption alone.
  SweepSpec golden;
  golden.scenarios = {"ba", "chung-lu"};
  golden.algorithms = {"mds", "matching", "mvc", "mvc53", "mvc-rand", "mwvc"};
  golden.sizes = {40};
  golden.epsilons = {0.5};
  golden.weightings = {"zipf"};
  golden.exact_baseline_max_n = 0;
  const std::vector<std::pair<SweepSpec, std::string>> cases = {
      {found, "drop=0.02,corrupt=0.01"}, {golden, "corrupt=0.01"}};
  for (const auto& [spec, text] : cases) {
    const FaultPlan plan = FaultPlan::parse(text);
    ExecOptions opts;
    opts.fault_plan = &plan;
    for (const CellResult& row : sweep_rows(spec, opts))
      EXPECT_EQ(row.error.find("out of range"), std::string::npos)
          << text << " cell " << row.cell_index << ": " << row.error;
  }
}

TEST(SweepFaults, ZeroRatePlanIsByteIdenticalToNoPlan) {
  // "drop=0" parses but arms nothing: no model is installed, no fault
  // columns appear, and the report bytes match a plan-free run exactly.
  const FaultPlan plan = FaultPlan::parse("drop=0");
  EXPECT_FALSE(plan.has_net_faults());

  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mds", "mvc"};
  spec.sizes = {20};
  spec.exact_baseline_max_n = 0;
  const auto csv = [&](const ExecOptions& opts) {
    std::ostringstream out;
    CsvWriter writer(out);
    writer.begin(spec, scenario::count_grid_cells(spec));
    scenario::run_sweep_stream(
        spec, [&](const CellResult& row) { writer.row(row); }, opts);
    return out.str();
  };
  ExecOptions with_plan;
  with_plan.fault_plan = &plan;
  EXPECT_EQ(csv(with_plan), csv({}));
}

TEST(SweepFaults, FaultyJsonShardsMergeByteIdentically) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mvc", "matching"};
  spec.sizes = {20, 24};
  spec.exact_baseline_max_n = 0;
  const FaultPlan plan = FaultPlan::parse("drop=0.05,net-seed=11");
  const auto json = [&](const SweepSpec& s) {
    std::ostringstream out;
    JsonWriter writer(out, false, /*certify=*/true, /*faults=*/true);
    writer.begin(s, scenario::count_grid_cells(s));
    ExecOptions opts;
    opts.fault_plan = &plan;
    opts.certify = true;
    scenario::run_sweep_stream(
        s, [&](const CellResult& row) { writer.row(row); }, opts);
    writer.end();
    return out.str();
  };
  const std::string whole = json(spec);
  std::vector<std::string> shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = spec;
    shard.shard_index = i;
    shard.shard_count = 2;
    shards.push_back(json(shard));
  }
  EXPECT_EQ(scenario::merge_json(shards), whole);
}

}  // namespace
}  // namespace pg::congest
