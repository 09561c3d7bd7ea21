// pg_replay — the benchmark's in-process companion to `powergraph_cli sweep`.
//
// Modes (first argument):
//   gen     write the implicit-file workload's input: graph::chung_lu drawn
//           from --seed, left unlinked (hence disconnected), as SNAP-style
//           text with a comment header and sparse, gapped vertex ids.
//   setup   time the sweep's set-up calls only, untraced: topology (scenario
//           build, or import + write + map of a file), comm-power
//           materialization, simulator binds, and weighting builds.  Repeats
//           whole passes and prints the median pass.
//   replay  re-run the sweep cell by cell through the library's public
//           entry points, in the runner's order and with the runner's
//           caching, with a span around every layer call.  Writes the same
//           CSV report the CLI writes (so the caller can byte-compare the
//           two) and a Chrome trace-event file, and prints per-layer self
//           times and counts as one JSON object.
//   exec    run a command as a child and record its wall time, CPU time
//           and peak RSS (see cmd_exec for why this is not done in Python).
//   info    print the compiler and build type this binary was built with.
//
// The replay mirrors scenario::run_sweep_stream's single-worker path
// (runner.cpp: GroupContext, execute_cell, run_group): one topology group
// at a time, comm powers and simulators cached per group, simulators
// recycled across groups by topology size, baselines cached per (problem,
// r[, weighting]).  It does not mirror watchdogs, journals, isolation or
// fault plans, which the benchmark's workloads leave off.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <cerrno>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "congest/network.hpp"
#include "graph/classify.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/power.hpp"
#include "graph/power_view.hpp"
#include "graph/storage.hpp"
#include "scenario/algorithms.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/weights.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"
#include "util/rng.hpp"

#ifndef PG_BENCH_BUILD_TYPE
#define PG_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pg;
using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;
using scenario::Algorithm;
using scenario::BaselineKind;
using scenario::CellResult;
using scenario::CellSpec;
using scenario::Problem;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written at exit.
// A disabled tracer reads no clock, so the set-up pass stays untraced.
// ---------------------------------------------------------------------------

struct Span {
  std::string_view name;  // always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  // False for work the CLI does in a separate process (the `import` step),
  // so it does not count against the sweep process's wall time.
  bool in_sweep = true;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::int32_t open(std::string_view name, bool in_sweep = true) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                      in_sweep});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, bool in_sweep = true)
      : tracer_(tracer), id_(tracer.open(name, in_sweep)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Counts recorded at the same layer boundaries as the spans.
struct Counters {
  std::int64_t rows = 0;
  std::int64_t rounds = 0;
  std::int64_t congest_algorithm_ns = 0;  // algorithm time of cells with rounds
  std::int64_t exact_calls = 0;
  std::int64_t greedy_calls = 0;
  std::int64_t power_edges = 0;
  std::int64_t binds = 0;  // simulator constructions + pooled rebinds
  std::int64_t max_buffer_bytes = 0;
  std::int64_t import_edges = 0;
  std::int64_t report_bytes = 0;
};

// ---------------------------------------------------------------------------
// The runner's per-group state, with a span around each layer call.
// ---------------------------------------------------------------------------

/// Per-worker simulator recycling keyed by topology size, with the
/// runner's retention caps.
class NetworkPool {
 public:
  std::unique_ptr<congest::Network> acquire(GraphView topology,
                                            Counters& counters) {
    ++counters.binds;
    auto it = by_n_.find(topology.num_vertices());
    if (it != by_n_.end() && !it->second.empty()) {
      std::unique_ptr<congest::Network> net = std::move(it->second.back());
      it->second.pop_back();
      --total_;
      net->reset(topology);
      return net;
    }
    return std::make_unique<congest::Network>(topology);
  }

  void release(std::unique_ptr<congest::Network> net) {
    auto& bucket = by_n_[net->topology().num_vertices()];
    if (total_ >= kMaxPooled || bucket.size() >= kMaxPerSize) return;
    bucket.push_back(std::move(net));
    ++total_;
  }

 private:
  static constexpr std::size_t kMaxPooled = 8;
  static constexpr std::size_t kMaxPerSize = 4;
  std::map<VertexId, std::vector<std::unique_ptr<congest::Network>>> by_n_;
  std::size_t total_ = 0;
};

class Group {
 public:
  Group(GraphView base, NetworkPool& pool, int congest_threads,
        Tracer& tracer, Counters& counters)
      : base_(base),
        pool_(pool),
        congest_threads_(congest_threads),
        tracer_(tracer),
        counters_(counters) {}

  ~Group() {
    for (auto& [power, net] : nets_) pool_.release(std::move(net));
  }
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  GraphView base() const { return base_; }

  const graph::DegreeClassification& classification() {
    if (!classification_) {
      Scope span(tracer_, "graph.classify");
      classification_ = graph::classify_degree_distribution(base_);
    }
    return *classification_;
  }

  GraphView power_of(int k) {
    if (k == 1) return base_;
    auto it = powers_.find(k);
    if (it == powers_.end()) {
      Scope span(tracer_, "graph.power");
      it = powers_.emplace(k, graph::power(base_, k, 0)).first;
      counters_.power_edges +=
          static_cast<std::int64_t>(it->second.num_edges());
    }
    return it->second;
  }

  const Graph* materialized(int r) const {
    const auto it = powers_.find(r);
    return it == powers_.end() ? nullptr : &it->second;
  }

  std::size_t target_edges(int r) {
    if (r == 1) return base_.num_edges();
    if (const Graph* target = materialized(r)) return target->num_edges();
    auto [it, fresh] = edge_counts_.try_emplace(r, 0);
    if (fresh) {
      Scope span(tracer_, "graph.target_edges");
      it->second = graph::PowerView(base_, r).num_edges();
    }
    return it->second;
  }

  bool feasible_on_target(Problem problem, int r, const VertexSet& s) {
    Scope span(tracer_, "graph.feasibility");
    if (r == 1)
      return problem == Problem::kVertexCover
                 ? graph::is_vertex_cover(base_, s)
                 : graph::is_dominating_set(base_, s);
    if (const Graph* target = materialized(r))
      return problem == Problem::kVertexCover
                 ? graph::is_vertex_cover(*target, s)
                 : graph::is_dominating_set(*target, s);
    return problem == Problem::kVertexCover
               ? graph::is_vertex_cover_power(base_, r, s)
               : graph::is_dominating_set_power(base_, r, s);
  }

  congest::Network& net_of(int k) {
    auto it = nets_.find(k);
    if (it == nets_.end()) {
      const GraphView topology = power_of(k);
      Scope span(tracer_, "congest.bind");
      std::unique_ptr<congest::Network> net =
          pool_.acquire(topology, counters_);
      net->set_threads(congest_threads_);
      counters_.max_buffer_bytes =
          std::max(counters_.max_buffer_bytes,
                   static_cast<std::int64_t>(net->buffer_bytes()));
      it = nets_.emplace(k, std::move(net)).first;
    }
    return *it->second;
  }

  const VertexWeights& weights_of(const std::string& weighting,
                                  std::uint64_t seed) {
    auto it = weights_.find(weighting);
    if (it == weights_.end()) {
      Scope span(tracer_, "scenario.weights");
      const scenario::Weighting w = scenario::weighting_or_throw(weighting);
      it = weights_.emplace(weighting, w.build(base_, seed)).first;
    }
    return it->second;
  }

  struct Baseline {
    BaselineKind kind = BaselineKind::kNone;
    std::size_t size = 0;
  };
  struct WeightedBaseline {
    BaselineKind kind = BaselineKind::kNone;
    Weight weight = 0;
  };

  const Baseline& baseline_of(Problem problem, int r, VertexId exact_max_n) {
    const auto key = std::make_pair(static_cast<int>(problem), r);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;

    Scope span(tracer_, "solvers.baseline");
    Baseline b;
    if (exact_max_n > 0) {
      const VertexId n = base_.num_vertices();
      bool solved = false;
      if (n <= exact_max_n) {
        ++counters_.exact_calls;
        const Graph local_power = r == 1 ? Graph() : graph::power(base_, r);
        const GraphView target = r == 1 ? base_ : GraphView(local_power);
        const auto exact = problem == Problem::kVertexCover
                               ? solvers::solve_mvc(target)
                               : solvers::solve_mds(target);
        if (exact.optimal) {
          b.kind = BaselineKind::kExact;
          b.size = exact.solution.size();
          solved = true;
        }
      }
      if (!solved) {
        ++counters_.greedy_calls;
        if (problem == Problem::kVertexCover) {
          b.size = r == 1 ? solvers::local_ratio_mwvc(
                                base_, VertexWeights(n, 1)).size()
                          : solvers::local_ratio_mvc_power(base_, r).size();
        } else {
          b.size = r == 1 ? solvers::greedy_mds(base_).size()
                          : solvers::greedy_mds_power(base_, r).size();
        }
        b.kind = BaselineKind::kGreedy;
      }
    }
    return baselines_.emplace(key, b).first->second;
  }

  const WeightedBaseline& weighted_baseline_of(Problem problem, int r,
                                               const std::string& weighting,
                                               std::uint64_t seed,
                                               VertexId exact_max_n) {
    const auto key = std::make_tuple(static_cast<int>(problem), r, weighting);
    auto it = weighted_baselines_.find(key);
    if (it != weighted_baselines_.end()) return it->second;

    WeightedBaseline b;
    if (weighting == "unit") {
      const Baseline& unit = baseline_of(problem, r, exact_max_n);
      b.kind = unit.kind;
      b.weight = static_cast<Weight>(unit.size);
    } else if (exact_max_n > 0) {
      const VertexWeights& w = weights_of(weighting, seed);
      Scope span(tracer_, "solvers.baseline");
      const VertexId n = base_.num_vertices();
      bool solved = false;
      if (n <= exact_max_n) {
        ++counters_.exact_calls;
        const Graph local_power = r == 1 ? Graph() : graph::power(base_, r);
        const GraphView target = r == 1 ? base_ : GraphView(local_power);
        const auto exact = problem == Problem::kVertexCover
                               ? solvers::solve_mwvc(target, w)
                               : solvers::solve_mwds(target, w);
        if (exact.optimal) {
          b.kind = BaselineKind::kExact;
          b.weight = exact.value;
          solved = true;
        }
      }
      if (!solved) {
        ++counters_.greedy_calls;
        VertexSet reference;
        if (problem == Problem::kVertexCover)
          reference = r == 1 ? solvers::local_ratio_mwvc(base_, w)
                             : solvers::local_ratio_mwvc_power(base_, r, w);
        else
          reference = r == 1 ? solvers::greedy_mwds(base_, w)
                             : solvers::greedy_mwds_power(base_, r, w);
        b.kind = BaselineKind::kGreedy;
        b.weight = w.total_of(reference.to_vector());
      }
    }
    return weighted_baselines_.emplace(key, b).first->second;
  }

 private:
  GraphView base_;
  NetworkPool& pool_;
  int congest_threads_;
  Tracer& tracer_;
  Counters& counters_;
  std::optional<graph::DegreeClassification> classification_;
  std::map<int, Graph> powers_;
  std::map<int, std::size_t> edge_counts_;
  std::map<int, std::unique_ptr<congest::Network>> nets_;
  std::map<std::pair<int, int>, Baseline> baselines_;
  std::map<std::string, VertexWeights> weights_;
  std::map<std::tuple<int, int, std::string>, WeightedBaseline>
      weighted_baselines_;
};

/// One cell, in execute_cell's order of calls.
CellResult replay_cell(const CellSpec& spec, std::uint64_t cell_index,
                       Group& group, VertexId exact_max_n, bool certify,
                       Tracer& tracer, Counters& counters) {
  CellResult out;
  out.spec = spec;
  out.cell_index = cell_index;
  const Algorithm& alg = scenario::algorithm_or_throw(spec.algorithm);
  out.spec.weights_used = alg.uses_weights;
  if (!alg.uses_weights) out.spec.weighting = "unit";
  const int k = scenario::comm_power(alg, spec.r);
  const GraphView comm = group.power_of(k);
  out.base_edges = group.base().num_edges();
  out.comm_power = k;
  out.comm_edges = comm.num_edges();
  out.target_edges = group.target_edges(spec.r);
  const graph::DegreeClassification& regime = group.classification();
  out.regime = graph::regime_name(regime.regime);
  out.regime_alpha = regime.alpha;

  const std::string& weighting = out.spec.weighting;
  const bool unit_weighting = weighting == "unit";
  const VertexWeights* weights =
      unit_weighting ? nullptr : &group.weights_of(weighting, spec.seed);

  scenario::AlgorithmContext ctx;
  ctx.base = group.base();
  ctx.comm = comm;
  ctx.net = alg.needs_network ? &group.net_of(k) : nullptr;
  ctx.r = spec.r;
  ctx.epsilon = spec.epsilon;
  ctx.weights = alg.uses_weights ? weights : nullptr;
  ctx.seed = scenario::mix_seed(spec.seed, spec.scenario + "/n" +
                                               std::to_string(spec.n) + "/r" +
                                               std::to_string(spec.r));

  scenario::RunOutcome outcome;
  {
    const std::int64_t started = now_ns();
    Scope span(tracer, "core.algorithm");
    outcome = alg.run(ctx);
    if (outcome.rounds > 0) counters.congest_algorithm_ns += now_ns() - started;
  }
  out.solution = std::move(outcome.solution);
  out.solution_size = out.solution.size();
  out.rounds = outcome.rounds;
  out.messages = outcome.messages;
  out.total_bits = outcome.total_bits;
  out.exact = outcome.exact;
  counters.rounds += out.rounds;
  out.feasible = group.feasible_on_target(alg.problem, spec.r, out.solution);
  out.solution_weight = unit_weighting
                            ? static_cast<Weight>(out.solution_size)
                            : weights->total_of(out.solution.to_vector());

  const auto& baseline = group.baseline_of(alg.problem, spec.r, exact_max_n);
  out.baseline = baseline.kind;
  out.baseline_size = baseline.size;
  if (baseline.kind != BaselineKind::kNone)
    out.ratio = baseline.size == 0 ? (out.solution_size == 0 ? 1.0 : 0.0)
                                   : static_cast<double>(out.solution_size) /
                                         static_cast<double>(baseline.size);
  const auto& weighted = group.weighted_baseline_of(
      alg.problem, spec.r, weighting, spec.seed, exact_max_n);
  out.weight_baseline = weighted.kind;
  out.baseline_weight = weighted.weight;
  if (weighted.kind != BaselineKind::kNone)
    out.ratio_weight = weighted.weight == 0
                           ? (out.solution_weight == 0 ? 1.0 : 0.0)
                           : static_cast<double>(out.solution_weight) /
                                 static_cast<double>(weighted.weight);

  if (certify) {
    Scope span(tracer, "scenario.certify");
    const GraphView base = group.base();
    const bool cert_feasible =
        alg.problem == Problem::kVertexCover
            ? (spec.r == 1 ? graph::is_vertex_cover(base, out.solution)
                           : graph::is_vertex_cover_power(base, spec.r,
                                                          out.solution))
            : (spec.r == 1 ? graph::is_dominating_set(base, out.solution)
                           : graph::is_dominating_set_power(base, spec.r,
                                                            out.solution));
    std::string verdict;
    if (!cert_feasible) {
      verdict = "certify: solution is not feasible on G^r";
    } else if (out.baseline == BaselineKind::kExact && unit_weighting) {
      const double bound = scenario::published_ratio_bound(alg, spec.epsilon);
      if (out.exact && out.solution_size != out.baseline_size)
        verdict = "certify: exactness claim contradicted (got " +
                  std::to_string(out.solution_size) + ", optimum " +
                  std::to_string(out.baseline_size) + ")";
      else if (bound > 0.0 && out.ratio > bound + 1e-9)
        verdict = "certify: ratio " + std::to_string(out.ratio) +
                  " exceeds published bound " + std::to_string(bound);
    }
    if (!verdict.empty()) {
      out.status = scenario::CellStatus::kUnverified;
      out.error = std::move(verdict);
    }
  }
  out.solution = VertexSet();  // sweeps report sizes, not sets
  return out;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string mode;
  scenario::SweepSpec spec;
  bool certify = false;
  std::string csv_path;    // replay: report to write
  std::string trace_path;  // replay: Chrome trace-event file
  std::string import_path; // SNAP text imported into the file: scenario
  // gen
  VertexId gen_n = 0;
  std::uint64_t gen_seed = 1;
  std::string out_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pg_replay: " << why
            << "\nusage: pg_replay gen --n N --seed S --out FILE\n"
               "       pg_replay (setup|replay) <sweep flags> [--certify]\n"
               "                 [--import SNAP.txt] [--csv OUT] [--trace "
               "OUT.json]\n"
               "       pg_replay exec --result FILE -- CMD...\n"
               "       pg_replay info\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  o.spec.sizes.clear();
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("flag ") + argv[i] + " needs a value");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scenarios") {
      o.spec.scenarios = split(value(i));
    } else if (flag == "--algorithms") {
      o.spec.algorithms = split(value(i));
    } else if (flag == "--sizes") {
      for (const auto& s : split(value(i)))
        o.spec.sizes.push_back(static_cast<VertexId>(std::stol(s)));
    } else if (flag == "--powers") {
      o.spec.powers.clear();
      for (const auto& s : split(value(i)))
        o.spec.powers.push_back(std::stoi(s));
    } else if (flag == "--epsilons") {
      o.spec.epsilons.clear();
      for (const auto& s : split(value(i)))
        o.spec.epsilons.push_back(std::stod(s));
    } else if (flag == "--weights") {
      o.spec.weightings.clear();
      for (const auto& s : split(value(i)))
        o.spec.weightings.push_back(scenario::weighting_or_throw(s).name);
    } else if (flag == "--seeds") {
      o.spec.seeds.clear();
      for (const auto& s : split(value(i)))
        o.spec.seeds.push_back(std::stoull(s));
    } else if (flag == "--threads") {
      o.spec.threads = std::stoi(value(i));
    } else if (flag == "--congest-threads") {
      o.spec.congest_threads = std::stoi(value(i));
    } else if (flag == "--certify") {
      o.certify = true;
    } else if (flag == "--csv") {
      o.csv_path = value(i);
    } else if (flag == "--trace") {
      o.trace_path = value(i);
    } else if (flag == "--import") {
      o.import_path = value(i);
    } else if (flag == "--n") {
      o.gen_n = static_cast<VertexId>(std::stol(value(i)));
    } else if (flag == "--seed") {
      o.gen_seed = std::stoull(value(i));
    } else if (flag == "--out") {
      o.out_path = value(i);
    } else {
      usage("unknown flag " + flag);
    }
  }
  return o;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// The implicit-file workload's input: Chung-Lu (exponent 2.5, average
/// degree 4) without the registry scenario's component linking, so the
/// graph is disconnected like most real ones.  Ids are strictly increasing
/// with random gaps (sparse, never 0-based dense), each edge appears once
/// in a random orientation, and a '#' header precedes the pairs.
int cmd_gen(const Options& o) {
  if (o.gen_n < 2 || o.out_path.empty()) usage("gen needs --n >= 2 and --out");
  Rng rng(scenario::mix_seed(o.gen_seed, "perfbench/implicit-file"));
  const Graph g = graph::chung_lu(o.gen_n, 2.5, 4.0, rng);
  std::vector<std::uint64_t> id(static_cast<std::size_t>(g.num_vertices()));
  std::uint64_t next = 1 + rng.next_below(16);
  for (auto& x : id) {
    x = next;
    next += 1 + rng.next_below(7);
  }
  std::ofstream out(o.out_path, std::ios::binary);
  if (!out) usage("cannot open " + o.out_path);
  out << "# Undirected graph: Chung-Lu exponent 2.5 average degree 4, seed "
      << o.gen_seed << "\n# Nodes: " << g.num_vertices()
      << " Edges: " << g.num_edges() << "\n# FromNodeId\tToNodeId\n";
  std::int64_t touched = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) > 0) ++touched;
    for (VertexId v : g.neighbors(u)) {
      if (v <= u) continue;
      const bool flip = rng.next_below(2) == 1;
      out << id[static_cast<std::size_t>(flip ? v : u)] << '\t'
          << id[static_cast<std::size_t>(flip ? u : v)] << '\n';
    }
  }
  out.close();
  if (!out) usage("write failed: " + o.out_path);
  std::printf("{\"vertices\": %lld, \"edges\": %zu}\n",
              static_cast<long long>(touched), g.num_edges());
  return 0;
}

/// Topology of one group, held for the group's lifetime: an owned
/// generated graph or a mapped `.pgcsr` file.
struct Topology {
  Graph owned;
  std::optional<graph::MappedGraph> mapped;
  GraphView view() const { return mapped ? mapped->view() : GraphView(owned); }
};

Topology build_topology(const CellSpec& head, const Options& o, Tracer& tracer,
                        Counters& counters) {
  Topology t;
  if (scenario::is_file_scenario(head.scenario)) {
    const std::string path = scenario::file_scenario_path(head.scenario);
    if (!o.import_path.empty()) {
      // What `powergraph_cli import` does, in its own process before the
      // sweep: not part of the sweep's wall time.
      graph::ImportResult imported;
      {
        Scope span(tracer, "graph.import", /*in_sweep=*/false);
        std::ifstream in(o.import_path, std::ios::binary);
        if (!in) throw std::runtime_error("cannot read " + o.import_path);
        imported = graph::import_edge_list(in);
      }
      counters.import_edges +=
          static_cast<std::int64_t>(imported.graph.num_edges());
      Scope span(tracer, "graph.write_pgcsr", /*in_sweep=*/false);
      graph::write_pgcsr_file(imported.graph, path);
    }
    Scope span(tracer, "graph.map");
    t.mapped = graph::MappedGraph::open(path);
    if (t.mapped->num_vertices() != head.n)
      throw std::runtime_error(head.scenario + " has n=" +
                               std::to_string(t.mapped->num_vertices()) +
                               ", the grid requests " + std::to_string(head.n));
  } else {
    Scope span(tracer, "graph.build");
    const scenario::Scenario& scenario =
        scenario::scenario_or_throw(head.scenario);
    t.owned = scenario.build(head.n, head.seed);
#if defined(__GLIBC__)
    ::malloc_trim(0);  // as the runner does after every generator build
#endif
  }
  return t;
}

/// Set-up calls only, untraced; prints the median pass.  A single pass is
/// tens of milliseconds, mostly noise, so passes repeat until at least
/// kMinPasses have run and kMinSeconds have passed (at most kMaxPasses).
int cmd_setup(const Options& o) {
  constexpr int kMinPasses = 5;
  constexpr int kMaxPasses = 200;
  constexpr double kMinSeconds = 1.0;
  scenario::validate_spec(o.spec);
  const std::size_t groups = scenario::count_topology_groups(o.spec);
  Tracer off(false);
  std::vector<double> passes;
  double total = 0.0;
  while (static_cast<int>(passes.size()) < kMaxPasses &&
         (static_cast<int>(passes.size()) < kMinPasses ||
          total < kMinSeconds)) {
    const auto started = Clock::now();
    Counters counters;
    NetworkPool pool;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::vector<CellSpec> cells =
          scenario::topology_group_cells(o.spec, g);
      const Topology topology = build_topology(cells.front(), o, off, counters);
      Group group(topology.view(), pool, o.spec.congest_threads, off, counters);
      for (const CellSpec& cell : cells) {
        const Algorithm& alg = scenario::algorithm_or_throw(cell.algorithm);
        const int k = scenario::comm_power(alg, cell.r);
        group.power_of(k);
        if (alg.needs_network) group.net_of(k);
        if (alg.uses_weights && cell.weighting != "unit")
          group.weights_of(cell.weighting, cell.seed);
      }
    }
    const double s =
        std::chrono::duration<double>(Clock::now() - started).count();
    passes.push_back(s);
    total += s;
  }
  std::vector<double> sorted = passes;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t m = sorted.size();
  const double median =
      m % 2 ? sorted[m / 2] : 0.5 * (sorted[m / 2 - 1] + sorted[m / 2]);
  std::printf("{\"setup_s\": %.9f, \"passes\": %zu}\n", median, m);
  return 0;
}

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%.*s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 i ? ",\n" : "", static_cast<int>(s.name.size()),
                 s.name.data(), s.in_sweep ? "sweep" : "import",
                 (s.start_ns - origin_ns) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

int cmd_replay(const Options& o) {
  if (o.csv_path.empty()) usage("replay needs --csv");
  if (o.spec.threads != 1) usage("replay mirrors the single-worker sweep only");
  scenario::validate_spec(o.spec);
  Tracer tracer(true);
  Counters counters;
  const std::int64_t origin = now_ns();
  {
    Scope root(tracer, "replay");
    std::ofstream csv_file(o.csv_path, std::ios::binary);
    if (!csv_file) usage("cannot open " + o.csv_path);
    bool classify = false;
    for (const std::string& s : o.spec.scenarios)
      classify = classify || scenario::is_file_scenario(s);
    scenario::CsvWriter csv(csv_file, /*include_timing=*/false, o.certify,
                            /*faults=*/false, classify);
    {
      Scope span(tracer, "scenario.report");
      csv.begin(o.spec, scenario::count_grid_cells(o.spec));
    }
    NetworkPool pool;
    const std::size_t groups = scenario::count_topology_groups(o.spec);
    for (std::size_t g = 0; g < groups; ++g) {
      Scope group_span(tracer, "group");
      const std::vector<CellSpec> cells =
          scenario::topology_group_cells(o.spec, g);
      const Topology topology =
          build_topology(cells.front(), o, tracer, counters);
      Group group(topology.view(), pool, o.spec.congest_threads, tracer,
                  counters);
      for (std::size_t j = 0; j < cells.size(); ++j) {
        Scope cell_span(tracer, "cell");
        const CellResult row =
            replay_cell(cells[j], g * cells.size() + j, group,
                        o.spec.exact_baseline_max_n, o.certify, tracer,
                        counters);
        Scope span(tracer, "scenario.report");
        csv.row(row);
        ++counters.rows;
      }
    }
    Scope span(tracer, "scenario.report");
    csv_file.flush();
    counters.report_bytes = static_cast<std::int64_t>(csv_file.tellp());
    csv_file.close();
    if (!csv_file) throw std::runtime_error("cannot write " + o.csv_path);
  }

  // Self time per span name: duration minus the part its children cover.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  std::map<std::string_view, std::int64_t> self_ns;
  std::int64_t sweep_layers_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[spans[i].name] += self[i];
    const bool structural = spans[i].name == "replay" ||
                            spans[i].name == "group" || spans[i].name == "cell";
    if (spans[i].in_sweep && !structural) sweep_layers_ns += self[i];
  }
  if (!o.trace_path.empty()) write_trace(o.trace_path, spans, origin);

  std::printf("{\"spans\": %zu, \"sweep_layers_s\": %.9f, \"self_s\": {",
              spans.size(), sweep_layers_ns / 1e9);
  bool first = true;
  for (const auto& [name, ns] : self_ns) {
    std::printf("%s\"%.*s\": %.9f", first ? "" : ", ",
                static_cast<int>(name.size()), name.data(), ns / 1e9);
    first = false;
  }
  const Counters& c = counters;
  std::printf(
      "}, \"counts\": {\"rows\": %lld, \"rounds\": %lld, "
      "\"congest_algorithm_s\": %.9f, \"exact_calls\": %lld, "
      "\"greedy_calls\": %lld, \"power_edges\": %lld, \"binds\": %lld, "
      "\"max_buffer_bytes\": %lld, \"import_edges\": %lld, "
      "\"report_bytes\": %lld}}\n",
      static_cast<long long>(c.rows), static_cast<long long>(c.rounds),
      c.congest_algorithm_ns / 1e9, static_cast<long long>(c.exact_calls),
      static_cast<long long>(c.greedy_calls),
      static_cast<long long>(c.power_edges), static_cast<long long>(c.binds),
      static_cast<long long>(c.max_buffer_bytes),
      static_cast<long long>(c.import_edges),
      static_cast<long long>(c.report_bytes));
  return 0;
}

/// `exec --result FILE -- CMD...`: runs CMD as a child of this small
/// process and writes its wall time, CPU time and peak RSS as JSON.  The
/// benchmark launches every timed process through here because Linux
/// carries a parent's resident high-water mark into a forked child's
/// ru_maxrss, and run.py's is larger than a small sweep's.
int cmd_exec(int argc, char** argv) {
  if (argc < 6 || std::string(argv[2]) != "--result" ||
      std::string(argv[4]) != "--")
    usage("exec needs --result FILE -- CMD...");
  const std::string result_path = argv[3];
  const auto started = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::execvp(argv[5], argv + 5);
    std::perror("pg_replay exec");
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage_stats {};
  while (::wait4(pid, &status, 0, &usage_stats) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - started).count();
  const timeval& user = usage_stats.ru_utime;
  const timeval& sys = usage_stats.ru_stime;
  const double cpu = static_cast<double>(user.tv_sec + sys.tv_sec) +
                     static_cast<double>(user.tv_usec + sys.tv_usec) / 1e6;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* f = std::fopen(result_path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + result_path);
  std::fprintf(f,
               "{\"wall_s\": %.9f, \"cpu_s\": %.6f, \"peak_rss_mb\": %.6f, "
               "\"returncode\": %d}\n",
               wall, cpu, static_cast<double>(usage_stats.ru_maxrss) / 1024.0,
               code);
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write " + result_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "exec") return cmd_exec(argc, argv);
    const Options o = parse(argc, argv);
    if (o.mode == "gen") return cmd_gen(o);
    if (o.mode == "setup") return cmd_setup(o);
    if (o.mode == "replay") return cmd_replay(o);
    if (o.mode == "info") {
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                  __VERSION__, PG_BENCH_BUILD_TYPE);
      return 0;
    }
    usage("unknown mode '" + o.mode + "'");
  } catch (const std::exception& error) {
    std::cerr << "pg_replay: " << error.what() << "\n";
    return 1;
  }
}
