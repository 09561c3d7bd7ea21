// The ownership-agnostic storage layer end to end: `.pgcsr` round-trips,
// strict rejection of corrupted/truncated/version-skewed files, the
// SNAP-style importer against a committed golden fixture, the
// degree-regime classifier, and — the property the layer exists for —
// byte-identical sweep metrics whether a topology is generated in memory
// or mmap'd from a file.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/classify.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"
#include "scenario/journal.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace pg::graph {
namespace {

using pg::scenario::CellResult;
using pg::scenario::CellStatus;
using pg::scenario::SweepResult;
using pg::scenario::SweepSpec;

using test_support::TempDir;

void expect_same_topology(GraphView a, GraphView b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "degree mismatch at " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    for (std::size_t i = 0; i < na.size(); ++i)
      ASSERT_EQ(na[i], nb[i]) << "row " << v << " slot " << i;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << bytes;
  ASSERT_TRUE(file.good());
}

// --------------------------------------------------------------- pgcsr ---

TEST(Pgcsr, RoundTripsGeneratedGraphs) {
  const TempDir dir;
  Rng rng(7);
  const std::vector<Graph> graphs = {
      path_graph(1),
      star_graph(9),
      connected_gnp(60, 0.1, rng),
      barabasi_albert(120, 3, rng),
  };
  int k = 0;
  for (const Graph& g : graphs) {
    const std::string path = dir.file("g" + std::to_string(k++) + ".pgcsr");
    write_pgcsr_file(g, path);
    const MappedGraph mapped = MappedGraph::open(path);
    expect_same_topology(g, mapped.view());
    EXPECT_EQ(mapped.path(), path);
  }
}

TEST(Pgcsr, GraphMapFileMatchesOwnedQueries) {
  const TempDir dir;
  Rng rng(11);
  const Graph g = connected_gnp(40, 0.15, rng);
  const std::string path = dir.file("g.pgcsr");
  write_pgcsr_file(g, path);
  const MappedGraph mapped = Graph::map_file(path);
  expect_same_topology(g, mapped.view());
  // copy_of is the sanctioned view -> owned conversion; it must produce
  // an independent, equal graph.
  const Graph copied = Graph::copy_of(mapped.view());
  expect_same_topology(g, copied);
}

TEST(Pgcsr, RejectsTruncationAtEveryBoundary) {
  const TempDir dir;
  Rng rng(3);
  const Graph g = connected_gnp(20, 0.2, rng);
  const std::string path = dir.file("g.pgcsr");
  write_pgcsr_file(g, path);
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), kPgcsrHeaderBytes);

  // Mid-header, exactly the header, mid-offsets, one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, kPgcsrHeaderBytes,
        kPgcsrHeaderBytes + 24, bytes.size() - 1}) {
    const std::string trunc = dir.file("trunc.pgcsr");
    spit(trunc, bytes.substr(0, keep));
    EXPECT_THROW(MappedGraph::open(trunc), PreconditionViolation)
        << "accepted a file truncated to " << keep << " bytes";
  }
}

TEST(Pgcsr, RejectsTrailingBytes) {
  const TempDir dir;
  Rng rng(5);
  const Graph g = connected_gnp(16, 0.25, rng);
  const std::string path = dir.file("g.pgcsr");
  write_pgcsr_file(g, path);
  spit(path, slurp(path) + "x");
  EXPECT_THROW(MappedGraph::open(path), PreconditionViolation);
}

TEST(Pgcsr, RejectsBadMagicVersionAndChecksum) {
  const TempDir dir;
  Rng rng(9);
  const Graph g = connected_gnp(16, 0.25, rng);
  const std::string path = dir.file("g.pgcsr");
  write_pgcsr_file(g, path);
  const std::string bytes = slurp(path);

  {  // magic
    std::string bad = bytes;
    bad[0] = 'X';
    spit(path, bad);
    EXPECT_THROW(MappedGraph::open(path), PreconditionViolation);
  }
  {  // version skew (future format must be refused, not misread)
    std::string bad = bytes;
    bad[8] = static_cast<char>(kPgcsrVersion + 1);
    spit(path, bad);
    EXPECT_THROW(MappedGraph::open(path), PreconditionViolation);
  }
  {  // flipped bit in the adjacency section breaks its checksum
    std::string bad = bytes;
    bad[bytes.size() - 1] = static_cast<char>(bad[bytes.size() - 1] ^ 0x40);
    spit(path, bad);
    EXPECT_THROW(MappedGraph::open(path), PreconditionViolation);
  }
}

TEST(Pgcsr, RejectsMissingFilesAndNonFiles) {
  EXPECT_THROW(MappedGraph::open("/nonexistent/graph.pgcsr"),
               PreconditionViolation);
  const TempDir dir;  // a directory is not a regular file
  EXPECT_THROW(MappedGraph::open(dir.file("")), PreconditionViolation);
}

// ------------------------------------------------------------ importer ---

TEST(Importer, GoldenFixtureImportsToKnownCsr) {
  std::ifstream file(std::string(PG_TEST_DATA_DIR) + "/ca-mini.txt");
  ASSERT_TRUE(file) << "missing committed fixture tests/data/ca-mini.txt";
  const ImportResult imported = import_edge_list(file);

  // Original ids {7,10,20,30,40,50,60} remap to 0..6 in ascending order.
  ASSERT_EQ(imported.graph.num_vertices(), 7);
  ASSERT_EQ(imported.graph.num_edges(), 8u);
  const std::vector<std::vector<VertexId>> golden = {
      {1}, {0, 2, 4}, {1, 3}, {2, 4}, {1, 3, 5, 6}, {4, 6}, {4, 5}};
  for (VertexId v = 0; v < 7; ++v) {
    const auto row = imported.graph.neighbors(v);
    ASSERT_EQ(row.size(), golden[static_cast<std::size_t>(v)].size())
        << "row " << v;
    for (std::size_t i = 0; i < row.size(); ++i)
      EXPECT_EQ(row[i], golden[static_cast<std::size_t>(v)][i])
          << "row " << v << " slot " << i;
  }

  const ImportStats& s = imported.stats;
  EXPECT_EQ(s.edge_lines, 10u);
  EXPECT_EQ(s.self_loops, 1u);
  EXPECT_EQ(s.duplicates, 1u);
  EXPECT_EQ(s.min_id, 7);
  EXPECT_EQ(s.max_id, 60);
  EXPECT_TRUE(s.remapped);
}

TEST(Importer, FixtureRoundTripsThroughPgcsr) {
  std::ifstream file(std::string(PG_TEST_DATA_DIR) + "/ca-mini.txt");
  ASSERT_TRUE(file);
  const ImportResult imported = import_edge_list(file);
  const TempDir dir;
  const std::string path = dir.file("ca-mini.pgcsr");
  write_pgcsr_file(imported.graph, path);
  const MappedGraph mapped = MappedGraph::open(path);
  expect_same_topology(imported.graph, mapped.view());
}

TEST(Importer, RejectsMalformedInputWithLineNumber) {
  {
    std::istringstream in("1 2\nnot an edge\n");
    try {
      import_edge_list(in);
      FAIL() << "malformed line accepted";
    } catch (const PreconditionViolation& error) {
      EXPECT_NE(std::string(error.what()).find("2"), std::string::npos)
          << "error does not name the offending line: " << error.what();
    }
  }
  {
    std::istringstream in("1 -2\n");
    EXPECT_THROW(import_edge_list(in), PreconditionViolation);
  }
  {
    std::istringstream in("1 99999999999999999999\n");
    EXPECT_THROW(import_edge_list(in), PreconditionViolation);
  }
}

// ---------------------------------------------------------- classifier ---

TEST(Classify, KnownFamiliesLandInTheirRegimes) {
  Rng rng(13);
  // Preferential attachment is the canonical heavy tail.
  const auto ba = classify_degree_distribution(barabasi_albert(4000, 2, rng));
  EXPECT_EQ(ba.regime, DegreeRegime::kPowerLaw)
      << "alpha " << ba.alpha << " r2 " << ba.r_squared;
  EXPECT_GE(ba.alpha, 1.0);

  // Lattices and rings are the canonical bounded-degree families.
  EXPECT_EQ(classify_degree_distribution(grid_graph(40, 40)).regime,
            DegreeRegime::kBounded);
  EXPECT_EQ(classify_degree_distribution(cycle_graph(500)).regime,
            DegreeRegime::kBounded);
}

TEST(Classify, DeterministicAcrossStorageBackends) {
  Rng rng(17);
  const Graph g = barabasi_albert(800, 2, rng);
  const TempDir dir;
  const std::string path = dir.file("g.pgcsr");
  write_pgcsr_file(g, path);
  const MappedGraph mapped = MappedGraph::open(path);
  const auto owned = classify_degree_distribution(g);
  const auto viewed = classify_degree_distribution(mapped.view());
  EXPECT_EQ(owned.regime, viewed.regime);
  EXPECT_EQ(owned.alpha, viewed.alpha);
  EXPECT_EQ(owned.r_squared, viewed.r_squared);
}

// ------------------------------------------------------- file: scenarios ---

/// The registry topology a file:-backed sweep must reproduce: scenario
/// "ba" at (n, seed) exactly as a generated group would build it.
Graph registry_topology(const std::string& scenario, VertexId n,
                        std::uint64_t seed) {
  return pg::scenario::scenario_or_throw(scenario).build(n, seed);
}

TEST(FileScenario, SweepMetricsMatchGeneratedTopology) {
  const TempDir dir;
  const VertexId n = 48;
  const std::uint64_t seed = 5;
  const std::string path = dir.file("ba48.pgcsr");
  write_pgcsr_file(registry_topology("ba", n, seed), path);

  SweepSpec generated;
  generated.scenarios = {"ba"};
  generated.algorithms = {"mvc", "gr-mvc"};
  generated.sizes = {n};
  generated.seeds = {seed};

  SweepSpec mapped = generated;
  mapped.scenarios = {"file:" + path};

  const SweepResult gen = pg::scenario::run_sweep(generated);
  const SweepResult map = pg::scenario::run_sweep(mapped);
  ASSERT_EQ(gen.cells.size(), map.cells.size());
  ASSERT_FALSE(gen.cells.empty());
  for (std::size_t i = 0; i < gen.cells.size(); ++i) {
    const CellResult& a = gen.cells[i];
    const CellResult& b = map.cells[i];
    ASSERT_EQ(b.status, CellStatus::kOk) << b.error;
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.base_edges, b.base_edges);
    EXPECT_EQ(a.comm_power, b.comm_power);
    EXPECT_EQ(a.comm_edges, b.comm_edges);
    EXPECT_EQ(a.target_edges, b.target_edges);
    EXPECT_EQ(a.solution_size, b.solution_size);
    EXPECT_EQ(a.solution_weight, b.solution_weight);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.total_bits, b.total_bits);
    EXPECT_EQ(a.baseline_size, b.baseline_size);
    EXPECT_EQ(a.ratio, b.ratio);
    // The regime is a pure function of the topology, so both storage
    // backends stamp the same classification.
    EXPECT_EQ(a.regime, b.regime);
    EXPECT_EQ(a.regime_alpha, b.regime_alpha);
    EXPECT_FALSE(b.regime.empty());
  }
}

TEST(FileScenario, ByteIdenticalAcrossWorkerCounts) {
  const TempDir dir;
  const VertexId n = 48;
  const std::string path = dir.file("ba48.pgcsr");
  write_pgcsr_file(registry_topology("ba", n, 5), path);

  SweepSpec spec;
  spec.scenarios = {"file:" + path};
  spec.algorithms = {"mvc", "gr-mvc"};
  spec.sizes = {n};
  spec.seeds = {5, 6};

  const std::string once = pg::scenario::csv_string(pg::scenario::run_sweep(spec));
  spec.threads = 3;
  EXPECT_EQ(once, pg::scenario::csv_string(pg::scenario::run_sweep(spec)));
}

TEST(FileScenario, SizeMismatchFailsTheGroupNotTheSweep) {
  const TempDir dir;
  const std::string path = dir.file("ba32.pgcsr");
  write_pgcsr_file(registry_topology("ba", 32, 1), path);

  SweepSpec spec;
  spec.scenarios = {"file:" + path};
  spec.algorithms = {"gr-mvc"};
  spec.sizes = {33};  // wrong on purpose
  const SweepResult result = pg::scenario::run_sweep(spec);
  ASSERT_FALSE(result.cells.empty());
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.status, CellStatus::kFailed);
    EXPECT_NE(cell.error.find("32"), std::string::npos)
        << "error should name the file's vertex count: " << cell.error;
  }
}

TEST(FileScenario, MissingFileFailsRowsAndValidatesCheaply) {
  SweepSpec spec;
  spec.scenarios = {"file:/nonexistent/graph.pgcsr"};
  spec.algorithms = {"gr-mvc"};
  spec.sizes = {16};
  // validate_spec must accept the *name* without touching the filesystem…
  EXPECT_NO_THROW(pg::scenario::validate_spec(spec));
  // …and the sweep turns the open failure into failed rows.
  const SweepResult result = pg::scenario::run_sweep(spec);
  ASSERT_FALSE(result.cells.empty());
  for (const CellResult& cell : result.cells)
    EXPECT_EQ(cell.status, CellStatus::kFailed);

  // An empty path is malformed at the *spec* level.
  spec.scenarios = {"file:"};
  EXPECT_THROW(pg::scenario::validate_spec(spec), PreconditionViolation);
}

// ---------------------------------------------- regime report plumbing ---

TEST(RegimeColumns, JournalRecordRoundTripsRegime) {
  CellResult row;
  row.spec.scenario = "file:/tmp/g.pgcsr";
  row.spec.algorithm = "mvc";
  row.spec.n = 10;
  row.cell_index = 3;
  row.regime = "powerlaw";
  row.regime_alpha = 2.125;
  const std::string line = pg::scenario::encode_cell_record(row);
  CellResult back;
  ASSERT_TRUE(pg::scenario::decode_cell_record(line, back));
  EXPECT_EQ(back.regime, "powerlaw");
  EXPECT_EQ(back.regime_alpha, 2.125);
  EXPECT_EQ(back.spec.scenario, row.spec.scenario);
}

TEST(RegimeColumns, WritersGateOnClassifyFlag) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"gr-mvc"};
  spec.sizes = {24};
  const SweepResult result = pg::scenario::run_sweep(spec);

  // Legacy shape: no regime column unless asked — existing golden bytes
  // stay untouched even though the rows now carry the classification.
  const std::string plain = pg::scenario::csv_string(result);
  EXPECT_EQ(plain.find(",regime"), std::string::npos);

  std::ostringstream classified;
  pg::scenario::CsvWriter writer(classified, /*include_timing=*/false,
                                 /*certify=*/false, /*faults=*/false,
                                 /*classify=*/true);
  writer.begin(result.spec, result.cells.size());
  for (const CellResult& cell : result.cells) writer.row(cell);
  const std::string csv = classified.str();
  EXPECT_NE(csv.find(",regime,regime_alpha"), std::string::npos);
  // ba at n=24 classifies deterministically; the column must carry a
  // non-placeholder value on ok rows.
  EXPECT_TRUE(csv.find(",powerlaw,") != std::string::npos ||
              csv.find(",bounded,") != std::string::npos ||
              csv.find(",other,") != std::string::npos)
      << csv;
}

}  // namespace
}  // namespace pg::graph
