// Tests for the batch runner and its serializers: grid expansion rules,
// error capture, and the determinism contract — a fixed sweep's CSV/JSON
// bytes are identical across repeated runs and across worker counts, and
// a pinned golden CSV guards the schema and the centralized cells' values.
#include <gtest/gtest.h>

#include <locale>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/fault.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace pg::scenario {
namespace {

SweepSpec small_spec(int threads) {
  SweepSpec spec;
  spec.scenarios = {"path", "gnp-sparse", "ba", "regular-4", "planted"};
  spec.algorithms = {"mvc", "matching", "mds", "gr-mvc"};
  spec.sizes = {12, 18};
  spec.powers = {1, 2, 3};
  spec.epsilons = {0.5};
  spec.seeds = {1, 2};
  spec.threads = threads;
  spec.exact_baseline_max_n = 20;
  return spec;
}

// ------------------------------------------------------------ expansion ---

TEST(ExpandGrid, SkipsInexpressiblePowersAndCollapsesUnusedEpsilon) {
  SweepSpec spec;
  spec.scenarios = {"path"};
  spec.algorithms = {"mvc", "matching", "mvc53"};
  spec.sizes = {8};
  spec.powers = {1, 2, 3};
  spec.epsilons = {0.25, 0.5};
  spec.seeds = {1};
  const auto cells = expand_grid(spec);
  // mvc: r=2 only, two epsilons -> 2 cells.  matching: r in {1,2,3}, no
  // epsilon -> 3 cells.  mvc53: r=2, no epsilon -> 1 cell.
  EXPECT_EQ(cells.size(), 6u);
  std::size_t mvc = 0, matching = 0, mvc53 = 0;
  for (const CellSpec& cell : cells) {
    if (cell.algorithm == "mvc") {
      ++mvc;
      EXPECT_EQ(cell.r, 2);
      EXPECT_TRUE(cell.epsilon_used);
    } else if (cell.algorithm == "matching") {
      ++matching;
      EXPECT_FALSE(cell.epsilon_used);
    } else {
      ++mvc53;
    }
  }
  EXPECT_EQ(mvc, 2u);
  EXPECT_EQ(matching, 3u);
  EXPECT_EQ(mvc53, 1u);
}

TEST(ExpandGrid, RejectsInvalidSpecs) {
  SweepSpec spec = small_spec(1);
  spec.algorithms = {"not-an-algorithm"};
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.epsilons = {1.5};
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.powers = {0};
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.sizes.clear();
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);

  spec = small_spec(1);
  spec.threads = 0;
  EXPECT_THROW(expand_grid(spec), PreconditionViolation);
}

// ------------------------------------------------------------ execution ---

TEST(RunSweep, GridIsLargeEnoughAndAllCellsSucceed) {
  // The acceptance-bar sweep: >= 60 cells across >= 5 scenario families.
  const SweepResult result = run_sweep(small_spec(1));
  EXPECT_GE(result.cells.size(), 60u);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.status, CellStatus::kOk)
        << cell.spec.scenario << "/" << cell.spec.algorithm << ": "
        << cell.error;
    EXPECT_TRUE(cell.feasible)
        << cell.spec.scenario << "/" << cell.spec.algorithm;
    EXPECT_NE(cell.baseline, BaselineKind::kNone);
    EXPECT_GE(cell.ratio, 1.0 - 1e-9);
  }
}

TEST(RunSweep, CapturesScenarioFailuresAsCellErrors) {
  SweepSpec spec;
  spec.scenarios = {"barbell"};  // requires n >= 4
  spec.algorithms = {"matching"};
  spec.sizes = {2};
  spec.powers = {1};
  spec.seeds = {1};
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].status, CellStatus::kFailed);
  EXPECT_NE(result.cells[0].error.find("barbell"), std::string::npos);
}

TEST(RunCell, MatchesSweepCellByteForByte) {
  // A cell run in isolation reports exactly what the same cell reports
  // inside a sweep (simulator reuse must not leak state between cells).
  const SweepResult sweep = run_sweep(small_spec(1));
  for (std::size_t i : {std::size_t{0}, sweep.cells.size() / 2,
                        sweep.cells.size() - 1}) {
    const CellResult& in_sweep = sweep.cells[i];
    const CellResult alone =
        run_cell(in_sweep.spec, small_spec(1).exact_baseline_max_n);
    EXPECT_EQ(alone.solution_size, in_sweep.solution_size) << i;
    EXPECT_EQ(alone.rounds, in_sweep.rounds) << i;
    EXPECT_EQ(alone.messages, in_sweep.messages) << i;
    EXPECT_EQ(alone.baseline_size, in_sweep.baseline_size) << i;
  }
}

// ---------------------------------------------------------- determinism ---

TEST(SweepDeterminism, ByteStableAcrossRunsAndThreadCounts) {
  const SweepResult once = run_sweep(small_spec(1));
  const SweepResult again = run_sweep(small_spec(1));
  const SweepResult threaded = run_sweep(small_spec(8));

  const std::string csv = csv_string(once);
  EXPECT_EQ(csv, csv_string(again)) << "CSV differs between identical runs";
  EXPECT_EQ(csv, csv_string(threaded)) << "CSV differs across thread counts";

  const std::string json = json_string(once);
  EXPECT_EQ(json, json_string(again));
  EXPECT_EQ(json, json_string(threaded));
}

TEST(SweepDeterminism, GoldenCsvForCentralizedCells) {
  // gr-mvc is centralized and deterministic, so its rows are pinned in
  // full — schema drift or scenario/topology drift breaks this test and
  // must be a conscious decision (regenerate via:
  //   powergraph_cli sweep --scenarios path,ba --algorithms gr-mvc
  //     --sizes 12 --powers 2 --epsilons 0.5 --seeds 7 --csv -).
  // Re-pinned for PR 3: the schema gained the leading cell_index column
  // (the shard/merge key); the path/ba values themselves are unchanged.
  // Re-pinned for PR 5: the weighted sweep dimension added the weighting,
  // solution_weight, and ratio_weight columns ("-"/size/ratio-mirrors for
  // weight-blind algorithms like gr-mvc); every pre-existing value is
  // unchanged.
  SweepSpec spec;
  spec.scenarios = {"path", "ba"};
  spec.algorithms = {"gr-mvc"};
  spec.sizes = {12};
  spec.powers = {2};
  spec.epsilons = {0.5};
  spec.seeds = {7};
  spec.exact_baseline_max_n = 20;
  const std::string expected =
      "cell_index,scenario,algorithm,n,r,epsilon,weighting,seed,status,"
      "base_edges,comm_power,comm_edges,target_edges,solution_size,"
      "solution_weight,feasible,exact,rounds,messages,total_bits,baseline,"
      "baseline_size,ratio,weight_baseline,baseline_weight,ratio_weight,"
      "error\n"
      "0,path,gr-mvc,12,2,0.5,-,7,ok,11,1,11,21,8,8,1,0,0,0,0,exact,8,"
      "1.0000,exact,8,1.0000,\n"
      "1,ba,gr-mvc,12,2,0.5,-,7,ok,21,1,21,53,11,11,1,0,0,0,0,exact,10,"
      "1.1000,exact,10,1.1000,\n";
  EXPECT_EQ(csv_string(run_sweep(spec)), expected);
}

// The CONGEST counterpart of the centralized golden: every simulated
// algorithm's row on two power-law topologies, captured before the round
// engine's per-message fast paths (slot-indexed neighbor state, in-place
// inbox decode, cursor-merged sparse delivery) and required to stay
// byte-identical through them.  Regenerate via:
//   powergraph_cli sweep --scenarios ba,chung-lu
//     --algorithms mds,matching,mvc,mvc53,mvc-rand,mwvc --sizes 40
//     --powers 2 --epsilons 0.5 --weights zipf --seeds 1 --csv -
// (append --fault-plan drop=0.01,corrupt=0.01 for the faulty variant).
// The faulty variant is pinned in full, error column included: check
// messages name their file relative to the checkout root.  It was last
// re-pinned when corrupted messages outside their kind's declared domain
// began to be discarded at delivery instead of clamped by receivers.
std::string congest_golden_csv(int congest_threads, const FaultPlan* plan) {
  SweepSpec spec;
  spec.scenarios = {"ba", "chung-lu"};
  spec.algorithms = {"mds", "matching", "mvc", "mvc53", "mvc-rand", "mwvc"};
  spec.sizes = {40};
  spec.powers = {2};
  spec.epsilons = {0.5};
  spec.weightings = {"zipf"};
  spec.seeds = {1};
  spec.congest_threads = congest_threads;
  std::ostringstream out;
  CsvWriter writer(out, false, false, /*faults=*/plan != nullptr);
  writer.begin(spec, count_grid_cells(spec));
  ExecOptions opts;
  opts.fault_plan = plan;
  run_sweep_stream(spec, [&](const CellResult& row) { writer.row(row); },
                   opts);
  return out.str();
}

TEST(SweepDeterminism, GoldenCsvForCongestCells) {
  const std::string expected =
      "cell_index,scenario,algorithm,n,r,epsilon,weighting,seed,status,"
      "base_edges,comm_power,comm_edges,target_edges,solution_size,"
      "solution_weight,feasible,exact,rounds,messages,total_bits,baseline,"
      "baseline_size,ratio,weight_baseline,baseline_weight,ratio_weight,"
      "error\n"
      "0,ba,mds,40,2,-,-,1,ok,77,1,77,343,4,4,1,0,334,18719,662091,greedy,"
      "3,1.3333,greedy,3,1.3333,\n"
      "1,ba,matching,40,2,-,-,1,ok,77,2,343,343,34,34,1,0,25,952,7616,"
      "greedy,34,1.0000,greedy,34,1.0000,\n"
      "2,ba,mvc,40,2,0.5,-,1,ok,77,1,77,343,38,38,1,0,50,3631,37294,"
      "greedy,34,1.1176,greedy,34,1.1176,\n"
      "3,ba,mvc53,40,2,-,-,1,ok,77,1,77,343,38,38,1,0,50,3631,37294,"
      "greedy,34,1.1176,greedy,34,1.1176,\n"
      "4,ba,mvc-rand,40,2,0.5,-,1,ok,77,1,77,343,31,31,1,0,139,2470,32262,"
      "greedy,34,0.9118,greedy,34,0.9118,\n"
      "5,ba,mwvc,40,2,0.5,zipf,1,ok,77,1,77,343,36,51,1,0,79,3866,40285,"
      "greedy,34,1.0588,greedy,52,0.9808,\n"
      "6,chung-lu,mds,40,2,-,-,1,ok,73,1,73,296,7,7,1,0,334,17721,641819,"
      "greedy,4,1.7500,greedy,4,1.7500,\n"
      "7,chung-lu,matching,40,2,-,-,1,ok,73,2,296,296,34,34,1,0,25,830,"
      "6640,greedy,34,1.0000,greedy,34,1.0000,\n"
      "8,chung-lu,mvc,40,2,0.5,-,1,ok,73,1,73,296,34,34,1,0,57,3168,33008,"
      "greedy,34,1.0000,greedy,34,1.0000,\n"
      "9,chung-lu,mvc53,40,2,-,-,1,ok,73,1,73,296,34,34,1,0,57,3168,33008,"
      "greedy,34,1.0000,greedy,34,1.0000,\n"
      "10,chung-lu,mvc-rand,40,2,0.5,-,1,ok,73,1,73,296,29,29,1,0,88,2143,"
      "27314,greedy,34,0.8529,greedy,34,0.8529,\n"
      "11,chung-lu,mwvc,40,2,0.5,zipf,1,ok,73,1,73,296,33,47,1,0,68,3194,"
      "34579,greedy,34,0.9706,greedy,48,0.9792,\n";
  EXPECT_EQ(congest_golden_csv(1, nullptr), expected);
  EXPECT_EQ(congest_golden_csv(3, nullptr), expected);

  // Under drops and corruption most cells end in a named adversary
  // outcome; the failed rows still carry the topology columns computed
  // before the throw, and every fault counter and error is pinned.
  const FaultPlan plan = FaultPlan::parse("drop=0.01,corrupt=0.01");
  const std::string faulty =
      "cell_index,scenario,algorithm,n,r,epsilon,weighting,seed,status,"
      "base_edges,comm_power,comm_edges,target_edges,solution_size,"
      "solution_weight,feasible,exact,rounds,messages,total_bits,baseline,"
      "baseline_size,ratio,weight_baseline,baseline_weight,ratio_weight,"
      "msgs_dropped,msgs_corrupted,nodes_crashed,rounds_survived,error\n"
      "0,ba,mds,40,2,-,-,1,ok,77,1,77,343,7,7,1,0,10521,360885,13230035,"
      "greedy,3,2.3333,greedy,3,2.3333,3652,3651,0,10521,\n"
      "1,ba,matching,40,2,-,-,1,failed,77,2,343,343,0,0,0,0,0,0,0,none,0,"
      "-,none,0,-,0,0,0,0,PG_REQUIRE failed: (round_limit_ < 0 || "
      "stats_.rounds < round_limit_) at src/congest/network.cpp:171 — "
      "CONGEST: round budget of 18944 rounds exhausted — algorithm "
      "diverged (an adversary starving a quiescence loop is the usual "
      "cause)\n"
      "2,ba,mvc,40,2,0.5,-,1,ok,77,1,77,343,38,38,1,0,47,3277,33746,"
      "greedy,34,1.1176,greedy,34,1.1176,36,31,0,47,\n"
      "3,ba,mvc53,40,2,-,-,1,ok,77,1,77,343,39,39,1,0,58,4295,43433,"
      "greedy,34,1.1471,greedy,34,1.1471,54,49,0,58,\n"
      "4,ba,mvc-rand,40,2,0.5,-,1,failed,77,1,77,343,0,0,0,0,0,0,0,none,"
      "0,-,none,0,-,0,0,0,0,PG_CHECK failed: (pending == 0 || "
      "net.last_round_sent_messages()) at src/congest/primitives.cpp:180 "
      "— upcast stalled: tokens lost in transit (dropped message or "
      "crashed relay?)\n"
      "5,ba,mwvc,40,2,0.5,zipf,1,failed,77,1,77,343,0,0,0,0,0,0,0,none,0,"
      "-,none,0,-,0,0,0,0,PG_CHECK failed: (received[v].size() == "
      "tokens.size()) at src/congest/primitives.cpp:225 — downcast did "
      "not deliver all tokens\n"
      "6,chung-lu,mds,40,2,-,-,1,ok,73,1,73,296,8,8,1,0,3674,143890,"
      "5178055,greedy,4,2.0000,greedy,4,2.0000,1437,1404,0,3674,\n"
      "7,chung-lu,matching,40,2,-,-,1,failed,73,2,296,296,0,0,0,0,0,0,0,"
      "none,0,-,none,0,-,0,0,0,0,PG_REQUIRE failed: (round_limit_ < 0 || "
      "stats_.rounds < round_limit_) at src/congest/network.cpp:171 — "
      "CONGEST: round budget of 18944 rounds exhausted — algorithm "
      "diverged (an adversary starving a quiescence loop is the usual "
      "cause)\n"
      "8,chung-lu,mvc,40,2,0.5,-,1,failed,73,1,73,296,0,0,0,0,0,0,0,none,"
      "0,-,none,0,-,0,0,0,0,PG_CHECK failed: (tree.depth[v] >= 0) at "
      "src/congest/primitives.cpp:118 — BFS tree did not reach every "
      "node\n"
      "9,chung-lu,mvc53,40,2,-,-,1,failed,73,1,73,296,0,0,0,0,0,0,0,none,"
      "0,-,none,0,-,0,0,0,0,PG_CHECK failed: (tree.depth[v] >= 0) at "
      "src/congest/primitives.cpp:118 — BFS tree did not reach every "
      "node\n"
      "10,chung-lu,mvc-rand,40,2,0.5,-,1,failed,73,1,73,296,0,0,0,0,0,0,"
      "0,none,0,-,none,0,-,0,0,0,0,PG_CHECK failed: (tree.depth[v] >= 0) "
      "at src/congest/primitives.cpp:118 — BFS tree did not reach every "
      "node\n"
      "11,chung-lu,mwvc,40,2,0.5,zipf,1,failed,73,1,73,296,0,0,0,0,0,0,0,"
      "none,0,-,none,0,-,0,0,0,0,PG_CHECK failed: (pending == 0 || "
      "net.last_round_sent_messages()) at src/congest/primitives.cpp:180 "
      "— upcast stalled: tokens lost in transit (dropped message or "
      "crashed relay?)\n";
  EXPECT_EQ(congest_golden_csv(1, &plan), faulty);
  EXPECT_EQ(congest_golden_csv(3, &plan), faulty);
}

// A numpunct that mimics comma-decimal locales (de_DE and friends)
// without depending on any locale being installed on the host: ',' as
// the decimal point, '.' as a thousands separator applied every 3 digits.
class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(ReportLocale, BytesAreIndependentOfImbuedAndGlobalLocale) {
  // Regression: the writers used to stream integers through the target
  // stream's locale, so a grouping locale turned 1199 into "1.199" —
  // corrupting the CSV shape and the shard-merge byte-equality
  // guarantee.  n is chosen >= 1000 so grouping would bite, and the spec
  // is a shard so the stamp line's integers and fingerprint are covered.
  SweepSpec spec;
  spec.scenarios = {"path"};
  spec.algorithms = {"matching"};
  spec.sizes = {1200};
  spec.powers = {1};
  spec.seeds = {1};
  spec.shard_index = 1;
  spec.shard_count = 2;
  spec.exact_baseline_max_n = 0;
  const SweepResult result = run_sweep(spec);
  const std::string clean_csv = csv_string(result);
  const std::string clean_json = json_string(result);
  const std::string clean_fingerprint = spec_fingerprint(spec);
  ASSERT_NE(clean_csv.find("1200"), std::string::npos);

  const std::locale comma(std::locale::classic(), new CommaNumpunct);
  const std::locale previous = std::locale::global(comma);
  std::string poisoned_csv, poisoned_json, poisoned_fingerprint;
  try {
    // Both attack surfaces at once: an explicitly imbued target stream,
    // and the global locale every internally constructed stream inherits.
    std::ostringstream csv_out, json_out;
    csv_out.imbue(comma);
    json_out.imbue(comma);
    write_csv(csv_out, result);
    write_json(json_out, result);
    poisoned_csv = csv_out.str();
    poisoned_json = json_out.str();
    poisoned_fingerprint = spec_fingerprint(spec);
  } catch (...) {
    std::locale::global(previous);
    throw;
  }
  std::locale::global(previous);

  EXPECT_EQ(poisoned_csv, clean_csv);
  EXPECT_EQ(poisoned_json, clean_json);
  EXPECT_EQ(poisoned_fingerprint, clean_fingerprint);
}

// ----------------------------------------------------------- row schema ---

std::vector<std::string> csv_fields(std::string_view line) {
  std::vector<std::string> fields(1);
  for (char c : line) {
    if (c == ',')
      fields.emplace_back();
    else
      fields.back() += c;
  }
  return fields;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The keys of one JSON cell object, in order.
std::vector<std::string> json_keys(const std::string& object) {
  static const std::regex key("\"([a-z_]+)\": ");
  std::vector<std::string> keys;
  for (std::sregex_iterator it(object.begin(), object.end(), key), end;
       it != end; ++it)
    keys.push_back((*it)[1]);
  return keys;
}

CellResult hand_row(std::uint64_t index, CellStatus status) {
  CellResult row;
  row.cell_index = index;
  row.spec.scenario = "ba";
  row.spec.algorithm = "mvc";
  row.spec.n = 16;
  row.status = status;
  if (status != CellStatus::kOk) row.error = "it broke";
  row.baseline = BaselineKind::kExact;
  row.regime = "powerlaw";
  row.regime_alpha = 2.5;
  return row;
}

TEST(ReportSchema, CsvStringsAreSanitizedSoNoValueShiftsAColumn) {
  // Regression: scenario and algorithm were written raw, so a file: path
  // containing a comma shifted every later column and broke merge_csv.
  CellResult row = hand_row(0, CellStatus::kOk);
  row.spec.scenario = "file:/tmp/a,b.pgcsr";
  std::ostringstream out;
  CsvWriter writer(out);
  writer.begin(SweepSpec{}, 1);
  writer.row(row);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(csv_fields(lines[1]).size(), csv_fields(lines[0]).size());
}

TEST(ReportSchema, CsvAndJsonAgreeForEveryOptionalBlockCombination) {
  // Shard 1 of 2 reports cells 0 and 1 of a 3-cell grid; merging it alone
  // with allow_partial synthesizes cell 2 as a status=missing placeholder.
  SweepSpec spec;
  spec.shard_index = 1;
  spec.shard_count = 2;
  const CellResult ok = hand_row(0, CellStatus::kOk);
  const CellResult failed = hand_row(1, CellStatus::kFailed);
  for (int mask = 0; mask < 16; ++mask) {
    const bool timing = mask & 1, certify = mask & 2, faults = mask & 4,
               classify = mask & 8;
    SCOPED_TRACE("timing/certify/faults/classify mask " +
                 std::to_string(mask));
    std::ostringstream csv_out, json_out;
    CsvWriter csv(csv_out, timing, certify, faults, classify);
    JsonWriter json(json_out, timing, certify, faults, classify);
    csv.begin(spec, 3);
    json.begin(spec, 3);
    for (const CellResult* row : {&ok, &failed}) {
      csv.row(*row);
      json.row(*row);
    }
    json.end();

    const auto csv_lines = lines_of(merge_csv({csv_out.str()}, true));
    ASSERT_EQ(csv_lines.size(), 4u);
    const std::vector<std::string> header = csv_fields(csv_lines[0]);
    EXPECT_EQ(header.size(), 27u + (classify ? 2 : 0) + (certify ? 1 : 0) +
                                 (faults ? 4 : 0) + (timing ? 1 : 0));
    EXPECT_EQ(header.back(), "error");
    for (std::size_t i = 1; i < csv_lines.size(); ++i)
      EXPECT_EQ(csv_fields(csv_lines[i]).size(), header.size()) << i;

    std::vector<std::string> cells;
    for (const std::string& line : lines_of(merge_json({json_out.str()}, true)))
      if (line.rfind("    {", 0) == 0) cells.push_back(line);
    ASSERT_EQ(cells.size(), 3u);
    const std::vector<std::string> ok_keys(header.begin(), header.end() - 1);
    EXPECT_EQ(json_keys(cells[0]), ok_keys);  // error only when not ok
    EXPECT_EQ(json_keys(cells[1]), header);
    EXPECT_EQ(json_keys(cells[2]), header);   // the missing placeholder
  }
}

TEST(ReportSchema, MergeRejectsAHeaderNoWriterProduces) {
  SweepSpec spec;
  spec.shard_index = 1;
  spec.shard_count = 2;
  std::ostringstream out;
  CsvWriter writer(out);
  writer.begin(spec, 1);
  writer.row(hand_row(0, CellStatus::kOk));
  std::string report = out.str();
  ASSERT_NO_THROW(merge_csv({report}, true));
  report.replace(report.find(",error"), 6, ",err");
  EXPECT_THROW(merge_csv({report}, true), PreconditionViolation);
}

// ------------------------------------------------------------- sharding ---

TEST(ShardPartition, CompleteDisjointAndGroupPreserving) {
  SweepSpec spec = small_spec(1);
  const auto cells = expand_grid(spec);
  for (int k : {1, 2, 3, 5, 8, 100}) {
    std::vector<int> owner(cells.size(), -1);
    for (int i = 1; i <= k; ++i) {
      spec.shard_index = i;
      spec.shard_count = k;
      for (std::size_t cell : shard_cell_indices(spec)) {
        ASSERT_LT(cell, cells.size());
        EXPECT_EQ(owner[cell], -1)
            << "cell " << cell << " in shards " << owner[cell] << " and " << i;
        owner[cell] = i;
      }
    }
    for (std::size_t c = 0; c < cells.size(); ++c)
      EXPECT_NE(owner[c], -1) << "cell " << c << " unassigned for k=" << k;
    // Cells of one topology group never split across shards (the group
    // builds its graph once; splitting it would duplicate that work).
    for (std::size_t c = 1; c < cells.size(); ++c) {
      const CellSpec& a = cells[c - 1];
      const CellSpec& b = cells[c];
      if (a.scenario == b.scenario && a.n == b.n && a.seed == b.seed)
        EXPECT_EQ(owner[c - 1], owner[c]) << "group split at cell " << c;
    }
  }
}

TEST(ShardPartition, RejectsBadShardSpecs) {
  SweepSpec spec = small_spec(1);
  spec.shard_index = 0;
  spec.shard_count = 2;
  EXPECT_THROW(validate_spec(spec), PreconditionViolation);
  spec.shard_index = 3;
  EXPECT_THROW(validate_spec(spec), PreconditionViolation);
  spec.shard_index = 1;
  spec.shard_count = 0;
  EXPECT_THROW(validate_spec(spec), PreconditionViolation);
}

TEST(ShardMerge, TwoShardReportsMergeByteIdenticallyToSingleProcess) {
  const SweepSpec whole = small_spec(2);
  const std::string csv_whole = csv_string(run_sweep(whole));
  const std::string json_whole = json_string(run_sweep(whole));

  std::vector<std::string> csv_shards, json_shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = whole;
    shard.shard_index = i;
    shard.shard_count = 2;
    const SweepResult result = run_sweep(shard);
    EXPECT_LT(result.cells.size(), result.total_cells);
    csv_shards.push_back(csv_string(result));
    json_shards.push_back(json_string(result));
  }
  // Merge is order-insensitive in its inputs.
  EXPECT_EQ(merge_csv(csv_shards), csv_whole);
  EXPECT_EQ(merge_csv({csv_shards[1], csv_shards[0]}), csv_whole);
  EXPECT_EQ(merge_json(json_shards), json_whole);
  EXPECT_EQ(merge_json({json_shards[1], json_shards[0]}), json_whole);
}

TEST(ShardMerge, RejectsIncompleteOrMismatchedShardSets) {
  SweepSpec shard = small_spec(1);
  shard.shard_count = 2;
  shard.shard_index = 1;
  const std::string one = csv_string(run_sweep(shard));
  shard.shard_index = 2;
  const std::string two = csv_string(run_sweep(shard));

  EXPECT_THROW(merge_csv({}), PreconditionViolation);
  EXPECT_THROW(merge_csv({one}), PreconditionViolation);        // missing 2/2
  EXPECT_THROW(merge_csv({one, one}), PreconditionViolation);   // duplicate
  // A different sweep's shard must be refused by the fingerprint.
  SweepSpec other = small_spec(1);
  other.sizes = {12};
  other.shard_count = 2;
  other.shard_index = 2;
  EXPECT_THROW(merge_csv({one, csv_string(run_sweep(other))}),
               PreconditionViolation);
  // Single-process reports carry no shard stamp and must be refused.
  EXPECT_THROW(merge_csv({csv_string(run_sweep(small_spec(1)))}),
               PreconditionViolation);

  shard.shard_index = 1;
  const std::string json_one = json_string(run_sweep(shard));
  EXPECT_THROW(merge_json({json_one}), PreconditionViolation);
  EXPECT_THROW(merge_json({json_string(run_sweep(small_spec(1)))}),
               PreconditionViolation);
  // Shards written with different --timing settings have differently
  // shaped rows and must refuse to merge.
  shard.shard_index = 2;
  const std::string json_two_timed = json_string(run_sweep(shard), true);
  EXPECT_THROW(merge_json({json_one, json_two_timed}), PreconditionViolation);
}

// ------------------------------------------------------------ streaming ---

TEST(SweepStreaming, RowsArriveInGridOrderWithoutSolutionBitsets) {
  const SweepSpec spec = small_spec(4);
  std::vector<std::uint64_t> order;
  const SweepSummary summary =
      run_sweep_stream(spec, [&](const CellResult& row) {
        order.push_back(row.cell_index);
        // Sweep mode drops the n-bit solution sets; only sizes survive.
        EXPECT_EQ(row.solution.universe_size(), 0);
        EXPECT_GT(row.solution_size, 0u);
      });
  EXPECT_EQ(summary.cells, order.size());
  EXPECT_EQ(summary.total_cells, order.size());  // 1/1 shard = whole grid
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.timeout, 0u);
  EXPECT_EQ(summary.infeasible, 0u);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], i) << "rows must stream in grid order";
}

}  // namespace
}  // namespace pg::scenario
