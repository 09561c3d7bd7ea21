// End-to-end tests for the CLI engine (scenario::run_cli): subcommand
// dispatch, the strict argument validation the old binary lacked (bad
// algorithm/scenario names, r < 1, out-of-range epsilon must fail with a
// clear message and exit code 2), and the run/sweep happy paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/spawn.hpp"
#include "temp_dir.hpp"

namespace pg::scenario {
namespace {

using test_support::TempDir;

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args, const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out, err;
  CliRun result;
  result.exit_code = run_cli(args, in, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

constexpr const char* kPathGraph = "4 3\n0 1\n1 2\n2 3\n";

// ----------------------------------------------------------- validation ---

TEST(Cli, NoArgsPrintsUsageAndFails) {
  const CliRun r = cli({});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownSubcommandRejected) {
  const CliRun r = cli({"frobnicate"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown subcommand 'frobnicate'"), std::string::npos);
}

TEST(Cli, UnknownAlgorithmRejectedWithAlternatives) {
  const CliRun r = cli({"run", "quantum-mvc"}, kPathGraph);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown algorithm 'quantum-mvc'"), std::string::npos);
  EXPECT_NE(r.err.find("mvc"), std::string::npos);  // lists valid names
}

TEST(Cli, UnknownScenarioRejected) {
  const CliRun r = cli({"run", "mvc", "--scenario", "moon", "--n", "8"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown scenario 'moon'"), std::string::npos);
}

TEST(Cli, RejectsOutOfRangeArguments) {
  EXPECT_EQ(cli({"run", "mvc", "--r", "0"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--r", "-3"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--epsilon", "0"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--epsilon", "1.5"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--epsilon", "-0.5"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--n", "0", "--scenario", "path"}).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--bogus-flag", "1"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--epsilon"}, kPathGraph).exit_code, 2);
  // Malformed numbers are rejected outright, not silently truncated.
  EXPECT_EQ(cli({"run", "mvc", "--r", "2x"}, kPathGraph).exit_code, 2);
  EXPECT_EQ(cli({"run", "mvc", "--epsilon", "abc"}, kPathGraph).exit_code, 2);
  // Legacy positional epsilon is validated too.
  EXPECT_EQ(cli({"mvc", "7"}, kPathGraph).exit_code, 2);
}

TEST(Cli, RejectsPowersTheAlgorithmCannotExpress) {
  const CliRun r = cli({"run", "mvc", "--r", "3"}, kPathGraph);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cannot target r=3"), std::string::npos);
}

TEST(Cli, RejectsEpsilonForEpsilonBlindAlgorithms) {
  // The run path used to zero a user-supplied epsilon silently when the
  // algorithm ignores it; per the strict-validation convention both the
  // flag and the legacy positional spelling must exit 2 instead.
  const CliRun flag =
      cli({"run", "matching", "--epsilon", "0.5", "--r", "1"}, kPathGraph);
  EXPECT_EQ(flag.exit_code, 2);
  EXPECT_NE(flag.err.find("does not use epsilon"), std::string::npos)
      << flag.err;
  const CliRun positional =
      cli({"run", "matching", "0.5", "--r", "1"}, kPathGraph);
  EXPECT_EQ(positional.exit_code, 2);
  EXPECT_NE(positional.err.find("does not use epsilon"), std::string::npos);
  // The legacy top-level spelling funnels through the same check.
  EXPECT_EQ(cli({"naive", "0.5"}, kPathGraph).exit_code, 2);
  // Not passing epsilon at all stays fine.
  EXPECT_EQ(cli({"run", "matching", "--r", "1"}, kPathGraph).exit_code, 0);
}

TEST(Cli, RejectsWeightingForWeightBlindAlgorithms) {
  const CliRun r =
      cli({"run", "matching", "--weighting", "zipf", "--r", "1"}, kPathGraph);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("does not use node weights"), std::string::npos);
}

TEST(Cli, RejectsUnknownWeightings) {
  const CliRun r = cli({"run", "mwvc", "--weighting", "moon"}, kPathGraph);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown weighting 'moon'"), std::string::npos);
  EXPECT_EQ(
      cli({"sweep", "--sizes", "8", "--weights", "moon"}).exit_code, 2);
  // split_list keeps the bracketed parameters together, so this fails on
  // the lo <= hi range check, not as a mangled unknown name.
  const CliRun range =
      cli({"sweep", "--sizes", "8", "--weights", "uniform[9,2]"});
  EXPECT_EQ(range.exit_code, 2);
  EXPECT_NE(range.err.find("1 <= lo <= hi"), std::string::npos) << range.err;
}

TEST(Cli, ParametrizedWeightingsSurviveTheCommaListGrammar) {
  // Both separator spellings of a parametrized uniform weighting work in
  // the comma-separated --weights list and canonicalize to the
  // comma-free ':' form in the report, keeping the CSV column count
  // intact.
  for (const char* spelling : {"uniform[2:9]", "uniform[2,9]"}) {
    const CliRun r = cli({"sweep", "--scenarios", "ba", "--algorithms",
                          "mwvc", "--sizes", "10", "--powers", "2",
                          "--weights", std::string(spelling) + ",zipf",
                          "--seeds", "1", "--csv", "-"});
    EXPECT_EQ(r.exit_code, 0) << spelling << ": " << r.err;
    EXPECT_NE(r.out.find(",uniform[2:9],"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find(",zipf,"), std::string::npos);
    // header + 2 weightings x 1 cell
    EXPECT_EQ(2u + 1u, static_cast<std::size_t>(std::count(
                           r.out.begin(), r.out.end(), '\n')));
  }
}

TEST(Cli, SweepRejectsDimensionsNoAlgorithmConsumes) {
  // --epsilons/--weights whose whole algorithm list ignores them would
  // silently collapse; they are rejected like the run path's flags.
  const CliRun eps = cli({"sweep", "--sizes", "8", "--algorithms",
                          "matching", "--epsilons", "0.5"});
  EXPECT_EQ(eps.exit_code, 2);
  EXPECT_NE(eps.err.find("no requested algorithm uses epsilon"),
            std::string::npos)
      << eps.err;
  const CliRun wts = cli({"sweep", "--sizes", "8", "--algorithms",
                          "matching,mvc", "--weights", "zipf"});
  EXPECT_EQ(wts.exit_code, 2);
  EXPECT_NE(wts.err.find("no requested algorithm uses node weights"),
            std::string::npos);
  // One consuming algorithm in the list legitimizes the dimension.
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--algorithms", "matching,mvc",
                 "--epsilons", "0.5"})
                .exit_code,
            0);
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--algorithms", "matching,mwvc",
                 "--weights", "zipf"})
                .exit_code,
            0);
}

TEST(Cli, SweepValidatesItsLists) {
  EXPECT_EQ(cli({"sweep"}).exit_code, 2);  // --sizes required
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--algorithms", "nope"}).exit_code,
            2);
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--epsilons", "2"}).exit_code, 2);
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--powers", "0"}).exit_code, 2);
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--threads", "0"}).exit_code, 2);
  EXPECT_EQ(cli({"sweep", "--sizes", "x"}).exit_code, 2);
}

TEST(Cli, SweepValidatesShardSpecs) {
  auto sweep_shard = [](const std::string& shard) {
    return cli({"sweep", "--sizes", "8", "--shard", shard});
  };
  // 1 <= i <= k, integers only, exit 2 with a usage-style message.
  EXPECT_EQ(sweep_shard("0/2").exit_code, 2);
  EXPECT_EQ(sweep_shard("3/2").exit_code, 2);
  EXPECT_EQ(sweep_shard("1/0").exit_code, 2);
  EXPECT_EQ(sweep_shard("-1/2").exit_code, 2);
  EXPECT_EQ(sweep_shard("2").exit_code, 2);
  EXPECT_EQ(sweep_shard("a/b").exit_code, 2);
  EXPECT_EQ(sweep_shard("1/2x").exit_code, 2);
  EXPECT_EQ(cli({"sweep", "--sizes", "8", "--shard"}).exit_code, 2);
  const CliRun r = sweep_shard("5/4");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("shard index"), std::string::npos) << r.err;
}

TEST(Cli, MergeValidatesItsArguments) {
  EXPECT_EQ(cli({"merge"}).exit_code, 2);  // no output selected
  EXPECT_EQ(cli({"merge", "--csv", "-"}).exit_code, 2);  // no inputs
  EXPECT_EQ(cli({"merge", "--bogus", "x"}).exit_code, 2);
  EXPECT_EQ(
      cli({"merge", "--csv", "-", "--json", "-", "somefile"}).exit_code, 2);
  const CliRun missing =
      cli({"merge", "--csv", "-", "/nonexistent/shard1.csv"});
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.err.find("cannot read"), std::string::npos);
}

TEST(Cli, ShardedSweepsMergeToTheSingleProcessBytes) {
  const std::vector<std::string> base = {
      "sweep", "--scenarios", "path,ba,tree", "--algorithms",
      "gr-mvc,matching", "--sizes", "10,14", "--powers", "1,2", "--seeds",
      "1,2"};
  auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  const TempDir dir;
  const std::string s1 = dir.file("shard1.csv");
  const std::string s2 = dir.file("shard2.csv");

  const CliRun single = cli(with({"--csv", "-"}));
  EXPECT_EQ(single.exit_code, 0) << single.err;
  EXPECT_EQ(cli(with({"--shard", "1/2", "--csv", s1})).exit_code, 0);
  EXPECT_EQ(cli(with({"--shard", "2/2", "--csv", s2})).exit_code, 0);

  const CliRun merged = cli({"merge", "--csv", "-", s1, s2});
  EXPECT_EQ(merged.exit_code, 0) << merged.err;
  EXPECT_EQ(merged.out, single.out);

  // A missing shard is a hard error, not a silent partial merge.
  const CliRun partial = cli({"merge", "--csv", "-", s1});
  EXPECT_EQ(partial.exit_code, 2);
  EXPECT_NE(partial.err.find("missing shard"), std::string::npos)
      << partial.err;
}

TEST(Cli, SweepRejectsZeroCellGrids) {
  // mvc needs even r, so this grid expands to nothing — an almost-certain
  // typo that must not read as "all cells ok".
  const CliRun r = cli({"sweep", "--sizes", "8", "--algorithms", "mvc",
                        "--powers", "1,3"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("zero cells"), std::string::npos);
}

// ------------------------------------------------------------ happy path ---

TEST(Cli, ListingsAndHelpSucceed) {
  const CliRun scenarios = cli({"list-scenarios"});
  EXPECT_EQ(scenarios.exit_code, 0);
  EXPECT_NE(scenarios.out.find("gnp-sparse"), std::string::npos);
  EXPECT_NE(scenarios.out.find("planted"), std::string::npos);

  const CliRun algorithms = cli({"list-algorithms"});
  EXPECT_EQ(algorithms.exit_code, 0);
  EXPECT_NE(algorithms.out.find("mvc53"), std::string::npos);
  EXPECT_NE(algorithms.out.find("gr-mwvc"), std::string::npos);

  const CliRun weightings = cli({"list-weightings"});
  EXPECT_EQ(weightings.exit_code, 0);
  EXPECT_NE(weightings.out.find("degree-proportional"), std::string::npos);
  EXPECT_NE(weightings.out.find("zipf"), std::string::npos);

  EXPECT_EQ(cli({"help"}).exit_code, 0);
}

TEST(Cli, RunWeightedCellPrintsWeightedMetrics) {
  const CliRun r = cli({"run", "mwvc", "--scenario", "ba", "--n", "16",
                        "--epsilon", "0.5", "--weighting",
                        "degree-proportional", "--seed", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("weighting     : degree-proportional"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("baseline wt   : exact"), std::string::npos) << r.out;
  // The old registry spelling keeps working through the alias.
  EXPECT_EQ(cli({"run", "mwvc-unit", "--scenario", "ba", "--n", "12",
                 "--epsilon", "0.5"})
                .exit_code,
            0);
}

TEST(Cli, SweepWithWeightsEmitsWeightedColumnsDeterministically) {
  const std::vector<std::string> args = {
      "sweep",     "--scenarios", "ba",         "--algorithms",
      "mwvc,gr-mwvc", "--sizes",  "14",         "--powers",
      "2",         "--epsilons",  "0.5",        "--weights",
      "unit,degree-proportional,zipf", "--seeds", "1", "--csv", "-"};
  const CliRun once = cli(args);
  EXPECT_EQ(once.exit_code, 0) << once.err;
  EXPECT_NE(once.out.find(",weighting,"), std::string::npos);
  EXPECT_NE(once.out.find(",solution_weight,"), std::string::npos);
  EXPECT_NE(once.out.find(",ratio_weight"), std::string::npos);
  EXPECT_NE(once.out.find(",degree-proportional,"), std::string::npos);
  // header + 2 algorithms x 3 weightings
  EXPECT_EQ(6u + 1u, static_cast<std::size_t>(std::count(
                         once.out.begin(), once.out.end(), '\n')));
  std::vector<std::string> threaded = args;
  threaded.push_back("--threads");
  threaded.push_back("4");
  EXPECT_EQ(once.out, cli(threaded).out);
}

TEST(Cli, RunOnStdinGraph) {
  const CliRun r = cli({"run", "mvc", "--epsilon", "0.5"}, kPathGraph);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("solution size : 2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("feasible      : yes"), std::string::npos);
}

TEST(Cli, LegacySpellingStillWorks) {
  const CliRun r = cli({"mvc", "0.5"}, kPathGraph);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("solution size : 2"), std::string::npos);
  // Old aliases resolve to the registry names.
  EXPECT_EQ(cli({"naive"}, kPathGraph).exit_code, 0);
}

TEST(Cli, RunOnScenario) {
  const CliRun r = cli({"run", "matching", "--scenario", "ba", "--n", "16",
                        "--r", "1", "--seed", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("feasible      : yes"), std::string::npos);
  EXPECT_NE(r.out.find("baseline      : exact"), std::string::npos);
}

TEST(Cli, SweepEmitsDeterministicCsv) {
  const std::vector<std::string> args = {
      "sweep",      "--scenarios", "path,ba",     "--algorithms",
      "gr-mvc",     "--sizes",     "10",          "--powers",
      "2",          "--epsilons",  "0.5",         "--seeds",
      "1,2",        "--csv",       "-"};
  const CliRun once = cli(args);
  EXPECT_EQ(once.exit_code, 0) << once.err;
  EXPECT_NE(once.out.find("scenario,algorithm,n,r,epsilon"),
            std::string::npos);
  EXPECT_EQ(4u + 1u, static_cast<std::size_t>(std::count(
                         once.out.begin(), once.out.end(), '\n')))
      << "expected header + 4 cells";
  std::vector<std::string> threaded = args;
  threaded.push_back("--threads");
  threaded.push_back("4");
  EXPECT_EQ(once.out, cli(threaded).out);
  EXPECT_NE(once.err.find("4 cells"), std::string::npos) << once.err;
}

TEST(Cli, SweepCsvAndJsonToSharedStdoutEmitSequentially) {
  // Both formats on one target must land as two complete documents (CSV
  // first), never interleaved row-by-row.
  const CliRun r = cli({"sweep", "--scenarios", "path", "--algorithms",
                        "gr-mvc", "--sizes", "10", "--powers", "2", "--csv",
                        "-", "--json", "-"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const auto csv_at = r.out.find("cell_index,scenario");
  const auto json_at = r.out.find("{\n  \"spec\": {");
  ASSERT_NE(csv_at, std::string::npos);
  ASSERT_NE(json_at, std::string::npos);
  EXPECT_LT(csv_at, json_at);
  // Every line before the JSON document is a CSV header or row; the JSON
  // block contains no spliced CSV rows.
  EXPECT_EQ(r.out.find("\"cells\": [0,"), std::string::npos);
  EXPECT_EQ(r.out.substr(json_at).find(",path,gr-mvc,10,2,"),
            std::string::npos);
}

TEST(Cli, CsvAndJsonNamingOneNewFileLeaveTheJsonAlone) {
  // Two spellings of one not-yet-existing relative file are one target:
  // the file must end up holding the JSON document alone — in-process and
  // under --spawn — never the CSV and JSON interleaved through two
  // independent handles.
  const std::string name = "pg_cli_shared_target.out";
  const std::vector<std::string> base = {
      "sweep", "--scenarios", "path", "--algorithms", "matching",
      "--sizes", "8", "--seeds", "1,2"};
  std::vector<std::string> json_only = base;
  json_only.insert(json_only.end(), {"--json", "-"});
  const CliRun reference = cli(json_only);
  ASSERT_EQ(reference.exit_code, 0) << reference.err;
  for (const bool spawn : {false, true}) {
    if (spawn && !spawn_supported()) continue;
    std::filesystem::remove(name);
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--csv", name, "--json", "./" + name});
    if (spawn) args.insert(args.end(), {"--spawn", "2"});
    const CliRun r = cli(args);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(name, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), reference.out) << "spawn=" << spawn;
  }
  std::filesystem::remove(name);
}

TEST(Cli, SweepJsonToStdout) {
  const CliRun r = cli({"sweep", "--scenarios", "path", "--algorithms",
                        "matching", "--sizes", "8", "--powers", "1,2",
                        "--json", "-"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"cells\": ["), std::string::npos);
  EXPECT_NE(r.out.find("\"feasible\": true"), std::string::npos);
}

// ------------------------------------------------- real-graph ingestion ---

// A 6-cycle with one chord, sparse ids: enough structure for every
// algorithm while keeping the pipeline tests instant.
constexpr const char* kSnapText =
    "# tiny snap-style input\n"
    "10 20\n20 30\n30 40\n40 50\n50 60\n60 10\n10 40\n";

TEST(Cli, ImportWritesAnOpenablePgcsrAndReportsStats) {
  const TempDir dir;
  const std::string out_path = dir.file("g.pgcsr");
  const CliRun r = cli({"import", "-", out_path}, kSnapText);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("import: n = 6, m = 7"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("ids remapped"), std::string::npos) << r.err;

  // The artifact feeds straight into `run` as a file: scenario and the
  // human output advertises the degree regime for file-backed graphs.
  const CliRun run = cli({"run", "gr-mvc", "--scenario",
                          "file:" + out_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("n = 6"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("degree regime : "), std::string::npos) << run.out;
}

TEST(Cli, ImportRejectsMalformedInputWithExitTwo) {
  const TempDir dir;
  const CliRun r =
      cli({"import", "-", dir.file("g.pgcsr")}, "1 2\nbroken line\n");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("line 2"), std::string::npos) << r.err;
}

TEST(Cli, ImportValidatesItsArguments) {
  EXPECT_EQ(cli({"import"}).exit_code, 2);
  EXPECT_EQ(cli({"import", "-"}).exit_code, 2);
  EXPECT_EQ(cli({"import", "-", "out", "extra"}).exit_code, 2);
  EXPECT_EQ(cli({"import", "--bogus", "out"}).exit_code, 2);
  EXPECT_EQ(cli({"import", "/nonexistent/in.txt", "out"}).exit_code, 2);
}

TEST(Cli, RunRejectsMismatchedExplicitNForFileScenarios) {
  const TempDir dir;
  const std::string out_path = dir.file("g.pgcsr");
  ASSERT_EQ(cli({"import", "-", out_path}, kSnapText).exit_code, 0);
  const CliRun r = cli({"run", "gr-mvc", "--scenario", "file:" + out_path,
                        "--n", "7"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("does not match"), std::string::npos) << r.err;
  // The matching --n is accepted.
  EXPECT_EQ(cli({"run", "gr-mvc", "--scenario", "file:" + out_path, "--n",
                 "6"})
                .exit_code,
            0);
}

TEST(Cli, RunRejectsCorruptedPgcsrWithExitTwo) {
  const TempDir dir;
  const std::string out_path = dir.file("g.pgcsr");
  ASSERT_EQ(cli({"import", "-", out_path}, kSnapText).exit_code, 0);
  // Truncate the tail: strict rejection, CLI exit 2.
  std::error_code ec;
  std::filesystem::resize_file(out_path,
                               std::filesystem::file_size(out_path) - 3, ec);
  ASSERT_FALSE(ec);
  const CliRun r = cli({"run", "gr-mvc", "--scenario", "file:" + out_path});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find(".pgcsr"), std::string::npos) << r.err;
}

TEST(Cli, FileScenarioSweepAutoClassifiesAndGeneratedSweepsStayUnchanged) {
  const TempDir dir;
  const std::string out_path = dir.file("g.pgcsr");
  ASSERT_EQ(cli({"import", "-", out_path}, kSnapText).exit_code, 0);

  const CliRun file_sweep =
      cli({"sweep", "--scenarios", "file:" + out_path, "--algorithms",
           "gr-mvc", "--sizes", "6", "--csv", "-"});
  EXPECT_EQ(file_sweep.exit_code, 0) << file_sweep.err;
  EXPECT_NE(file_sweep.out.find(",regime,regime_alpha"), std::string::npos)
      << file_sweep.out;

  // Generator sweeps keep their historic header unless --classify asks.
  const CliRun plain = cli({"sweep", "--scenarios", "path", "--algorithms",
                            "gr-mvc", "--sizes", "6", "--csv", "-"});
  EXPECT_EQ(plain.exit_code, 0) << plain.err;
  EXPECT_EQ(plain.out.find(",regime"), std::string::npos) << plain.out;

  const CliRun opted = cli({"sweep", "--scenarios", "path", "--algorithms",
                            "gr-mvc", "--sizes", "6", "--classify", "--csv",
                            "-"});
  EXPECT_EQ(opted.exit_code, 0) << opted.err;
  EXPECT_NE(opted.out.find(",regime,regime_alpha"), std::string::npos)
      << opted.out;
  EXPECT_NE(opted.out.find(",bounded,"), std::string::npos) << opted.out;
}

}  // namespace
}  // namespace pg::scenario
