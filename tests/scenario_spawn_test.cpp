// Tests for the self-driving multi-process orchestrator (`sweep --spawn`):
// the deterministic LPT partition, byte-identical merges at any child
// count (CSV and JSON, single-child passthrough included), and the
// recovery ladder — a crashed child fails the run, --allow-partial turns
// its cells into status=missing rows, and a journaled re-run with
// --resume replays the survivors and recovers the rest byte-identically.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PG_TEST_HAS_FORK 1
#endif

#include "scenario/cli.hpp"
#include "scenario/fault.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/spawn.hpp"
#include "util/check.hpp"
#include "temp_dir.hpp"

namespace pg::scenario {
namespace {

using test_support::TempDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// 4 topology groups x 1 cell (matching ignores epsilon/weights), equal
/// predicted cost, so the LPT deal is exactly round-robin by index.
SweepSpec four_group_spec() {
  SweepSpec spec;
  spec.scenarios = {"grid"};
  spec.algorithms = {"matching"};
  spec.sizes = {32};
  spec.seeds = {1, 2, 3, 4};
  return spec;
}

std::string run_single(const SweepSpec& spec) {
  std::ostringstream csv;
  CsvWriter writer(csv);
  writer.begin(spec, count_grid_cells(spec));
  run_sweep_stream(spec, [&](const CellResult& row) { writer.row(row); });
  return csv.str();
}

// ---------------------------------------------------------------- plan ---

TEST(SpawnPlan, DeterministicBalancedAndAscending) {
  SweepSpec spec;
  spec.scenarios = {"grid", "chung-lu"};
  spec.algorithms = {"matching"};
  spec.sizes = {16, 64};
  spec.seeds = {1, 2};  // 8 groups, two size classes
  const SpawnPlan a = plan_spawn(spec, 3, nullptr);
  const SpawnPlan b = plan_spawn(spec, 3, nullptr);
  ASSERT_EQ(a.shards.size(), 3u);
  EXPECT_EQ(a.shards, b.shards);  // pure function of the spec
  EXPECT_EQ(a.costs, b.costs);
  std::vector<std::size_t> seen;
  for (const auto& shard : a.shards) {
    ASSERT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    seen.insert(seen.end(), shard.begin(), shard.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // LPT keeps the heaviest shard within 2x of the lightest here: every
  // shard must hold at least one of the four n=64 groups.
  for (const auto& shard : a.shards) {
    bool has_large = false;
    for (std::size_t g : shard)
      has_large |= topology_group_cells(spec, g).front().n == 64;
    EXPECT_TRUE(has_large);
  }
}

TEST(SpawnPlan, BudgetOverridesTheSizeHeuristic) {
  SweepSpec spec = four_group_spec();
  // Make group 0 predict 10x the cost of the rest: LPT must isolate it.
  const SpawnPlan plan = plan_spawn(spec, 2, [](const CellSpec& cell) {
    return cell.seed == 1 ? 1000.0 : 100.0;
  });
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.shards[1], (std::vector<std::size_t>{1, 2, 3}));
}

TEST(SpawnPlan, RejectsMoreChildrenThanGroups) {
  EXPECT_THROW(plan_spawn(four_group_spec(), 5, nullptr),
               PreconditionViolation);
}

#if PG_TEST_HAS_FORK

// --------------------------------------------------- byte-identity ------

TEST(Spawn, CsvMergesByteIdenticallyAcrossChildCounts) {
  const SweepSpec spec = four_group_spec();
  const std::string reference = run_single(spec);
  for (int children : {1, 2, 3, 4}) {
    TempDir dir;
    SpawnOptions opts;
    opts.children = children;
    std::ostringstream out, err;
    const int code = run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                                       std::nullopt, out, err);
    EXPECT_EQ(code, 0) << err.str();
    EXPECT_EQ(slurp(dir.file("merged.csv")), reference)
        << "children=" << children;
  }
}

TEST(Spawn, CliSpawnJsonMatchesSingleProcess) {
  const std::vector<std::string> base = {
      "sweep",   "--scenarios", "grid", "--algorithms", "matching",
      "--sizes", "32",          "--seeds", "1,2,3,4",   "--json", "-"};
  std::istringstream in1, in2;
  std::ostringstream single_out, single_err, spawn_out, spawn_err;
  ASSERT_EQ(run_cli(base, in1, single_out, single_err), 0);
  std::vector<std::string> spawned = base;
  spawned.push_back("--spawn");
  spawned.push_back("3");
  ASSERT_EQ(run_cli(spawned, in2, spawn_out, spawn_err), 0)
      << spawn_err.str();
  EXPECT_EQ(spawn_out.str(), single_out.str());
  EXPECT_NE(spawn_err.str().find("spawn: 3 children"), std::string::npos);
}

// ----------------------------------------------------------- recovery ---

// Global cell index of the group-g cell in four_group_spec (1 cell per
// group, groups are contiguous blocks of expand_grid order).
std::string abort_plan_for_group(std::size_t g) {
  return "abort@" + std::to_string(g);
}

TEST(Spawn, DeadChildFailsTheRunWithoutAllowPartial) {
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  const int code = run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                                     std::nullopt, out, err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.str().find("did not complete"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir.file("merged.csv")));
}

TEST(Spawn, AllowPartialMergesMissingRowsForTheDeadShard) {
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.allow_partial = true;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  const int code = run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                                     std::nullopt, out, err);
  EXPECT_EQ(code, 1);  // missing cells still fail the sweep
  const std::string merged = slurp(dir.file("merged.csv"));
  // The dead shard owned groups {1, 3}; its two cells become placeholders
  // and the survivors' rows are intact.
  std::size_t missing = 0, ok = 0;
  std::istringstream lines(merged);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(",missing,") != std::string::npos) ++missing;
    if (line.find(",ok,") != std::string::npos) ++ok;
  }
  EXPECT_EQ(missing, 2u);
  EXPECT_EQ(ok, 2u);
}

TEST(Spawn, ResumeRecoversACrashedShardByteIdentically) {
  const SweepSpec spec = four_group_spec();
  const std::string reference = run_single(spec);
  TempDir dir;

  // First run: the shard owning group 3 completes group 1, journals it,
  // then dies on group 3 (deterministic stand-in for a mid-run SIGKILL).
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(3));
  SpawnOptions crashing;
  crashing.children = 2;
  crashing.retries = 0;
  crashing.exec.journal_dir = dir.str();
  crashing.exec.fault_plan = &plan;
  std::ostringstream out1, err1;
  EXPECT_EQ(run_spawned_sweep(spec, crashing, dir.file("merged.csv"),
                              std::nullopt, out1, err1),
            1);
  EXPECT_NE(err1.str().find("did not complete"), std::string::npos);

  // Second run, same command minus the fault, with --resume: survivors
  // replay from their journals, the casualty finishes its slice, and the
  // merge reproduces the single-process bytes.
  SpawnOptions resuming;
  resuming.children = 2;
  resuming.exec.journal_dir = dir.str();
  resuming.exec.resume = true;
  std::ostringstream out2, err2;
  const int code = run_spawned_sweep(spec, resuming, dir.file("merged.csv"),
                                     std::nullopt, out2, err2);
  EXPECT_EQ(code, 0) << err2.str();
  EXPECT_EQ(slurp(dir.file("merged.csv")), reference);
  EXPECT_NE(err2.str().find("replayed"), std::string::npos);
}

TEST(Spawn, RetryRoundRelaunchesTheCasualty) {
  // An unconditional fault keeps the child dying, so both attempt rounds
  // run and the orchestrator reports the exhausted retry budget.
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.retries = 1;
  opts.progress = true;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  EXPECT_EQ(run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                              std::nullopt, out, err),
            1);
  EXPECT_NE(err.str().find("retrying"), std::string::npos);
  EXPECT_NE(err.str().find("2 attempt(s)"), std::string::npos);
}

TEST(Spawn, TransientCrashRecoversOnRetry) {
  // abort@1:1 kills the child owning cell 1 on attempt 0 only: the retry
  // must run as attempt 1, so the fault stays quiet and the sweep matches
  // the undisturbed bytes.  Without a journal nothing resumes, and the
  // respawn line must not claim otherwise.
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse("abort@1:1");
  SpawnOptions opts;
  opts.children = 2;
  opts.retries = 1;
  opts.progress = true;
  opts.exec.retry_backoff_ms = 1.0;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  EXPECT_EQ(run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                              std::nullopt, out, err),
            0)
      << err.str();
  EXPECT_EQ(slurp(dir.file("merged.csv")), run_single(spec));
  EXPECT_NE(err.str().find("retrying"), std::string::npos) << err.str();
  EXPECT_EQ(err.str().find("resuming"), std::string::npos) << err.str();
}

TEST(Spawn, ChildErrorTextReachesTheParent) {
  // A child that fails before streaming (here: --resume over journals
  // another sweep wrote) reports why in its trailer; the parent names
  // that text, not just an exit status, and writes no report.
  TempDir dir;
  SweepSpec other = four_group_spec();
  other.seeds = {5, 6, 7, 8};
  SpawnOptions writing;
  writing.children = 2;
  writing.exec.journal_dir = dir.str();
  std::ostringstream out1, err1;
  ASSERT_EQ(run_spawned_sweep(other, writing, std::nullopt, std::nullopt,
                              out1, err1),
            0)
      << err1.str();

  SpawnOptions resuming = writing;
  resuming.exec.resume = true;
  std::ostringstream out2, err2;
  EXPECT_EQ(run_spawned_sweep(four_group_spec(), resuming,
                              dir.file("merged.csv"), std::nullopt, out2,
                              err2),
            1);
  EXPECT_NE(err2.str().find("belongs to a different sweep"),
            std::string::npos)
      << err2.str();
  EXPECT_FALSE(std::filesystem::exists(dir.file("merged.csv")));
}

TEST(Spawn, TimingJsonCarriesPeakRssAtEveryChildCount) {
  // The parent writes the largest child's peak RSS into the JSON meta
  // block, whether one child or several produced the rows.
  const SweepSpec spec = four_group_spec();
  for (int children : {1, 2}) {
    SpawnOptions opts;
    opts.children = children;
    opts.timing = true;
    std::ostringstream out, err;
    ASSERT_EQ(run_spawned_sweep(spec, opts, std::nullopt, std::string("-"),
                                out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("\"meta\": {\"peak_rss_mb\": "),
              std::string::npos)
        << "children=" << children;
  }
}

TEST(Spawn, IsolatedGroupsInsideChildrenMatchIsolateAlone) {
  // Nested engines: --spawn 2 --isolate forks each shard's groups again.
  // abort@5 kills one group's child on every attempt; the shard survives
  // it, so the bytes (one failed row, the intact prefix kept) must equal
  // an in-process --isolate sweep's.
  SweepSpec spec;
  spec.scenarios = {"ba", "geo-torus"};
  spec.algorithms = {"mvc", "gr-mvc"};
  spec.sizes = {16, 20};
  spec.seeds = {1, 2};
  const FaultPlan plan = FaultPlan::parse("abort@5");
  ExecOptions isolate;
  isolate.isolate = true;
  isolate.fault_plan = &plan;
  std::ostringstream reference;
  CsvWriter writer(reference);
  writer.begin(spec, count_grid_cells(spec));
  run_sweep_stream(
      spec, [&](const CellResult& row) { writer.row(row); }, isolate);

  SpawnOptions opts;
  opts.children = 2;
  opts.exec = isolate;
  TempDir dir;
  std::ostringstream out, err;
  EXPECT_EQ(run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                              std::nullopt, out, err),
            1);  // the failed row still fails the sweep
  EXPECT_EQ(err.str().find("did not complete"), std::string::npos)
      << err.str();
  const std::string merged = slurp(dir.file("merged.csv"));
  EXPECT_EQ(merged, reference.str());
  std::size_t failed = 0;
  for (std::size_t at = merged.find(",failed,"); at != std::string::npos;
       at = merged.find(",failed,", at + 1))
    ++failed;
  EXPECT_EQ(failed, 1u);
  EXPECT_NE(merged.find("worker process killed by signal"),
            std::string::npos);
}

#endif  // PG_TEST_HAS_FORK

}  // namespace
}  // namespace pg::scenario
