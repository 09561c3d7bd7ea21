// End-to-end tests for the adversarial-sweep surface: `--fault-plan`
// argument auditing (bad tokens exit 2 naming the token), the `--certify`
// re-check pass (independent feasibility/bound verification that demotes
// silently-wrong rows to status=unverified), journal mode pinning (resume
// refuses rows written under a different adversary), resume byte-identity
// under an active fault plan, and the journal writer's partial-append
// rollback when the disk runs out mid-commit.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define PG_TEST_HAS_RLIMIT 1
#endif

#include "scenario/cli.hpp"
#include "scenario/fault.hpp"
#include "scenario/journal.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "util/check.hpp"
#include "temp_dir.hpp"

namespace pg::scenario {
namespace {

using test_support::TempDir;

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& args) {
  std::istringstream in;
  std::ostringstream out, err;
  CliRun result;
  result.exit_code = run_cli(args, in, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// The 16-cell sweep pinned throughout this file: under
/// corrupt=0.02,net-seed=9 it deterministically yields a mix of clean
/// rows, guard-tripped failures, and — the interesting part — completed
/// rows whose solutions are silently infeasible (the adapters' terminal
/// self-checks are disabled under faults, so only --certify catches
/// them).
SweepSpec pinned_spec() {
  SweepSpec spec;
  spec.scenarios = {"grid", "cycle"};
  spec.algorithms = {"mvc"};
  spec.sizes = {16, 20};
  spec.seeds = {1, 2, 3, 4};
  return spec;
}

// A corruption plan that leaves some mvc rows complete but infeasible.
// Corruptions that leave a kind's declared domain are discarded, which
// stalls the leader's upcast (a failed row); only in-range corruptions
// stay silent, so the rate is low enough for some runs to finish.
const char* kPinnedPlan = "corrupt=0.003,net-seed=11";

struct SweepRun {
  std::string csv;
  SweepSummary summary;
  std::vector<CellResult> rows;
};

SweepRun sweep_csv(const SweepSpec& spec, const ExecOptions& opts = {},
                   bool certify_column = false, bool fault_columns = false) {
  std::ostringstream out;
  CsvWriter writer(out, false, certify_column, fault_columns);
  writer.begin(spec, count_grid_cells(spec));
  SweepRun run;
  run.summary = run_sweep_stream(
      spec,
      [&](const CellResult& row) {
        writer.row(row);
        run.rows.push_back(row);
      },
      opts);
  run.csv = out.str();
  return run;
}

/// Extracts one named column from a headered CSV, "-" padded rows and
/// all — keeps the assertions below independent of column positions.
std::vector<std::string> csv_column(const std::string& csv,
                                    const std::string& name) {
  std::vector<std::string> cells;
  std::istringstream in(csv);
  std::string line;
  std::size_t target = std::string::npos;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (true) {
      const std::size_t comma = line.find(',', pos);
      fields.push_back(line.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (target == std::string::npos) {
      for (std::size_t i = 0; i < fields.size(); ++i)
        if (fields[i] == name) target = i;
      EXPECT_NE(target, std::string::npos) << "no column '" << name << "'";
      continue;
    }
    if (target >= fields.size()) {
      ADD_FAILURE() << "row shorter than header: " << line;
      continue;
    }
    cells.push_back(fields[target]);
  }
  return cells;
}

// ------------------------------------------------------ plan auditing ---

TEST(FaultPlanAudit, BadTokensExitTwoNamingTheToken) {
  const std::vector<std::string> base = {"sweep",   "--scenarios", "grid",
                                         "--algorithms", "mvc",   "--sizes",
                                         "8"};
  const auto with_plan = [&](const std::string& plan) {
    std::vector<std::string> args = base;
    args.push_back("--fault-plan");
    args.push_back(plan);
    return cli(args);
  };

  CliRun r = with_plan("drop=1.5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("drop=1.5"), std::string::npos) << r.err;

  r = with_plan("bogus=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("'bogus'"), std::string::npos) << r.err;

  r = with_plan("crash@5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("crash@5"), std::string::npos) << r.err;

  r = with_plan("corrupt=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("corrupt=abc"), std::string::npos) << r.err;

  r = with_plan("warp@3");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("'warp'"), std::string::npos) << r.err;
}

TEST(FaultPlanAudit, BadEnvironmentPlanExitsTwoNamingTheToken) {
  // gtest runs each test case in its own process here, so the
  // from_env() cache is fresh and the variable cannot leak out.
  ASSERT_EQ(::setenv("PG_FAULT_PLAN", "drop=2.0", 1), 0);
  const CliRun r = cli({"sweep", "--scenarios", "grid", "--algorithms",
                        "mvc", "--sizes", "8"});
  ::unsetenv("PG_FAULT_PLAN");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("drop=2.0"), std::string::npos) << r.err;
}

// ----------------------------------------------------------- certify ---

TEST(Certify, CleanRunCertifiesEveryRow) {
  SweepSpec spec = pinned_spec();
  spec.seeds = {1, 2};
  ExecOptions opts;
  opts.certify = true;
  const SweepRun run = sweep_csv(spec, opts, /*certify_column=*/true);
  EXPECT_EQ(run.summary.unverified, 0u);
  EXPECT_EQ(run.summary.ok, run.summary.cells);
  for (const std::string& cell : csv_column(run.csv, "certified"))
    EXPECT_EQ(cell, "yes");
}

TEST(Certify, DemotesSilentlyWrongRowsToUnverified) {
  const FaultPlan plan = FaultPlan::parse(kPinnedPlan);
  const SweepSpec spec = pinned_spec();

  // Without certify the damage is invisible in the status column: some
  // completed rows carry infeasible solutions and still say "ok" (the
  // summary tallies them as infeasible, but the row itself doesn't say).
  ExecOptions plain;
  plain.fault_plan = &plan;
  const SweepRun uncertified = sweep_csv(spec, plain, false, true);
  EXPECT_EQ(uncertified.summary.unverified, 0u);
  std::size_t silently_wrong = 0;
  for (const CellResult& row : uncertified.rows)
    if (row.status == CellStatus::kOk && !row.feasible) ++silently_wrong;
  EXPECT_GT(silently_wrong, 0u) << "pinned plan no longer bites";
  EXPECT_EQ(uncertified.summary.infeasible, silently_wrong);

  // With certify every such row is demoted, named, and counted.
  ExecOptions certified = plain;
  certified.certify = true;
  const SweepRun run = sweep_csv(spec, certified, true, true);
  EXPECT_EQ(run.summary.unverified, silently_wrong);
  EXPECT_EQ(run.summary.infeasible, 0u);
  EXPECT_EQ(run.summary.ok, uncertified.summary.ok);
  for (const CellResult& row : run.rows) {
    if (row.status == CellStatus::kOk)
      EXPECT_TRUE(row.feasible) << "cell " << row.cell_index;
    if (row.status == CellStatus::kUnverified)
      EXPECT_EQ(row.error.rfind("certify:", 0), 0u) << row.error;
  }

  // The certified column mirrors the statuses: yes for survivors, no for
  // demotions, "-" for rows that never reached certification.
  const auto statuses = csv_column(run.csv, "status");
  const auto verdicts = csv_column(run.csv, "certified");
  ASSERT_EQ(statuses.size(), verdicts.size());
  std::size_t demoted = 0;
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i] == "ok") EXPECT_EQ(verdicts[i], "yes");
    else if (statuses[i] == "unverified") { EXPECT_EQ(verdicts[i], "no"); ++demoted; }
    else EXPECT_EQ(verdicts[i], "-");
  }
  EXPECT_EQ(demoted, silently_wrong);
}

TEST(Certify, CliGatesExitCodeOnUnverifiedRows) {
  const std::vector<std::string> base = {
      "sweep",   "--scenarios", "grid,cycle", "--algorithms", "mvc",
      "--sizes", "16,20",       "--seeds",    "1,2,3,4",      "--fault-plan",
      kPinnedPlan, "--csv", "-"};
  // Even without certify the infeasible tally already fails the run —
  // but the rows themselves still read "ok" and nothing says why.
  const CliRun tolerant = cli(base);
  EXPECT_EQ(tolerant.exit_code, 1) << tolerant.err;
  EXPECT_EQ(tolerant.err.find("unverified"), std::string::npos)
      << tolerant.err;
  EXPECT_EQ(tolerant.out.find("certified"), std::string::npos);

  std::vector<std::string> strict = base;
  strict.push_back("--certify");
  const CliRun r = cli(strict);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unverified"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find(",certified,"), std::string::npos);
  EXPECT_NE(r.out.find(",unverified,"), std::string::npos);
}

// ------------------------------------------------- journal mode pinning ---

TEST(JournalMode, ResumeRefusesADifferentAdversary) {
  const FaultPlan plan = FaultPlan::parse(kPinnedPlan);
  const SweepSpec spec = pinned_spec();
  const TempDir dir;
  ExecOptions opts;
  opts.journal_dir = dir.str();
  opts.fault_plan = &plan;
  opts.certify = true;
  sweep_csv(spec, opts, true, true);

  // Same sweep, same journal — but a plan-free resume (or one with the
  // certify pass toggled off) must refuse to splice those rows.
  ExecOptions planless;
  planless.journal_dir = dir.str();
  planless.resume = true;
  EXPECT_THROW(sweep_csv(spec, planless), PreconditionViolation);

  ExecOptions uncertified;
  uncertified.journal_dir = dir.str();
  uncertified.fault_plan = &plan;
  uncertified.resume = true;
  EXPECT_THROW(sweep_csv(spec, uncertified, false, true),
               PreconditionViolation);

  // The matching mode resumes cleanly and replays every row.
  ExecOptions matching = opts;
  matching.resume = true;
  const SweepRun resumed = sweep_csv(spec, matching, true, true);
  EXPECT_EQ(resumed.summary.replayed, resumed.summary.cells);
}

TEST(JournalMode, ResumeUnderFaultPlanIsByteIdentical) {
  const FaultPlan plan = FaultPlan::parse(kPinnedPlan);
  const SweepSpec spec = pinned_spec();
  ExecOptions opts;
  opts.fault_plan = &plan;
  opts.certify = true;
  const SweepRun baseline = sweep_csv(spec, opts, true, true);

  const TempDir dir;
  ExecOptions journaled = opts;
  journaled.journal_dir = dir.str();
  sweep_csv(spec, journaled, true, true);
  const std::string path = journal_path(dir.str(), spec);

  // Chop the journal to a prefix plus a torn tail — the on-disk state a
  // kill at an arbitrary byte leaves — and resume.
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 6u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i < 6; ++i) out << lines[i] << '\n';
  out << lines[6].substr(0, lines[6].size() / 2);  // torn record
  out.close();

  ExecOptions resume = journaled;
  resume.resume = true;
  const SweepRun resumed = sweep_csv(spec, resume, true, true);
  EXPECT_EQ(resumed.csv, baseline.csv);
  EXPECT_EQ(resumed.summary.replayed, 5u);  // header + 5 intact records
}

#if defined(__unix__) || defined(__APPLE__)
TEST(JournalMode, ByteIdenticalAfterSigkillUnderFaultPlan) {
  const FaultPlan plan = FaultPlan::parse(kPinnedPlan);
  const SweepSpec spec = pinned_spec();
  ExecOptions opts;
  opts.fault_plan = &plan;
  opts.certify = true;
  const SweepRun baseline = sweep_csv(spec, opts, true, true);
  const TempDir dir;

  // A worker SIGKILLed mid-sweep under an active adversary loses nothing
  // but the in-flight group; the resumed run reproduces the report — and
  // the per-row FaultStats in it — byte for byte at any thread count.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    ExecOptions child = opts;
    child.journal_dir = dir.str();
    std::size_t seen = 0;
    try {
      run_sweep_stream(
          spec,
          [&](const CellResult&) {
            if (++seen == 5) ::raise(SIGKILL);
          },
          child);
    } catch (...) {
    }
    ::_exit(0);  // not reached when the kill lands
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  for (const int threads : {1, 2, 4}) {
    TempDir fresh;
    SweepSpec resumed_spec = spec;
    resumed_spec.congest_threads = threads;
    std::filesystem::copy_file(journal_path(dir.str(), spec),
                               journal_path(fresh.str(), resumed_spec));
    ExecOptions resume = opts;
    resume.journal_dir = fresh.str();
    resume.resume = true;
    const SweepRun run = sweep_csv(resumed_spec, resume, true, true);
    EXPECT_EQ(run.csv, baseline.csv) << "congest_threads=" << threads;
    EXPECT_GT(run.summary.replayed, 0u);
  }
}
#endif

// --------------------------------------------------- journal durability ---

#ifdef PG_TEST_HAS_RLIMIT
TEST(JournalDurability, PartialAppendIsRolledBackWhenTheDiskFills) {
  SweepSpec spec;
  spec.scenarios = {"grid"};
  spec.algorithms = {"mvc"};
  spec.sizes = {8};
  spec.exact_baseline_max_n = 0;
  std::vector<CellResult> rows;
  run_sweep_stream(spec,
                   [&](const CellResult& row) { rows.push_back(row); });
  ASSERT_EQ(rows.size(), 1u);

  const TempDir dir;
  const std::string path = journal_path(dir.str(), spec);
  const std::size_t total = count_grid_cells(spec);
  JournalWriter writer(path, spec, total, 0);
  writer.append(rows[0]);
  writer.commit();
  const auto durable = std::filesystem::file_size(path);

  // Simulate the disk running out mid-commit: a file-size resource limit
  // makes the next large append fail partway, exactly like ENOSPC.
  struct rlimit old {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old), 0);
  ::signal(SIGXFSZ, SIG_IGN);  // take EFBIG from write(), not a signal
  struct rlimit capped = old;
  capped.rlim_cur = static_cast<rlim_t>(durable + 16);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);

  for (int i = 0; i < 64; ++i) writer.append(rows[0]);
  bool threw = false;
  std::string message;
  try {
    writer.commit();
  } catch (const PreconditionViolation& e) {
    threw = true;
    message = e.what();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old), 0);
  ::signal(SIGXFSZ, SIG_DFL);

  ASSERT_TRUE(threw) << "commit past the limit must fail";
  EXPECT_NE(message.find("rolled back"), std::string::npos) << message;
  // No torn record survives: the file ends at the last durable commit and
  // replays exactly the committed rows.
  EXPECT_EQ(std::filesystem::file_size(path), durable);
  const JournalContents contents = read_journal(path, spec, total);
  EXPECT_EQ(contents.rows.size(), 1u);
  EXPECT_EQ(contents.valid_bytes, durable);
}
#endif  // PG_TEST_HAS_RLIMIT

}  // namespace
}  // namespace pg::scenario
