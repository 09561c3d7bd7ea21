// The child engine behind every forked sweep process, and its callers.
//
// `run_children` forks one child per job; each streams its rows up a pipe
// as journal records (scenario/journal.hpp) and ends with one checksummed
// trailer line.  The parent decodes the intact prefix as it arrives,
// reaps each child with wait4 (exit text, peak RSS), and relaunches a job
// that did not exit cleanly with every expected row, up to a retry
// budget, after a backoff that is a poll deadline rather than a sleep.
// The child's attempt number (`child_attempt()`) is what FaultPlan's
// `:k` bounds read, whichever caller forked it.
//
// `--isolate` is a one-job call per topology group (runner.cpp).  `sweep
// --spawn k` is a k-job call (`run_spawned_sweep`): each child runs
// `run_sweep_stream` over a cost-balanced, explicit group assignment
// (SweepSpec::shard_groups), journaling like a manual `--shard i/k`, and
// the parent renders the report once, in cell_index order, after every
// child settles.  Rows are a pure function of the spec, so any partition
// yields the single-process bytes; a killed child's journal resumes on
// its next attempt, and `--allow-partial` turns shards that stayed dead
// into status=missing rows.
//
// The partition is deterministic (longest-processing-time over predicted
// group costs, ties by group index), so re-running the same command —
// crash recovery included — deals the same groups to the same shard,
// which is what lets a child's journal survive orchestrator restarts.
//
// Fork without exec: children re-enter the runner in-process, so the
// engine works from any host binary (the CLI, the test harness) without
// knowing its own executable path.  POSIX only; `spawn_supported` says
// whether this platform can.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace pg::scenario {

/// The cost-balanced deal: shard i runs group indices shards[i]
/// (ascending).  Shards are never empty — the orchestrator clamps the
/// child count to the group count first.
struct SpawnPlan {
  std::vector<std::vector<std::size_t>> shards;
  std::vector<double> costs;  // predicted total cost per shard
};

/// Partitions the spec's topology groups into `children` shards by LPT
/// (longest processing time first) over predicted group cost.  A group's
/// cost is the sum of its cells' predicted wall-clock from `budget_ms`
/// (e.g. the --budgets file) when that yields a positive value, falling
/// back to n·r per cell — so bigger topologies and deeper powers weigh
/// more even without calibration data.  Deterministic: ties break toward
/// the lower shard index and groups stay ascending within a shard.
/// Requires 1 <= children <= count_topology_groups(spec).
SpawnPlan plan_spawn(const SweepSpec& spec, int children,
                     const std::function<double(const CellSpec&)>& budget_ms);

/// One job's outcome once its last attempt settled.
struct ChildRun {
  std::vector<CellResult> rows;  // the last attempt's intact row prefix
  bool clean = false;  // it exited 0 after streaming every expected row
  int attempts = 0;    // children forked; 0 when the first fork failed
  // Why the last attempt was not clean: the child's fatal error when it
  // sent one, else how it ended ("worker process killed by signal 6").
  std::string exit_text;
  std::size_t replayed = 0;  // rows the child replayed from its journal
  double peak_rss_mb = 0.0;  // the last attempt's wait4 ru_maxrss
};

/// Runs in the forked child: streams job `job`'s rows through `emit` and
/// returns how many it replayed from a journal.  A throw becomes the
/// trailer's error text and a nonzero exit.
using ChildBody =
    std::function<std::size_t(std::size_t job, const RowSink& emit)>;

/// Optional parent-side observers (progress lines), called on the thread
/// that runs the engine: a launch, each decoded row (`run.rows` so far),
/// each reap.
struct ChildEvents {
  std::function<void(std::size_t job, int attempt, long pid)> launched;
  std::function<void(std::size_t job, const ChildRun& run)> streamed;
  std::function<void(std::size_t job, const ChildRun& run, bool retrying)>
      settled;
};

/// Forks one child per job — job j streams exactly the cell indices
/// `cells[j]`, in order — and returns each job's outcome once all have
/// settled.  An unclean job is relaunched up to `retries` more times,
/// attempt a after backoff_ms · 2^(a-1).  Thread-safe; without fork()
/// every job reports attempts == 0.
std::vector<ChildRun> run_children(
    const std::vector<std::vector<std::size_t>>& cells, int retries,
    double backoff_ms, const ChildBody& body, const ChildEvents& events = {});

/// The retry attempt (0-based) this process runs as; 0 unless the engine
/// forked it.
int child_attempt();

struct SpawnOptions {
  /// Requested child count (>= 1); clamped to the number of topology
  /// groups, so small grids simply spawn fewer workers.
  int children = 2;
  /// Extra attempts for a child that died abnormally (signal, nonzero
  /// exit, or rows missing), with the engine's backoff.  With a journal,
  /// each retry resumes from the child's journal; without one it re-runs
  /// the child's whole slice (byte-identical either way).
  int retries = 0;
  /// Fill a child's cells with status=missing placeholders instead of
  /// failing when it stayed dead after all retries.
  bool allow_partial = false;
  /// Print `[i/k]` child progress lines to the diagnostic stream.
  bool progress = false;
  /// Include wall-clock fields in the reports, and the largest child's
  /// peak RSS in the JSON meta block.
  bool timing = false;
  /// Emit the degree-regime columns (forwarded to the writers; the CLI
  /// turns this on automatically when any scenario is file:-backed).
  bool classify = false;
  /// Forwarded to every child's ExecOptions (journal_dir/resume give each
  /// child its own journal file inside the shared directory); its
  /// retry_backoff_ms also paces respawns.
  ExecOptions exec;
};

/// True when this platform can fork shard children (POSIX).
bool spawn_supported();

/// Runs the sweep as a fleet of forked shard children and writes the
/// report(s) from their rows.  `csv_path`/`json_path` follow the CLI
/// convention (nullopt = not requested, "-" = `out`).  Child progress and the final
/// summary line go to `err`.  Returns the CLI exit code: 0 when every
/// cell ran ok and feasible, 1 otherwise (failed/timeout/infeasible/
/// missing cells, or a child that stayed dead without --allow-partial).
int run_spawned_sweep(const SweepSpec& spec, const SpawnOptions& opts,
                      const std::optional<std::string>& csv_path,
                      const std::optional<std::string>& json_path,
                      std::ostream& out, std::ostream& err);

}  // namespace pg::scenario
