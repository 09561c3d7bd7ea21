#include "scenario/spawn.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PG_HAS_FORK 1
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <cerrno>
#else
#define PG_HAS_FORK 0
#endif

#include "scenario/journal.hpp"
#include "scenario/report.hpp"
#include "util/check.hpp"

namespace pg::scenario {

bool spawn_supported() { return PG_HAS_FORK != 0; }

SpawnPlan plan_spawn(const SweepSpec& spec, int children,
                     const std::function<double(const CellSpec&)>& budget_ms) {
  const std::size_t groups = count_topology_groups(spec);
  PG_REQUIRE(children >= 1, "spawn needs at least one child");
  PG_REQUIRE(static_cast<std::size_t>(children) <= groups,
             "spawn child count exceeds the topology group count");

  // Predicted cost per group: the calibrated per-cell budget when the
  // caller has one (--budgets), n·r per cell otherwise — crude, but it
  // orders a 10^6-node group far ahead of a 10^2-node one, which is all
  // LPT needs to avoid the worst deals.
  std::vector<double> group_cost(groups, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    double cost = 0.0;
    for (const CellSpec& cell : topology_group_cells(spec, g)) {
      const double b = budget_ms ? budget_ms(cell) : 0.0;
      cost += b > 0.0 ? b
                      : static_cast<double>(cell.n) *
                            static_cast<double>(std::max(cell.r, 1));
    }
    group_cost[g] = cost;
  }

  // LPT: heaviest group first, always into the currently lightest shard.
  // Every tie breaks toward the lower index (group and shard alike), so
  // the deal is a pure function of the spec — crash recovery re-plans to
  // the identical partition and each child's journal still matches.
  std::vector<std::size_t> order(groups);
  for (std::size_t g = 0; g < groups; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return group_cost[a] > group_cost[b];
                   });

  SpawnPlan plan;
  plan.shards.resize(static_cast<std::size_t>(children));
  plan.costs.assign(static_cast<std::size_t>(children), 0.0);
  for (std::size_t g : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < plan.costs.size(); ++s)
      if (plan.costs[s] < plan.costs[lightest]) lightest = s;
    plan.shards[lightest].push_back(g);
    plan.costs[lightest] += group_cost[g];
  }
  for (std::vector<std::size_t>& shard : plan.shards)
    std::sort(shard.begin(), shard.end());
  return plan;
}

namespace {

// This process's place in the child engine: the retry attempt it runs
// as, and the write end of its pipe to the engine that forked it (-1 in a
// process the engine did not fork).
int self_attempt = 0;
int self_fd = -1;

}  // namespace

int child_attempt() { return self_attempt; }

#if PG_HAS_FORK

namespace {

using Clock = std::chrono::steady_clock;

/// Serializes pipe + fork + closing the parent's write end, so a child
/// forked from one worker thread never inherits another thread's fresh
/// write end (which would hold that job's EOF until the inheritor exits).
std::mutex fork_mutex;

std::string describe_exit(int status) {
  if (WIFSIGNALED(status))
    return "worker process killed by signal " +
           std::to_string(WTERMSIG(status));
  return "worker process exited with status " +
         std::to_string(WEXITSTATUS(status));
}

/// Writes one line up the pipe; a parent that is gone ends the child.
void send_line(int fd, std::string line) {
  line += '\n';
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd, data, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      ::_exit(3);
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
}

/// The forked side: run the body, stream its rows and then the trailer,
/// and _exit without unwinding parent-inherited state (stdio buffers,
/// atexit handlers and threads belong to the parent).
[[noreturn]] void child_main(std::size_t job, int attempt, int fd,
                             const ChildBody& body) {
  if (self_fd >= 0) ::close(self_fd);  // our parent's pipe is not ours
  self_attempt = attempt;
  self_fd = fd;
  std::size_t replayed = 0;
  std::string error = "non-standard exception in child";
  try {
    replayed = body(job, [fd](const CellResult& row) {
      send_line(fd, encode_cell_record(row));
    });
    error.clear();
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
  }
  send_line(fd, encode_trailer_record(replayed, error));
  ::_exit(error.empty() ? 0 : 2);
}

/// Parent-side state of one job.
struct Slot {
  pid_t pid = -1;
  int fd = -1;            // read end while a child runs
  std::string pending;    // bytes past the last complete line
  bool torn = false;      // a line failed to decode: drop the rest
  // When the next launch is due (initially at once); max() while a
  // child runs or once the job has settled for good.
  Clock::time_point due;
};

}  // namespace

std::vector<ChildRun> run_children(
    const std::vector<std::vector<std::size_t>>& cells, int retries,
    double backoff_ms, const ChildBody& body, const ChildEvents& events) {
  const std::size_t jobs = cells.size();
  std::vector<ChildRun> runs(jobs);
  std::vector<Slot> slots(jobs);
  std::size_t live = jobs;  // jobs not yet settled for good

  auto launch = [&](std::size_t j) {
    Slot& slot = slots[j];
    ChildRun& run = runs[j];
    slot.due = Clock::time_point::max();
    int ends[2];
    pid_t pid = -1;
    {
      std::unique_lock<std::mutex> lock(fork_mutex);
      if (::pipe(ends) != 0) return false;
      pid = ::fork();
      if (pid == 0) {
        lock.unlock();
        ::close(ends[0]);
        child_main(j, run.attempts, ends[1], body);
      }
      ::close(ends[1]);
    }
    if (pid < 0) {
      ::close(ends[0]);
      return false;
    }
    slot.pid = pid;
    slot.fd = ends[0];
    slot.pending.clear();
    slot.torn = false;
    run.rows.clear();
    run.exit_text.clear();
    run.replayed = 0;
    if (events.launched) events.launched(j, run.attempts, pid);
    ++run.attempts;
    return true;
  };

  // Decodes every complete line: rows while they arrive in the job's
  // cell order, then the trailer.  A crash tears at most the last line,
  // which the record checksum rejects like a torn journal tail.
  auto receive = [&](std::size_t j, std::string_view bytes) {
    Slot& slot = slots[j];
    ChildRun& run = runs[j];
    slot.pending.append(bytes);
    std::size_t from = 0;
    for (std::size_t nl; (nl = slot.pending.find('\n', from)) !=
                         std::string::npos;
         from = nl + 1) {
      if (slot.torn) continue;
      const std::string_view line(slot.pending.data() + from, nl - from);
      CellResult row;
      if (run.rows.size() < cells[j].size() &&
          decode_cell_record(line, row) &&
          row.cell_index == cells[j][run.rows.size()]) {
        run.rows.push_back(std::move(row));
        if (events.streamed) events.streamed(j, run);
      } else {
        slot.torn = !decode_trailer_record(line, run.replayed, run.exit_text);
      }
    }
    slot.pending.erase(0, from);
  };

  // The child closed its pipe, so it has exited (or is about to): reap
  // it and either settle the job or schedule its next attempt.
  auto reap = [&](std::size_t j) {
    Slot& slot = slots[j];
    ChildRun& run = runs[j];
    ::close(slot.fd);
    slot.fd = -1;
    int status = 0;
    struct rusage usage {};
    while (::wait4(slot.pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
#if defined(__APPLE__)
    run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1048576.0;
#else
    run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
#endif
    run.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                run.rows.size() == cells[j].size();
    if (!run.clean && run.exit_text.empty())  // no error in the trailer
      run.exit_text = describe_exit(status);
    const bool retrying = !run.clean && run.attempts <= retries;
    if (events.settled) events.settled(j, run, retrying);
    if (!retrying) {
      --live;
      return;
    }
    // Attempt a waits backoff_ms · 2^(a-1); the exponent stops at 16 so
    // the deadline stays a representable poll timeout.
    slot.due = Clock::now() +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(std::ldexp(
                       std::max(backoff_ms, 0.0),
                       std::min(run.attempts - 1, 16))));
  };

  std::vector<pollfd> polled;
  while (live > 0) {
    // Launch every job whose deadline has passed; the earliest future
    // deadline bounds the poll below.
    const Clock::time_point now = Clock::now();
    int timeout_ms = -1;
    for (std::size_t j = 0; j < jobs; ++j) {
      if (slots[j].due == Clock::time_point::max()) continue;
      if (slots[j].due > now) {
        const int wait = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(slots[j].due - now)
                .count());
        timeout_ms = timeout_ms < 0 ? wait : std::min(timeout_ms, wait);
      } else if (!launch(j)) {
        runs[j].exit_text = "fork failed";
        --live;
      }
    }
    polled.clear();
    for (const Slot& slot : slots)
      if (slot.fd >= 0) polled.push_back({slot.fd, POLLIN, 0});
    if (polled.empty() && timeout_ms < 0) break;
    // <= 0: a relaunch came due, or a signal interrupted the wait.
    if (::poll(polled.data(), polled.size(), timeout_ms) <= 0) continue;
    std::size_t at = 0;
    for (std::size_t j = 0; j < jobs; ++j) {
      if (slots[j].fd < 0 || polled[at++].revents == 0) continue;
      char chunk[65536];
      const ssize_t got = ::read(slots[j].fd, chunk, sizeof(chunk));
      if (got > 0)
        receive(j, std::string_view(chunk, static_cast<std::size_t>(got)));
      else if (got == 0 || errno != EINTR)
        reap(j);
    }
  }
  return runs;
}

#else  // !PG_HAS_FORK

std::vector<ChildRun> run_children(
    const std::vector<std::vector<std::size_t>>& cells, int, double,
    const ChildBody&, const ChildEvents&) {
  return std::vector<ChildRun>(cells.size());  // attempts == 0: no fork
}

#endif  // PG_HAS_FORK

int run_spawned_sweep(const SweepSpec& spec, const SpawnOptions& opts,
                      const std::optional<std::string>& csv_path,
                      const std::optional<std::string>& json_path,
                      std::ostream& out, std::ostream& err) {
  const auto started = std::chrono::steady_clock::now();
  validate_spec(spec);
  PG_REQUIRE(spec.shard_count == 1 && spec.shard_groups.empty(),
             "--spawn orchestrates its own shards; drop --shard/"
             "--shard-groups");
  const std::size_t groups = count_topology_groups(spec);
  const int children = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(
                                std::max(opts.children, 1)),
                            groups));
  if (children < opts.children)
    err << "spawn: only " << groups << " topology group(s); spawning "
        << children << " child(ren)\n";

  const SpawnPlan plan = plan_spawn(spec, children, opts.exec.budget_ms);

  // Child i runs shard i of `children` over its cost-balanced groups.
  std::vector<SweepSpec> shards(static_cast<std::size_t>(children), spec);
  std::vector<std::vector<std::size_t>> cells(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].shard_index = static_cast<int>(i) + 1;
    shards[i].shard_count = children;
    shards[i].shard_groups = plan.shards[i];
    cells[i] = shard_cell_indices(shards[i]);
  }

  auto tag = [&](std::size_t i) -> std::ostream& {
    return err << '[' << i + 1 << '/' << children << "] ";
  };
  const bool journaled = !opts.exec.journal_dir.empty();
  ChildEvents events;
  if (opts.progress) {
    events.launched = [&](std::size_t i, int attempt, long pid) {
      tag(i) << "pid " << pid << ", " << plan.shards[i].size()
             << " group(s), predicted cost "
             << static_cast<long long>(plan.costs[i])
             << (journaled && (attempt > 0 || opts.exec.resume)
                     ? ", resuming"
                     : "")
             << "\n";
    };
    // At most ~50 ticks per child, however many cells it streams.
    events.streamed = [&](std::size_t i, const ChildRun& run) {
      const std::size_t done = run.rows.size(), mine = cells[i].size();
      if (done * 50 / mine == (done - 1) * 50 / mine) return;
      tag(i) << "cells " << done << "/" << mine << "\n";
    };
    events.settled = [&](std::size_t i, const ChildRun& run, bool retrying) {
      if (run.clean) {
        char rss[32];
        std::snprintf(rss, sizeof(rss), "%.1f", run.peak_rss_mb);
        tag(i) << "done: " << run.rows.size() << " cells";
        if (run.replayed > 0) err << " (" << run.replayed << " replayed)";
        err << ", peak rss " << rss << " MB\n";
      } else if (retrying) {
        tag(i) << "retrying (" << run.exit_text << ")\n";
      }
    };
  }

  // A retry resumes from the child's journal when there is one (resume
  // is inert without a journal directory).
  std::vector<ChildRun> runs = run_children(
      cells, opts.retries, opts.exec.retry_backoff_ms,
      [&](std::size_t i, const RowSink& emit) {
        ExecOptions exec = opts.exec;
        exec.resume = opts.exec.resume || child_attempt() > 0;
        return run_sweep_stream(shards[i], emit, exec).replayed;
      },
      events);

  // Every grid cell gets its row: the children's, or a placeholder for
  // the cells of a child that stayed dead.
  std::vector<CellResult> rows(count_grid_cells(spec));
  SweepSummary total;
  double peak_rss = 0.0;
  std::size_t dead = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ChildRun& run = runs[i];
    peak_rss = std::max(peak_rss, run.peak_rss_mb);
    if (!run.clean) {
      ++dead;
      err << "spawn: shard " << i + 1 << "/" << children
          << " did not complete (" << run.exit_text << ")\n";
      for (std::size_t t : cells[i]) rows[t] = missing_cell(t);
      continue;
    }
    total.replayed += run.replayed;
    for (CellResult& row : run.rows) {
      total.tally(row);
      rows[row.cell_index] = std::move(row);
    }
  }
  if (dead > 0 && !opts.allow_partial) {
    err << "spawn: " << dead << " shard(s) incomplete after "
        << (1 + std::max(opts.retries, 0))
        << " attempt(s); re-run with --resume, or pass --allow-partial to "
           "merge with status=missing rows\n";
    return 1;
  }

  // The report is rendered once, here, exactly as the single-process
  // sweep writes it.
  ReportTargets reports(csv_path, json_path, out, spec, rows.size(),
                        opts.exec, opts.timing, opts.classify);
  for (const CellResult& row : rows) reports.row(row);
  reports.end(peak_rss);

  const std::size_t missing = rows.size() - total.cells;
  char wall[32], rss[32];
  std::snprintf(wall, sizeof(wall), "%.0f",
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count());
  std::snprintf(rss, sizeof(rss), "%.1f", peak_rss);
  err << "spawn: " << children << " children, " << total.cells << " of "
      << rows.size() << " cells, " << total.ok << " ok, " << total.infeasible
      << " infeasible, " << total.failed << " failed, " << total.timeout
      << " timeout";
  if (total.unverified > 0) err << ", " << total.unverified << " unverified";
  if (total.replayed > 0) err << ", " << total.replayed << " replayed";
  if (missing > 0) err << ", " << missing << " missing";
  err << ", " << wall << " ms, peak child rss " << rss << " MB\n";
  return total.ok == rows.size() ? 0 : 1;
}

}  // namespace pg::scenario
