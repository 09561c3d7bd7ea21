// Deterministic serialization of sweep results.
//
// Both formats are byte-stable: identical specs produce identical bytes
// regardless of repetition, worker count, or host, because every emitted
// field is a deterministic function of the spec (wall-clock measurements
// and the thread count are excluded unless `include_timing` is set, which
// is documented to break byte-stability).
//
// Streaming: the writers emit row-by-row so the runner never has to hold
// a sweep in memory — `begin()`, then one `row()` per cell in grid order,
// then (JSON only) `end()`.  The whole-result `write_csv`/`write_json`
// functions are thin wrappers for callers that already hold a
// SweepResult.
//
// Sharding: when the spec is a shard (shard_count > 1) the writers stamp
// the output with the shard coordinates, the full grid's cell count, and
// a fingerprint of the spec — a CSV `# shard i/k …` comment line, or
// extra spec fields in JSON.  `merge_csv`/`merge_json` consume one such
// report per shard, validate that they belong together and cover the
// grid exactly, and reproduce the single-process report byte for byte.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace pg::scenario {

/// 16-hex-digit digest of the sweep's grid dimensions (scenarios,
/// algorithms, sizes, powers, epsilons, weightings, seeds,
/// exact_baseline_max_n — not threads or shard coordinates).  Shard
/// reports carry it so `merge` can refuse shards of different sweeps.
std::string spec_fingerprint(const SweepSpec& spec);

/// One row per cell.  The columns, their order, their optional blocks
/// (classify, certify, faults, timing — each opt-in so default reports
/// keep their historic bytes) and how each value renders are defined once,
/// by the column table `kColumns` in report.cpp.  A null value prints "-";
/// error is the last column, empty on success.  All numbers are formatted
/// locale-independently (std::to_chars), so the bytes — and the
/// shard-merge equality they guarantee — cannot depend on the host's
/// LC_NUMERIC.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, bool include_timing = false,
                     bool certify = false, bool faults = false,
                     bool classify = false);

  /// Shard stamp (`# shard i/k cells N spec H`, only when spec.shard_count
  /// > 1) followed by the header row.  `total_cells` is the full grid's
  /// cell count across all shards.
  void begin(const SweepSpec& spec, std::size_t total_cells);
  void row(const CellResult& cell);

 private:
  std::ostream& out_;
  unsigned blocks_;     // the optional column blocks rows carry
  std::string buffer_;  // reused for every row
};

/// {"spec": {...}, "cells": [...]} with the same fields as the CSV, null
/// where the CSV prints "-"; error appears only on rows whose status is
/// not ok.  Sharded specs add shard_index/shard_count/total_cells/timing/
/// spec_fingerprint (and any set certify/faults/classify mode) to "spec".
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool include_timing = false,
                      bool certify = false, bool faults = false,
                      bool classify = false);

  void begin(const SweepSpec& spec, std::size_t total_cells);
  void row(const CellResult& cell);
  /// Closes the document.  A non-negative `peak_rss_mb` adds a trailing
  /// `"meta": {"peak_rss_mb": …}` block — but only when the writer was
  /// opened with include_timing, because peak RSS is as host-dependent as
  /// wall clock and must never enter the byte-stable output.  Mergers
  /// accept and strip the block.
  void end(double peak_rss_mb = -1.0);

 private:
  std::ostream& out_;
  unsigned blocks_;     // the optional column blocks rows carry
  std::string buffer_;  // reused for every row
  bool first_row_ = true;
};

void write_csv(std::ostream& out, const SweepResult& result,
               bool include_timing = false);
void write_json(std::ostream& out, const SweepResult& result,
                bool include_timing = false);

std::string csv_string(const SweepResult& result, bool include_timing = false);
std::string json_string(const SweepResult& result,
                        bool include_timing = false);

/// Merges per-shard CSV reports (file *contents*, any order) back into
/// the byte-identical single-process report.  Throws
/// PreconditionViolation when the inputs are not shard reports, carry a
/// header no writer produces, disagree on the spec (fingerprint, columns,
/// shard count, grid size), repeat or miss a shard, or their rows do not
/// cover the grid exactly.
///
/// With `allow_partial`, missing shards and uncovered cells stop being
/// errors: every grid cell no given report covers becomes a placeholder
/// row with status=missing (scenario/algorithm "-", zero metrics, error
/// explaining the gap), so a sweep whose shard died still yields one
/// complete, grid-shaped report.  Duplicate shards, duplicate cells, and
/// spec disagreements are still rejected — partial means incomplete, not
/// inconsistent.
std::string merge_csv(const std::vector<std::string>& shard_reports,
                      bool allow_partial = false);

/// Same for JSON shard reports.
std::string merge_json(const std::vector<std::string>& shard_reports,
                       bool allow_partial = false);

}  // namespace pg::scenario
