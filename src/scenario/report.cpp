#include "scenario/report.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "scenario/fault.hpp"
#include "util/hash.hpp"

namespace pg::scenario {

namespace {

// ---------------------------------------------------------- row schema ---

/// A fixed-point number with `precision` fractional digits.
struct Fixed {
  double value;
  int precision;
};

/// One typed report value: null, integer, bool, fixed, general (%g-style)
/// double, or string.
using Value = std::variant<std::monostate, std::int64_t, std::uint64_t, bool,
                           Fixed, double, std::string_view>;
constexpr Value kNull{};

/// Optional column blocks, as bits of a writer's row shape.  Core columns
/// are always present.
enum Block : unsigned {
  kCore = 0,
  kClassify = 1,
  kCertify = 2,
  kFaults = 4,
  kTiming = 8,
};
constexpr unsigned kAllBlocks = kClassify | kCertify | kFaults | kTiming;

/// Departures from the per-kind rules, each stated on its one column.
enum class Quirk {
  kNone,
  kYesNo,        // CSV prints a bool as yes/no instead of 1/0
  kFailureOnly,  // JSON omits the column on status=ok rows
};

using Row = const CellResult&;

Value fixed(double value, int precision) { return Fixed{value, precision}; }

// Null rules: a column's value is null on rows where its rule is false.
bool uses_epsilon(Row c) { return c.spec.epsilon_used; }
bool uses_weights(Row c) { return c.spec.weights_used; }
bool has_baseline(Row c) { return c.baseline != BaselineKind::kNone; }
bool has_weighted(Row c) { return c.weight_baseline != BaselineKind::kNone; }
// Rows that never built a topology (failed/missing before the group
// opened) have no regime; the classification itself is a pure function of
// the topology, so the bytes stay deterministic.
bool classified(Row c) { return !c.regime.empty(); }
// Only ok rows pass the independent re-check and only unverified rows
// failed it; failed/timeout/missing rows never reached it.
bool checked(Row c) {
  return c.status == CellStatus::kOk || c.status == CellStatus::kUnverified;
}

struct Column {
  std::string_view name;
  Block block;
  Value (*get)(Row);
  bool (*applies)(Row) = nullptr;  // the null rule; nullptr: never null
  Quirk quirk = Quirk::kNone;
};

/// Every report column, in CSV order.  The CSV header and rows, the JSON
/// rows, the --allow-partial placeholders and both mergers' row-shape
/// detection all read this table.  Blocks are opt-in so default reports
/// keep their historic bytes.
constexpr Column kColumns[] = {
    {"cell_index", kCore, [](Row c) { return Value{c.cell_index}; }},
    {"scenario", kCore, [](Row c) { return Value{c.spec.scenario}; }},
    {"algorithm", kCore, [](Row c) { return Value{c.spec.algorithm}; }},
    {"n", kCore, [](Row c) { return Value{c.spec.n}; }},
    {"r", kCore, [](Row c) { return Value{c.spec.r}; }},
    {"epsilon", kCore, [](Row c) { return Value{c.spec.epsilon}; },
     uses_epsilon},
    {"weighting", kCore, [](Row c) { return Value{c.spec.weighting}; },
     uses_weights},
    {"seed", kCore, [](Row c) { return Value{c.spec.seed}; }},
    {"status", kCore, [](Row c) { return Value{cell_status_name(c.status)}; }},
    {"base_edges", kCore, [](Row c) { return Value{c.base_edges}; }},
    {"comm_power", kCore, [](Row c) { return Value{c.comm_power}; }},
    {"comm_edges", kCore, [](Row c) { return Value{c.comm_edges}; }},
    {"target_edges", kCore, [](Row c) { return Value{c.target_edges}; }},
    {"solution_size", kCore, [](Row c) { return Value{c.solution_size}; }},
    {"solution_weight", kCore, [](Row c) { return Value{c.solution_weight}; }},
    {"feasible", kCore, [](Row c) { return Value{c.feasible}; }},
    {"exact", kCore, [](Row c) { return Value{c.exact}; }},
    {"rounds", kCore, [](Row c) { return Value{c.rounds}; }},
    {"messages", kCore, [](Row c) { return Value{c.messages}; }},
    {"total_bits", kCore, [](Row c) { return Value{c.total_bits}; }},
    {"baseline", kCore,
     [](Row c) { return Value{baseline_kind_name(c.baseline)}; }},
    {"baseline_size", kCore, [](Row c) { return Value{c.baseline_size}; }},
    {"ratio", kCore, [](Row c) { return fixed(c.ratio, 4); }, has_baseline},
    // The weighted oracle gets its own kind/value columns: it succeeds or
    // downgrades independently of the size oracle, and a ratio_weight
    // without them would read as exact-relative when the weighted solve
    // actually fell back to greedy.
    {"weight_baseline", kCore,
     [](Row c) { return Value{baseline_kind_name(c.weight_baseline)}; }},
    {"baseline_weight", kCore, [](Row c) { return Value{c.baseline_weight}; }},
    {"ratio_weight", kCore, [](Row c) { return fixed(c.ratio_weight, 4); },
     has_weighted},
    {"regime", kClassify, [](Row c) { return Value{c.regime}; }, classified},
    {"regime_alpha", kClassify, [](Row c) { return fixed(c.regime_alpha, 3); },
     classified},
    {"certified", kCertify,
     [](Row c) { return Value{c.status == CellStatus::kOk}; }, checked,
     Quirk::kYesNo},
    {"msgs_dropped", kFaults, [](Row c) { return Value{c.msgs_dropped}; }},
    {"msgs_corrupted", kFaults, [](Row c) { return Value{c.msgs_corrupted}; }},
    {"nodes_crashed", kFaults, [](Row c) { return Value{c.nodes_crashed}; }},
    {"rounds_survived", kFaults,
     [](Row c) { return Value{c.rounds_survived}; }},
    {"wall_ms", kTiming, [](Row c) { return fixed(c.wall_ms, 3); }},
    {"error", kCore, [](Row c) { return Value{c.error}; }, nullptr,
     Quirk::kFailureOnly},
};

/// The optional blocks as JSON shard-stamp mode keys, in stamp order.
/// timing is always stamped (true or false); the later modes only when
/// set, so reports written before they existed keep their bytes.
constexpr std::pair<Block, std::string_view> kStampModes[] = {
    {kTiming, "timing"},
    {kCertify, "certify"},
    {kFaults, "faults"},
    {kClassify, "classify"},
};

unsigned row_blocks(bool timing, bool certify, bool faults, bool classify) {
  return (timing ? kTiming : 0u) | (certify ? kCertify : 0u) |
         (faults ? kFaults : 0u) | (classify ? kClassify : 0u);
}

bool carries(const Column& column, unsigned blocks) {
  return column.block == kCore || (blocks & column.block) != 0;
}

// ------------------------------------------------------------- rendering ---

/// std::to_chars is locale-independent by the standard's guarantee, so the
/// bytes never depend on the host: printf's %g would honor LC_NUMERIC, and
/// operator<< on an integer honors the stream's imbued locale (under
/// de_DE 100000 renders as "100.000", which corrupts the CSV column count
/// and breaks the shard-merge byte-equality guarantee).  Every number a
/// report emits goes through here.
template <typename... Format>
void append_chars(std::string& out, Format... format) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), format...);
  out.append(buffer, ec == std::errc{} ? ptr : buffer);
}

void append_json_text(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// The one rule per value kind.  Null is "-" in CSV and null in JSON; a
/// bool is 0/1 and false/true; a string is sanitized in CSV (',', '\n' and
/// '\r' become ';', so no value can shift a column) and escaped and quoted
/// in JSON; numbers print the same in both, a general double like %g.
void append_value(std::string& out, const Value& value, bool json,
                  Quirk quirk = Quirk::kNone) {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          out += json ? "null" : "-";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += json ? (v ? "true" : "false")
                 : quirk == Quirk::kYesNo ? (v ? "yes" : "no")
                                          : (v ? "1" : "0");
        } else if constexpr (std::is_same_v<T, std::string_view>) {
          if (json) return append_json_text(out, v);
          for (char c : v) out += c == ',' || c == '\n' || c == '\r' ? ';' : c;
        } else if constexpr (std::is_same_v<T, Fixed>) {
          append_chars(out, v.value, std::chars_format::fixed, v.precision);
        } else if constexpr (std::is_same_v<T, double>) {
          append_chars(out, v, std::chars_format::general, 6);
        } else {
          append_chars(out, v);
        }
      },
      value);
}

std::string render(const Value& value) {
  std::string out;
  append_value(out, value, /*json=*/false);
  return out;
}

std::string csv_header(unsigned blocks) {
  std::string out;
  for (const Column& column : kColumns) {
    if (!carries(column, blocks)) continue;
    if (!out.empty()) out += ',';
    out += column.name;
  }
  return out;
}

/// One row without its trailing newline: the CSV fields, or the indented
/// JSON cell object.
void append_row(std::string& out, const CellResult& cell, unsigned blocks,
                bool json) {
  const char* separator = json ? "    {" : "";
  for (const Column& column : kColumns) {
    if (!carries(column, blocks) ||
        (json && column.quirk == Quirk::kFailureOnly &&
         cell.status == CellStatus::kOk))
      continue;
    out += separator;
    separator = json ? ", " : ",";
    if (json) {
      out += '"';
      out += column.name;
      out += "\": ";
    }
    const bool null = column.applies && !column.applies(cell);
    append_value(out, null ? kNull : column.get(cell), json, column.quirk);
  }
  if (json) out += '}';
}

/// The grid-dimension fields of "spec" — everything that determines the
/// cell list, and therefore everything the fingerprint must cover.  Shard
/// coordinates are appended separately by JsonWriter::begin.
std::string spec_dims_json(const SweepSpec& spec) {
  std::string out;
  const auto list = [&](std::string_view key, const auto& values) {
    out += out.empty() ? "\"" : ", \"";
    out += key;
    out += "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ',';
      append_value(out, Value(values[i]), /*json=*/true);
    }
    out += ']';
  };
  list("scenarios", spec.scenarios);
  list("algorithms", spec.algorithms);
  list("sizes", spec.sizes);
  list("powers", spec.powers);
  list("epsilons", spec.epsilons);
  list("weightings", spec.weightings);
  list("seeds", spec.seeds);
  out += ", \"exact_baseline_max_n\": ";
  append_value(out, spec.exact_baseline_max_n, /*json=*/true);
  return out;
}

constexpr std::string_view kJsonSpecOpen = "{\n  \"spec\": {";
constexpr std::string_view kJsonCellsOpen = "},\n  \"cells\": [";
constexpr std::string_view kJsonTail = "\n  ]\n}\n";
constexpr std::string_view kJsonShardKey = ", \"shard_index\": ";

}  // namespace

std::string spec_fingerprint(const SweepSpec& spec) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fnv1a64(spec_dims_json(spec))));
  return std::string(buffer);
}

// ------------------------------------------------------------------- CSV ---

CsvWriter::CsvWriter(std::ostream& out, bool include_timing, bool certify,
                     bool faults, bool classify)
    : out_(out),
      blocks_(row_blocks(include_timing, certify, faults, classify)) {}

void CsvWriter::begin(const SweepSpec& spec, std::size_t total_cells) {
  if (spec.shard_count > 1)
    out_ << "# shard " << render(spec.shard_index) << '/'
         << render(spec.shard_count) << " cells " << render(total_cells)
         << " spec " << spec_fingerprint(spec) << '\n';
  out_ << csv_header(blocks_) << '\n';
}

void CsvWriter::row(const CellResult& cell) {
  buffer_.clear();
  append_row(buffer_, cell, blocks_, /*json=*/false);
  buffer_ += '\n';
  out_ << buffer_;
}

// --------------------------------------------------------- targets ---

ReportTargets::ReportTargets(std::optional<std::string> csv_path,
                             std::optional<std::string> json_path,
                             std::ostream& out, const SweepSpec& spec,
                             std::size_t total_cells, const ExecOptions& exec,
                             bool timing, bool classify)
    : out_(out) {
  if (!csv_path && !json_path) csv_path = "-";
  // Canonicalize before comparing so `--csv out --json ./out` is detected
  // as the same target too, not just byte-equal spellings — absolute
  // first, or a not-yet-existing relative file keeps its spelling.
  auto canonical = [](const std::string& path) {
    if (path == "-") return path;
    std::error_code ec;
    const auto canon = std::filesystem::weakly_canonical(
        std::filesystem::absolute(path, ec), ec);
    return ec ? path : canon.string();
  };
  const bool shared = csv_path && json_path &&
                      canonical(*csv_path) == canonical(*json_path);
  // Matches the historical sequential-emit semantics: a file both
  // documents name ends up holding the JSON alone, as if written second.
  if (shared && *json_path != "-") csv_path.reset();
  auto open = [&](const std::string& path,
                  std::ofstream& file) -> std::ostream& {
    if (path == "-") return out;
    file.open(path, std::ios::binary);
    if (!file)
      throw PreconditionViolation("cannot open output file '" + path + "'");
    return file;
  };
  // Network-fault accounting columns appear whenever a plan with net
  // directives is active (flag or environment); the certified column
  // whenever --certify is.  Defaults keep the historic byte-stable shape.
  const FaultPlan* faults =
      exec.fault_plan != nullptr ? exec.fault_plan : FaultPlan::from_env();
  const bool fault_columns = faults != nullptr && faults->has_net_faults();
  if (csv_path)
    csv_.emplace(open(*csv_path, csv_file_), timing, exec.certify,
                 fault_columns, classify);
  if (json_path)
    json_.emplace(shared && csv_ ? json_buffer_ : open(*json_path, json_file_),
                  timing, exec.certify, fault_columns, classify);
  if (csv_) csv_->begin(spec, total_cells);
  if (json_) json_->begin(spec, total_cells);
}

void ReportTargets::row(const CellResult& cell) {
  if (csv_) csv_->row(cell);
  if (json_) json_->row(cell);
}

void ReportTargets::end(double peak_rss_mb) {
  if (json_) json_->end(peak_rss_mb);
  out_ << json_buffer_.str();  // empty unless the JSON waited for the CSV
}

void write_csv(std::ostream& out, const SweepResult& result,
               bool include_timing) {
  CsvWriter writer(out, include_timing);
  writer.begin(result.spec,
               result.total_cells ? result.total_cells : result.cells.size());
  for (const CellResult& cell : result.cells) writer.row(cell);
}

// ------------------------------------------------------------------ JSON ---

JsonWriter::JsonWriter(std::ostream& out, bool include_timing, bool certify,
                       bool faults, bool classify)
    : out_(out),
      blocks_(row_blocks(include_timing, certify, faults, classify)) {}

void JsonWriter::begin(const SweepSpec& spec, std::size_t total_cells) {
  out_ << kJsonSpecOpen << spec_dims_json(spec);
  if (spec.shard_count > 1) {
    out_ << kJsonShardKey << render(spec.shard_index)
         << ", \"shard_count\": " << render(spec.shard_count)
         << ", \"total_cells\": " << render(total_cells);
    for (const auto& [block, key] : kStampModes)
      if ((blocks_ & block) != 0 || block == kTiming)
        out_ << ", \"" << key << ((blocks_ & block) ? "\": true" : "\": false");
    out_ << ", \"spec_fingerprint\": \"" << spec_fingerprint(spec) << '"';
  }
  out_ << kJsonCellsOpen;
  first_row_ = true;
}

void JsonWriter::row(const CellResult& cell) {
  buffer_ = first_row_ ? "\n" : ",\n";
  first_row_ = false;
  append_row(buffer_, cell, blocks_, /*json=*/true);
  out_ << buffer_;
}

void JsonWriter::end(double peak_rss_mb) {
  out_ << "\n  ]";
  if ((blocks_ & kTiming) && peak_rss_mb >= 0.0)
    out_ << ",\n  \"meta\": {\"peak_rss_mb\": " << render(Fixed{peak_rss_mb, 1})
         << '}';
  out_ << "\n}\n";
}

void write_json(std::ostream& out, const SweepResult& result,
                bool include_timing) {
  JsonWriter writer(out, include_timing);
  writer.begin(result.spec,
               result.total_cells ? result.total_cells : result.cells.size());
  for (const CellResult& cell : result.cells) writer.row(cell);
  writer.end();
}

std::string csv_string(const SweepResult& result, bool include_timing) {
  std::ostringstream out;
  write_csv(out, result, include_timing);
  return out.str();
}

std::string json_string(const SweepResult& result, bool include_timing) {
  std::ostringstream out;
  write_json(out, result, include_timing);
  return out.str();
}

// ----------------------------------------------------------------- merge ---

CellResult missing_cell(std::uint64_t index) {
  CellResult cell;
  cell.cell_index = index;
  cell.spec.scenario = "-";
  cell.spec.algorithm = "-";
  cell.spec.n = 0;
  cell.spec.r = 0;
  cell.spec.epsilon_used = false;
  cell.spec.weights_used = false;
  cell.spec.seed = 0;
  cell.status = CellStatus::kMissing;
  cell.error = "no shard report covered this cell";
  return cell;
}

namespace {

[[noreturn]] void merge_fail(const std::string& what) {
  throw PreconditionViolation("merge: " + what);
}

std::uint64_t parse_u64(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr == text.data())
    merge_fail(std::string("cannot parse ") + what);
  return value;
}

struct ShardStamp {
  int index = 0;
  int count = 0;
  std::uint64_t total_cells = 0;
  std::string fingerprint;
  unsigned blocks = 0;  // the optional column blocks the rows carry
};

/// Bounds-checked narrowing for stamp fields parsed from untrusted files:
/// without it a corrupted count like 4294967297 would wrap in the int
/// cast and mis-validate (or blow up the seen-vector allocation below).
/// 1e6 matches the CLI's --shard cap.
int checked_shard_int(std::uint64_t value, const char* what) {
  if (value < 1 || value > 1'000'000)
    merge_fail(std::string(what) + " " + std::to_string(value) +
               " out of range [1, 1000000]");
  return static_cast<int>(value);
}

/// One parsed per-shard report: its stamp plus (cell_index, payload) rows.
struct ShardRows {
  ShardStamp stamp;
  std::vector<std::pair<std::uint64_t, std::string>> rows;
};

/// Shared tail of both mergers: validate that the stamps form one
/// complete partition (same spec, same shard count, every shard exactly
/// once) and that the combined rows cover cell indices 0..total-1.
/// Returns all rows sorted by cell index.  With `allow_partial`, missing
/// shards and uncovered cells are filled with `missing_cell` rows (CSV or
/// JSON) instead of failing; duplicates and spec disagreements still fail.
std::vector<std::pair<std::uint64_t, std::string>> validate_and_sort(
    std::vector<ShardRows>&& shards, bool allow_partial, bool json) {
  if (shards.empty()) merge_fail("no shard reports given");
  const ShardStamp& head = shards.front().stamp;
  std::vector<bool> seen(static_cast<std::size_t>(head.count), false);
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  for (const ShardRows& shard : shards) {
    const ShardStamp& s = shard.stamp;
    // Rows of different blocks would make a ragged report.
    if (s.count != head.count || s.total_cells != head.total_cells ||
        s.fingerprint != head.fingerprint || s.blocks != head.blocks)
      merge_fail("shard reports disagree on the sweep spec or its columns");
    if (s.index < 1 || s.index > s.count)
      merge_fail("shard index " + std::to_string(s.index) +
                 " out of range for " + std::to_string(s.count) + " shards");
    if (seen[static_cast<std::size_t>(s.index - 1)])
      merge_fail("duplicate shard " + std::to_string(s.index) + "/" +
                 std::to_string(s.count));
    seen[static_cast<std::size_t>(s.index - 1)] = true;
    for (auto& row : shard.rows) rows.push_back(std::move(row));
  }
  if (!allow_partial)
    for (int i = 0; i < head.count; ++i)
      if (!seen[static_cast<std::size_t>(i)])
        merge_fail("missing shard " + std::to_string(i + 1) + "/" +
                   std::to_string(head.count));
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!allow_partial) {
    if (rows.size() != head.total_cells)
      merge_fail("rows do not cover the grid: got " +
                 std::to_string(rows.size()) + " of " +
                 std::to_string(head.total_cells) + " cells");
    for (std::size_t t = 0; t < rows.size(); ++t) {
      if (rows[t].first == t) continue;
      if (t > 0 && rows[t].first == rows[t - 1].first)
        merge_fail("rows do not cover the grid: cell " +
                   std::to_string(rows[t].first) + " duplicated");
      merge_fail("rows do not cover the grid: cell " + std::to_string(t) +
                 " missing");
    }
    return rows;
  }

  // Partial mode: fill every gap with a status=missing placeholder.
  // Incomplete is fine; inconsistent (duplicate or out-of-range cells)
  // still is not.
  std::vector<std::pair<std::uint64_t, std::string>> full;
  full.reserve(static_cast<std::size_t>(head.total_cells));
  std::size_t at = 0;
  for (std::uint64_t t = 0; t < head.total_cells; ++t) {
    if (at < rows.size() && rows[at].first == t) {
      full.push_back(std::move(rows[at]));
      ++at;
      if (at < rows.size() && rows[at].first == t)
        merge_fail("rows do not cover the grid: cell " + std::to_string(t) +
                   " duplicated");
    } else {
      std::string row;
      append_row(row, missing_cell(t), head.blocks, json);
      full.emplace_back(t, std::move(row));
    }
  }
  if (at != rows.size())
    merge_fail("cell index " + std::to_string(rows[at].first) +
               " out of range for " + std::to_string(head.total_cells) +
               " cells");
  return full;
}

constexpr std::string_view kCsvStampPrefix = "# shard ";

/// The block mask whose rendered header is exactly `header`.
unsigned csv_blocks(const std::string& header) {
  for (unsigned blocks = 0; blocks <= kAllBlocks; ++blocks)
    if (csv_header(blocks) == header) return blocks;
  merge_fail("unrecognized CSV header");
}

ShardStamp parse_csv_stamp(std::string_view line) {
  // "# shard I/K cells N spec H"
  if (line.substr(0, kCsvStampPrefix.size()) != kCsvStampPrefix)
    merge_fail(
        "input is not a shard report (expected a '# shard i/k …' first "
        "line; single-process sweeps need no merge)");
  ShardStamp stamp;
  std::string_view rest = line.substr(kCsvStampPrefix.size());
  const auto slash = rest.find('/');
  const auto cells_kw = rest.find(" cells ");
  const auto spec_kw = rest.find(" spec ");
  if (slash == std::string_view::npos || cells_kw == std::string_view::npos ||
      spec_kw == std::string_view::npos || slash > cells_kw ||
      cells_kw > spec_kw)
    merge_fail("malformed shard stamp line");
  stamp.index =
      checked_shard_int(parse_u64(rest.substr(0, slash), "shard index"),
                        "shard index");
  stamp.count = checked_shard_int(
      parse_u64(rest.substr(slash + 1, cells_kw - slash - 1), "shard count"),
      "shard count");
  stamp.total_cells =
      parse_u64(rest.substr(cells_kw + 7, spec_kw - cells_kw - 7),
                "grid cell count");
  stamp.fingerprint = std::string(rest.substr(spec_kw + 6));
  return stamp;
}

}  // namespace

std::string merge_csv(const std::vector<std::string>& shard_reports,
                      bool allow_partial) {
  std::vector<ShardRows> shards;
  std::string header;
  for (const std::string& report : shard_reports) {
    ShardRows shard;
    std::istringstream in(report);
    std::string line;
    if (!std::getline(in, line)) merge_fail("empty shard report");
    shard.stamp = parse_csv_stamp(line);
    if (!std::getline(in, line)) merge_fail("shard report has no CSV header");
    shard.stamp.blocks = csv_blocks(line);
    header = line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto comma = line.find(',');
      if (comma == std::string::npos)
        merge_fail("malformed CSV row '" + line + "'");
      const std::uint64_t index =
          parse_u64(std::string_view(line).substr(0, comma), "cell index");
      shard.rows.emplace_back(index, std::move(line));
    }
    shards.push_back(std::move(shard));
  }

  const auto rows =
      validate_and_sort(std::move(shards), allow_partial, /*json=*/false);
  std::string out = header + '\n';
  for (const auto& [index, line] : rows) {
    out += line;
    out += '\n';
  }
  return out;
}

namespace {

/// Extracts `"key": <digits>` from a spec fragment.
std::uint64_t json_field_u64(std::string_view text, std::string_view key) {
  const auto at = text.find(key);
  if (at == std::string_view::npos)
    merge_fail("shard stamp lacks " + std::string(key));
  std::string_view rest = text.substr(at + key.size());
  std::size_t end = 0;
  while (end < rest.size() && rest[end] >= '0' && rest[end] <= '9') ++end;
  return parse_u64(rest.substr(0, end), std::string(key).c_str());
}

}  // namespace

std::string merge_json(const std::vector<std::string>& shard_reports,
                       bool allow_partial) {
  std::vector<ShardRows> shards;
  std::string spec_dims;  // the spec body minus the shard stamp fields
  for (const std::string& report : shard_reports) {
    if (report.substr(0, kJsonSpecOpen.size()) != kJsonSpecOpen)
      merge_fail("input is not a sweep JSON report");
    const auto cells_at = report.find(kJsonCellsOpen);
    if (cells_at == std::string_view::npos)
      merge_fail("input is not a sweep JSON report");
    const std::string_view spec_body = std::string_view(report).substr(
        kJsonSpecOpen.size(), cells_at - kJsonSpecOpen.size());

    const auto shard_at = spec_body.find(kJsonShardKey);
    if (shard_at == std::string_view::npos)
      merge_fail(
          "input is not a shard report (its spec has no shard fields; "
          "single-process sweeps need no merge)");
    const std::string dims(spec_body.substr(0, shard_at));
    const std::string_view stamp_text = spec_body.substr(shard_at);
    if (spec_dims.empty())
      spec_dims = dims;
    else if (dims != spec_dims)
      merge_fail("shard reports disagree on the sweep spec");

    ShardRows shard;
    shard.stamp.index = checked_shard_int(
        json_field_u64(stamp_text, "\"shard_index\": "), "shard index");
    shard.stamp.count = checked_shard_int(
        json_field_u64(stamp_text, "\"shard_count\": "), "shard count");
    shard.stamp.total_cells = json_field_u64(stamp_text, "\"total_cells\": ");
    const auto fp_at = stamp_text.find("\"spec_fingerprint\": \"");
    if (fp_at == std::string_view::npos)
      merge_fail("shard stamp lacks \"spec_fingerprint\"");
    const auto fp_from = fp_at + 21;
    const auto fp_to = stamp_text.find('"', fp_from);
    if (fp_to == std::string_view::npos)
      merge_fail("malformed spec_fingerprint");
    shard.stamp.fingerprint =
        std::string(stamp_text.substr(fp_from, fp_to - fp_from));
    for (const auto& [block, key] : kStampModes) {
      std::string stamped = "\"";
      stamped.append(key).append("\": ");
      if (stamp_text.find(stamped + "true") != std::string_view::npos)
        shard.stamp.blocks |= block;
      else if (block == kTiming &&
               stamp_text.find(stamped + "false") == std::string_view::npos)
        merge_fail("shard stamp lacks \"timing\"");
    }

    // The cells array closes with "\n  ]"; after it comes either the
    // document tail or an optional (timing-mode) ",\n  \"meta\": {…}"
    // block, which per-shard writers emit for peak-RSS accounting.  Meta
    // is host-dependent by construction, so the merger validates its
    // shape and strips it — the merged report stays byte-stable.
    const auto cells_close = report.rfind("\n  ]");
    if (cells_close == std::string::npos ||
        cells_close < cells_at + kJsonCellsOpen.size())
      merge_fail("truncated JSON shard report");
    const std::string_view after_cells =
        std::string_view(report).substr(cells_close + 4);
    if (after_cells != "\n}\n") {
      constexpr std::string_view kMetaOpen = ",\n  \"meta\": {";
      if (after_cells.substr(0, kMetaOpen.size()) != kMetaOpen ||
          after_cells.substr(after_cells.size() -
                             std::min<std::size_t>(after_cells.size(), 4)) !=
              "}\n}\n")
        merge_fail("truncated JSON shard report");
    }
    std::string_view cells = std::string_view(report).substr(
        cells_at + kJsonCellsOpen.size(),
        cells_close - cells_at - kJsonCellsOpen.size());
    while (!cells.empty()) {
      // Rows look like "\n    {...}" separated by commas.
      std::size_t next = cells.find(",\n    {", 1);
      std::string_view cell =
          next == std::string_view::npos ? cells : cells.substr(0, next);
      const std::uint64_t index = json_field_u64(cell, "\"cell_index\": ");
      if (cell.substr(0, 1) == "\n") cell.remove_prefix(1);
      shard.rows.emplace_back(index, std::string(cell));
      if (next == std::string_view::npos) break;
      cells.remove_prefix(next + 1);  // drop the comma, keep "\n    {"
    }
    shards.push_back(std::move(shard));
  }

  const auto rows =
      validate_and_sort(std::move(shards), allow_partial, /*json=*/true);
  std::string out;
  out += kJsonSpecOpen;
  out += spec_dims;
  out += kJsonCellsOpen;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += rows[i].second;
  }
  out += kJsonTail;
  return out;
}

}  // namespace pg::scenario
