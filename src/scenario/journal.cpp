#include "scenario/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "scenario/report.hpp"
#include "util/hash.hpp"

namespace pg::scenario {

namespace {

// --------------------------------------------------------- line format ---
//
// <payload>\t#<16 hex digits of fnv1a64(payload)>
//
// The payload is tab-separated fields; strings escape tab/newline/
// backslash so any error text survives a round trip on one line.

void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += text[i]; break;
    }
  }
  return out;
}

/// Doubles in shortest round-trip form: from_chars(to_chars(x)) == x
/// exactly, so a replayed row formats identically in the reports.
template <typename Number>
void append_number(std::string& out, Number value) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ec == std::errc{} ? ptr : buffer);
}

std::string with_checksum(std::string payload) {
  char digest[19];  // "\t#" + 16 hex digits + NUL
  std::snprintf(digest, sizeof(digest), "\t#%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  payload += digest;
  return payload;
}

/// Splits off and verifies the checksum suffix; empty on any mismatch.
std::string_view checked_payload(std::string_view line) {
  const std::size_t hash_at = line.rfind("\t#");
  if (hash_at == std::string_view::npos ||
      line.size() - hash_at != 2 + 16)
    return {};
  const std::string_view payload = line.substr(0, hash_at);
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  if (line.substr(hash_at + 2) != digest) return {};
  return payload;
}

/// Reads the payload's tab-separated fields in wire order; every call
/// parses one field into a CellResult member.
class FieldReader {
 public:
  explicit FieldReader(std::string_view payload) : rest_(payload) {}

  bool next(std::string_view& field) {
    if (done_) return false;
    const std::size_t tab = rest_.find('\t');
    if (tab == std::string_view::npos) {
      field = rest_;
      done_ = true;
    } else {
      field = rest_.substr(0, tab);
      rest_.remove_prefix(tab + 1);
    }
    return true;
  }

  bool exhausted() const { return done_; }

  bool operator()(std::string& value) {
    std::string_view field;
    if (!next(field)) return false;
    value = unescape(field);
    return true;
  }

  bool operator()(bool& value) { return (*this)(value, true); }

  /// Bools and enumerations travel as ints, accepted only within
  /// [0, last] so a corrupt record cannot forge an unnamed value.
  template <typename Enum>
  bool operator()(Enum& value, Enum last) {
    int v = 0;
    if (!(*this)(v) || v < 0 || v > static_cast<int>(last)) return false;
    value = static_cast<Enum>(v);
    return true;
  }

  template <typename Number>
  bool operator()(Number& value) {
    std::string_view field;
    if (!next(field) || field.empty()) return false;
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    return ec == std::errc{} && ptr == field.data() + field.size();
  }

 private:
  std::string_view rest_;
  bool done_ = false;
};

/// Appends each field after a tab, in the same wire order.
struct FieldWriter {
  std::string& out;

  template <typename Enum>
  bool operator()(Enum value, Enum /*last*/) {
    return (*this)(static_cast<int>(value));
  }

  template <typename Field>
  bool operator()(const Field& value) {
    out += '\t';
    if constexpr (std::is_same_v<Field, std::string>)
      append_escaped(out, value);
    else if constexpr (std::is_same_v<Field, bool>)
      out += value ? '1' : '0';
    else
      append_number(out, value);
    return true;
  }
};

constexpr std::string_view kRecordTag = "C";
constexpr std::string_view kTrailerTag = "T";
// Bumped pgj1 -> pgj2 when the record gained the degree-regime fields: a
// journal written by an older binary fails the header check and resume
// refuses it outright instead of mixing wire formats.
constexpr std::string_view kHeaderTag = "pgj2";

/// The pgj2 record's fields, in wire order — the one list both encode and
/// decode walk.  Stored members only: report columns derived from them
/// (certified, the nulls) are recomputed on replay.  The order is frozen;
/// changing it, or adding a field, needs a new kHeaderTag.
template <typename Row, typename Field>
bool visit_record(Row& row, Field&& field) {
  return field(row.cell_index) && field(row.spec.scenario) &&
         field(row.spec.algorithm) && field(row.spec.n) &&
         field(row.spec.r) && field(row.spec.epsilon) &&
         field(row.spec.epsilon_used) && field(row.spec.seed) &&
         field(row.spec.weighting) && field(row.spec.weights_used) &&
         field(row.status, CellStatus::kUnverified) && field(row.error) &&
         field(row.base_edges) && field(row.comm_power) &&
         field(row.comm_edges) && field(row.target_edges) &&
         field(row.solution_size) && field(row.solution_weight) &&
         field(row.feasible) && field(row.exact) && field(row.rounds) &&
         field(row.messages) && field(row.total_bits) &&
         field(row.baseline, BaselineKind::kGreedy) &&
         field(row.baseline_size) && field(row.ratio) &&
         field(row.weight_baseline, BaselineKind::kGreedy) &&
         field(row.baseline_weight) && field(row.ratio_weight) &&
         field(row.msgs_dropped) && field(row.msgs_corrupted) &&
         field(row.nodes_crashed) && field(row.rounds_survived) &&
         field(row.wall_ms) && field(row.regime) && field(row.regime_alpha);
}

}  // namespace

std::string encode_cell_record(const CellResult& row) {
  std::string payload(kRecordTag);
  payload.reserve(160);
  visit_record(row, FieldWriter{payload});
  return with_checksum(std::move(payload));
}

bool decode_cell_record(std::string_view line, CellResult& row) {
  const std::string_view payload = checked_payload(line);
  if (payload.empty()) return false;
  FieldReader fields(payload);
  std::string_view tag;
  if (!fields.next(tag) || tag != kRecordTag) return false;
  row = CellResult{};
  return visit_record(row, fields) && fields.exhausted();
}

std::string encode_trailer_record(std::size_t replayed,
                                  std::string_view error) {
  std::string payload(kTrailerTag);
  FieldWriter field{payload};
  field(replayed);
  field(std::string(error));
  return with_checksum(std::move(payload));
}

bool decode_trailer_record(std::string_view line, std::size_t& replayed,
                           std::string& error) {
  FieldReader fields(checked_payload(line));
  std::string_view tag;
  return fields.next(tag) && tag == kTrailerTag && fields(replayed) &&
         fields(error) && fields.exhausted();
}

std::string journal_header(const SweepSpec& spec, std::size_t total_cells,
                           std::string_view mode) {
  std::string p;
  p += kHeaderTag;
  p += '\t';
  p += spec_fingerprint(spec);
  p += '\t';
  append_number(p, spec.shard_index);
  p += '\t';
  append_number(p, spec.shard_count);
  p += '\t';
  append_number(p, total_cells);
  if (!mode.empty()) {
    p += '\t';
    append_escaped(p, mode);
  }
  return with_checksum(std::move(p));
}

std::string journal_path(const std::string& dir, const SweepSpec& spec) {
  std::string name = "journal-";
  append_number(name, spec.shard_index);
  name += "-of-";
  append_number(name, spec.shard_count);
  name += ".pgj";
  return (std::filesystem::path(dir) / name).string();
}

JournalContents read_journal(const std::string& path, const SweepSpec& spec,
                             std::size_t total_cells, std::string_view mode) {
  JournalContents contents;
  std::ifstream file(path, std::ios::binary);
  if (!file) return contents;  // no journal yet: empty, not an error
  contents.file_exists = true;

  std::string line;
  if (!std::getline(file, line)) return contents;  // torn header: empty
  const std::string expected_header = journal_header(spec, total_cells, mode);
  PG_REQUIRE(line == expected_header,
             "journal '" + path +
                 "' belongs to a different sweep (spec fingerprint, shard "
                 "coordinates, grid size, or certify/fault-plan mode "
                 "mismatch) — refusing to resume");
  contents.valid_bytes = line.size() + 1;

  while (std::getline(file, line)) {
    // A record not followed by '\n' is a torn tail: ignore it (getline
    // still returns it when the file ends without the newline, so check
    // via the stream position arithmetic below).
    CellResult row;
    if (!decode_cell_record(line, row)) break;
    const std::uint64_t end = contents.valid_bytes + line.size() + 1;
    contents.rows.push_back(std::move(row));
    contents.valid_bytes = end;
  }
  return contents;
}

JournalWriter::JournalWriter(const std::string& path, const SweepSpec& spec,
                             std::size_t total_cells,
                             std::uint64_t resume_from_bytes,
                             std::string_view mode) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  PG_REQUIRE(fd_ >= 0, "cannot open journal '" + path +
                           "': " + std::strerror(errno));
  PG_REQUIRE(::ftruncate(fd_, static_cast<off_t>(resume_from_bytes)) == 0,
             "cannot truncate journal '" + path +
                 "': " + std::strerror(errno));
  PG_REQUIRE(::lseek(fd_, 0, SEEK_END) >= 0,
             "cannot seek journal '" + path + "'");
  durable_bytes_ = resume_from_bytes;
  if (resume_from_bytes == 0) {
    buffer_ = journal_header(spec, total_cells, mode);
    buffer_ += '\n';
    commit();
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const CellResult& row) {
  buffer_ += encode_cell_record(row);
  buffer_ += '\n';
}

void JournalWriter::commit() {
  // A failed or short append (ENOSPC, quota, I/O error) must not leave a
  // torn record on disk: roll the file back to the last durable commit,
  // then fail the shard loudly.  Resume would detect and truncate a torn
  // tail anyway, but a clean tail means the journal is trustworthy even
  // for tools that read it without the full recovery pass.
  const auto fail = [this](const char* what) {
    const int saved_errno = errno;
    (void)::ftruncate(fd_, static_cast<off_t>(durable_bytes_));
    (void)::fsync(fd_);
    PG_REQUIRE(false, std::string(what) + " (partial append rolled back to " +
                          std::to_string(durable_bytes_) +
                          " durable bytes): " + std::strerror(saved_errno));
  };
  const char* data = buffer_.data();
  std::size_t left = buffer_.size();
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, data, left);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0) fail("journal write failed");
    if (wrote == 0) {
      // write(2) never returns 0 for a non-empty count on a regular
      // file unless the device is out of space in a way that did not
      // set errno; treat it as ENOSPC rather than spinning.
      errno = ENOSPC;
      fail("journal write made no progress");
    }
    data += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  if (::fsync(fd_) != 0) fail("journal fsync failed");
  durable_bytes_ += buffer_.size();
  buffer_.clear();
}

}  // namespace pg::scenario
