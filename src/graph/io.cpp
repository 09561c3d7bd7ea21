#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

namespace pg::graph {

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
  PG_REQUIRE(false, "edge list line " + std::to_string(line_no) + ": " + why);
}

/// Parses exactly `count` base-10 integers from `line`, separated by
/// spaces/tabs, rejecting trailing garbage.  std::from_chars is
/// locale-independent and overflow-checked — a value past int64 (or a
/// stray token like "3.5" or "a") fails with the line number instead of
/// silently truncating the graph.
void parse_ints(std::string_view line, std::size_t line_no,
                std::int64_t* out, std::size_t count) {
  const char* p = line.data();
  const char* end = line.data() + line.size();
  for (std::size_t k = 0; k < count; ++k) {
    while (p != end && is_blank(*p)) ++p;
    if (p == end)
      parse_fail(line_no, "expected " + std::to_string(count) +
                              " integers, found " + std::to_string(k));
    const auto [next, ec] = std::from_chars(p, end, out[k]);
    if (ec == std::errc::result_out_of_range)
      parse_fail(line_no, "integer overflows 64 bits");
    if (ec != std::errc() || (next != end && !is_blank(*next)))
      parse_fail(line_no, "malformed integer");
    p = next;
  }
  while (p != end && is_blank(*p)) ++p;
  if (p != end) parse_fail(line_no, "trailing garbage after the integers");
}

/// True for blank lines and '#'/'%' comment lines (SNAP headers).
bool is_comment(std::string_view line) {
  for (char c : line) {
    if (is_blank(c)) continue;
    return c == '#' || c == '%';
  }
  return true;
}

std::string_view chomp(const std::string& line) {
  std::string_view v = line;
  if (!v.empty() && v.back() == '\r') v.remove_suffix(1);
  return v;
}

}  // namespace

void write_edge_list(GraphView g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge([&](VertexId u, VertexId v) { out << u << ' ' << v << '\n'; });
}

Graph read_edge_list(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;

  PG_REQUIRE(static_cast<bool>(std::getline(in, line)),
             "edge list is empty: missing the \"n m\" header line");
  ++line_no;
  std::int64_t header[2] = {0, 0};
  parse_ints(chomp(line), line_no, header, 2);
  if (header[0] < 0 ||
      header[0] > std::numeric_limits<VertexId>::max())
    parse_fail(line_no, "vertex count out of int32 range");
  if (header[1] < 0) parse_fail(line_no, "negative edge count");
  const auto n = static_cast<VertexId>(header[0]);
  const auto m = static_cast<std::size_t>(header[1]);

  GraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    if (!std::getline(in, line))
      PG_REQUIRE(false, "edge list ends after line " + std::to_string(line_no) +
                            ": header promised " + std::to_string(m) +
                            " edges, found " + std::to_string(i));
    ++line_no;
    std::int64_t uv[2] = {0, 0};
    parse_ints(chomp(line), line_no, uv, 2);
    if (uv[0] < 0 || uv[0] >= n || uv[1] < 0 || uv[1] >= n)
      parse_fail(line_no, "edge endpoint out of range [0, n)");
    if (uv[0] == uv[1]) parse_fail(line_no, "self loop");
    b.add_edge(static_cast<VertexId>(uv[0]), static_cast<VertexId>(uv[1]));
  }
  return std::move(b).build();
}

ImportResult import_edge_list(std::istream& in) {
  ImportResult result;
  ImportStats& stats = result.stats;

  // Pass 1 (streaming): collect raw endpoint pairs with their original
  // (possibly 1-based or sparse) ids.
  std::vector<std::pair<std::int64_t, std::int64_t>> raw;
  std::vector<std::int64_t> loop_ids;
  std::string line;
  while (std::getline(in, line)) {
    ++stats.lines;
    const std::string_view text = chomp(line);
    if (is_comment(text)) {
      ++stats.comment_lines;
      continue;
    }
    std::int64_t uv[2] = {0, 0};
    parse_ints(text, stats.lines, uv, 2);
    if (uv[0] < 0 || uv[1] < 0)
      parse_fail(stats.lines, "negative vertex id");
    ++stats.edge_lines;
    if (uv[0] == uv[1]) {
      // The loop is dropped but its vertex is kept: a node listed only
      // with a self-loop is an isolated vertex of the graph.
      ++stats.self_loops;
      loop_ids.push_back(uv[0]);
      continue;
    }
    raw.emplace_back(uv[0], uv[1]);
  }
  PG_REQUIRE(!in.bad(), "I/O error while reading the edge list");

  // Id remap: sorted distinct original ids become 0..n-1 (ascending, so a
  // dense input maps to itself and the result is deterministic).
  std::vector<std::int64_t> ids(std::move(loop_ids));
  ids.reserve(ids.size() + raw.size() * 2);
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (!ids.empty()) {
    stats.min_id = ids.front();
    stats.max_id = ids.back();
  }
  PG_REQUIRE(ids.size() <= static_cast<std::size_t>(
                               std::numeric_limits<VertexId>::max()),
             "imported graph has more distinct vertex ids than int32 allows");
  const auto n = static_cast<VertexId>(ids.size());
  stats.remapped =
      !(ids.empty() || (stats.min_id == 0 &&
                        stats.max_id == static_cast<std::int64_t>(n) - 1));
  const auto remap = [&](std::int64_t original) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), original);
    return static_cast<VertexId>(it - ids.begin());
  };

  // Symmetrize + dedup: normalize to u < v, sort, unique.
  std::vector<Edge> edges;
  edges.reserve(raw.size());
  for (const auto& [u, v] : raw) edges.emplace_back(remap(u), remap(v));
  raw.clear();
  raw.shrink_to_fit();
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  stats.duplicates = stats.edge_lines - stats.self_loops - edges.size();
  PG_REQUIRE(edges.size() <= kMaxAdjacencySlots / 2,
             "imported graph exceeds the int32-addressable adjacency "
             "slot space (2m must fit in int32)");

  // CSR build (counting scatter, then per-row sort) — same construction
  // as GraphBuilder::build, routed through from_csr's validation.
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::size_t> offsets(nn + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 0; v < nn; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> adjacency(offsets[nn]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    adjacency[cursor[static_cast<std::size_t>(e.u)]++] = e.v;
    adjacency[cursor[static_cast<std::size_t>(e.v)]++] = e.u;
  }
  for (std::size_t v = 0; v < nn; ++v)
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  result.graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  return result;
}

std::string to_dot(GraphView g, const std::vector<std::string>* labels) {
  PG_REQUIRE(labels == nullptr ||
                 static_cast<VertexId>(labels->size()) == g.num_vertices(),
             "label count must match vertex count");
  std::ostringstream out;
  out << "graph G {\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (labels != nullptr) out << " [label=\"" << (*labels)[static_cast<std::size_t>(v)] << "\"]";
    out << ";\n";
  }
  g.for_each_edge(
      [&](VertexId u, VertexId v) { out << "  " << u << " -- " << v << ";\n"; });
  out << "}\n";
  return out.str();
}

}  // namespace pg::graph
