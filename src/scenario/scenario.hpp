// Named graph scenarios: the topology families every experiment sweeps
// over.  A scenario wraps a generator with fixed shape parameters so a
// (name, n, seed) triple fully determines a graph — the unit the batch
// runner, the CLI, and the conformance tests all grid over.
//
// Every built-in scenario yields a *connected* graph, so a CONGEST cell
// runs one leader (imported `file:` graphs may hold many components, one
// leader each); random families that can fragment are post-linked with
// `graph::link_components`, which adds at most components-1 edges.
// Builders are deterministic in (n, seed): the same pair always produces
// byte-identical topology, and each scenario decorrelates its random
// stream from its siblings by mixing the scenario name into the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace pg::scenario {

struct Scenario {
  std::string name;         // CLI-visible id, e.g. "ba", "gnp-sparse"
  std::string family;       // grouping: structured/gnp/power-law/…
  std::string description;  // one line for list-scenarios
  std::function<graph::Graph(graph::VertexId n, std::uint64_t seed)> build;
};

/// The built-in registry, sorted by name.  ≥ 6 families: structured
/// (path/cycle/grid/tree/caterpillar/star/barbell), gnp, power-law
/// (Barabási–Albert, Chung–Lu), geometric (torus disk), regular, and
/// clustered (planted partition).
const std::vector<Scenario>& all_scenarios();

/// nullptr when the name is unknown.
const Scenario* find_scenario(std::string_view name);

/// Registry lookup that throws PreconditionViolation with the valid names
/// spelled out — the error surface the CLI leans on.
const Scenario& scenario_or_throw(std::string_view name);

std::vector<std::string> scenario_names();

/// Beyond the registry, a scenario name of the form "file:PATH" denotes a
/// pre-built topology stored as a `.pgcsr` file (see graph/storage.hpp).
/// The runner mmaps it read-only instead of generating — the seed still
/// seeds weights and algorithm coins, but the topology is the file's, so
/// every (file:PATH, n, seed) group must request exactly the file's vertex
/// count.  `is_file_scenario` recognizes the prefix; `file_scenario_path`
/// strips it (requires a non-empty path).
bool is_file_scenario(std::string_view name);
std::string file_scenario_path(std::string_view name);

/// Splitmix-style mix of a seed with a label, used to give every
/// (scenario, cell) its own decorrelated random stream.  Exposed so the
/// runner and tests derive streams the same way.
std::uint64_t mix_seed(std::uint64_t seed, std::string_view label);

}  // namespace pg::scenario
