// CONGESTED CLIQUE algorithms for (1+ε)-approximate G^2-MVC (Section 3.3).
// Both are Algorithm 1 (mvc_congest.hpp's `run_algorithm1`) with only
// Phase II's transport swapped: Phase I and the U-status round pair send
// along G's edges alone, so they run on the CONGEST engine over G, and
// only Lemma 9's transport uses the clique's all-to-all links — every node
// streams its F-edge tokens straight to the leader (node 0; ids are common
// knowledge, so no election), which answers every node in one round.
// Round, message and bit counts are the two simulators' sums.  The clique
// links every node, so G need not be connected.
//
//  * Corollary 10 (deterministic): Algorithm 1's Phase I, then O(1/ε)
//    rounds of learning — O(εn + 1/ε) rounds total.
//
//  * Theorem 11 (randomized): the voting Phase I — a candidate c (with
//    d_R(c) > 8/ε + 2) draws r_c ∈ [n^4]; each R-vertex votes for its
//    highest-r_c candidate neighbor; candidates winning at least d_R(c)/8
//    votes take their whole remaining neighborhood.  The potential
//    Φ = Σ_c d_R(c) drops by a constant factor per phase in expectation
//    (Claim 1), giving O(log n) phases w.h.p. — O(log n + 1/ε) rounds total.
#pragma once

#include "core/mvc_congest.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace pg::core {

/// Corollary 10: deterministic, O(εn + 1/ε) rounds.
MvcCongestResult solve_g2_mvc_clique_deterministic(
    graph::GraphView g, const MvcCongestConfig& config = {});

/// Theorem 11: randomized voting, O(log n + 1/ε) rounds w.h.p.
MvcCongestResult solve_g2_mvc_clique_randomized(
    graph::GraphView g, Rng& rng, const MvcCongestConfig& config = {});

}  // namespace pg::core
