// Traced, turn-by-turn replay of the incremental round-robin dynamics.
//
// The replay drives one trial through the same public calls the library's
// incremental engine makes — DynamicsCache::isSettled, viewOf,
// coverCacheFor / greedyOracleFor, bestResponse / greedyMove, applyMove
// and markSettled — in the same order, with a span around each call and
// the work counters the spans cannot see. It must reach the move
// sequence and final profile runBestResponseDynamics reaches on the same
// trial; the traced runs check that on every unit.
#pragma once

#include <cstddef>
#include <vector>

#include "core/strategy.hpp"
#include "dynamics/round_robin.hpp"
#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

class LayerMetrics;

struct ReplayCounters {
  std::size_t activations = 0;
  std::size_t settledSkips = 0;
  std::size_t viewRebuilds = 0;
  std::size_t moves = 0;
  std::size_t rounds = 0;
  std::size_t bestResponseCalls = 0;
  std::size_t coverConstructions = 0;
  std::size_t greedyCalls = 0;
  std::size_t greedyPersisted = 0;

  void add(const ReplayCounters& other);
};

struct ReplayResult {
  ncg::DynamicsOutcome outcome = ncg::DynamicsOutcome::kRoundLimit;
  int rounds = 0;
  std::vector<ncg::MoveRecord> moves;
  ncg::StrategyProfile profile;
  ReplayCounters counters;
};

/// Replays sequential round-robin dynamics (exact best response or the
/// greedy rule, homogeneous MaxNCG, cycle detection on) from `initial`.
ReplayResult replayDynamics(const ncg::StrategyProfile& initial,
                            const ncg::DynamicsConfig& config, Tracer& tracer);

/// "" when the replay reached the library run's outcome, rounds, move
/// sequence and final profile; else what differs.
std::string compareReplay(const ReplayResult& replay,
                          const ncg::DynamicsResult& library);

/// Builds every player's view of a final network without the cache (one
/// graph.buildPlayerView span each); returns Σ view nodes.
std::size_t traceFinalViews(const ncg::Graph& g,
                            const ncg::StrategyProfile& profile, ncg::Dist k,
                            Tracer& tracer);

/// Folds the replay spans and counters of `units` traced units into the
/// graph/dynamics/core per-layer metrics (per-unit means).
void foldReplayMetrics(const Tracer& tracer, const ReplayCounters& totals,
                       std::size_t units, std::size_t viewNodes,
                       LayerMetrics& layers);

}  // namespace perfbench
