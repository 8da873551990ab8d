#include "replay.hpp"

#include <cstdint>
#include <unordered_map>

#include "bench.hpp"
#include "core/best_response.hpp"
#include "core/player_view.hpp"
#include "core/restricted_moves.hpp"
#include "dynamics/cache.hpp"

namespace perfbench {

void ReplayCounters::add(const ReplayCounters& o) {
  activations += o.activations;
  settledSkips += o.settledSkips;
  viewRebuilds += o.viewRebuilds;
  moves += o.moves;
  rounds += o.rounds;
  bestResponseCalls += o.bestResponseCalls;
  coverConstructions += o.coverConstructions;
  greedyCalls += o.greedyCalls;
  greedyPersisted += o.greedyPersisted;
}

ReplayResult replayDynamics(const ncg::StrategyProfile& initial,
                            const ncg::DynamicsConfig& config,
                            Tracer& tracer) {
  using ncg::NodeId;
  ReplayResult result;
  result.profile = initial;
  ncg::Graph graph = initial.buildGraph();
  const NodeId n = initial.playerCount();
  const ncg::GameParams& params = config.params;
  const bool greedy = config.moveRule == ncg::MoveRule::kGreedy;
  ncg::DynamicsCache cache(n, params.k);
  ncg::BestResponseScratch scratch;
  ReplayCounters& c = result.counters;

  std::unordered_map<std::uint64_t, std::vector<ncg::StrategyProfile>> seen;
  seen[result.profile.hash()].push_back(result.profile);

  for (int round = 1; round <= config.maxRounds; ++round) {
    const Tracer::Scope roundSpan(&tracer, SpanName::kRound);
    bool moved = false;
    for (NodeId u = 0; u < n; ++u) {
      ++c.activations;
      bool settled = false;
      {
        const Tracer::Scope s(&tracer, SpanName::kDynIsSettled);
        settled = cache.isSettled(u);
      }
      if (settled) {
        ++c.settledSkips;
        continue;
      }
      const ncg::PlayerView* pv = nullptr;
      {
        const Tracer::Scope s(&tracer, SpanName::kDynViewOf);
        pv = &cache.viewOf(graph, result.profile, u);
      }
      const std::uint64_t revision = cache.viewRevision(u);
      ncg::BestResponse br;
      if (greedy) {
        ncg::MoveDistanceOracle* oracle = nullptr;
        {
          const Tracer::Scope s(&tracer, SpanName::kDynGreedyOracleFor);
          oracle = cache.greedyOracleFor(u, pv->view.size(), revision);
        }
        const Tracer::Scope s(&tracer, SpanName::kCoreGreedyMove);
        br = oracle != nullptr
                 ? ncg::greedyMove(*pv, params, scratch, *oracle, revision)
                 : ncg::greedyMove(*pv, params, scratch);
        ++c.greedyCalls;
        c.greedyPersisted += oracle != nullptr ? 1 : 0;
      } else {
        ncg::CoverInstanceCache* cover = nullptr;
        {
          const Tracer::Scope s(&tracer, SpanName::kDynCoverCacheFor);
          cover = cache.coverCacheFor(u, pv->view.size(), revision);
        }
        const ncg::CoverInstanceCache& counted =
            cover != nullptr ? *cover : scratch.cover;
        const std::size_t before = counted.constructions;
        {
          const Tracer::Scope s(&tracer, SpanName::kCoreBestResponse);
          br = cover != nullptr
                   ? ncg::bestResponse(*pv, params, config.br, scratch, *cover,
                                       revision)
                   : ncg::bestResponse(*pv, params, config.br, scratch);
        }
        c.coverConstructions += counted.constructions - before;
        ++c.bestResponseCalls;
      }
      if (br.improving) {
        result.moves.push_back({round, u, br.strategyGlobal, br.currentCost,
                                br.proposedCost});
        const Tracer::Scope s(&tracer, SpanName::kDynApplyMove);
        cache.applyMove(graph, result.profile, u, br.strategyGlobal);
        ++c.moves;
        moved = true;
      } else {
        const Tracer::Scope s(&tracer, SpanName::kDynMarkSettled);
        cache.markSettled(u);
      }
    }
    result.rounds = round;
    c.rounds = static_cast<std::size_t>(round);
    if (!moved) {
      result.outcome = ncg::DynamicsOutcome::kConverged;
      break;
    }
    auto& bucket = seen[result.profile.hash()];
    bool repeated = false;
    for (const ncg::StrategyProfile& previous : bucket) {
      repeated = repeated || previous == result.profile;
    }
    if (repeated) {
      result.outcome = ncg::DynamicsOutcome::kCycleDetected;
      break;
    }
    bucket.push_back(result.profile);
  }
  c.viewRebuilds = cache.rebuilds();
  return result;
}

std::string compareReplay(const ReplayResult& replay,
                          const ncg::DynamicsResult& library) {
  if (replay.outcome != library.outcome) return "outcomes differ";
  if (replay.rounds != library.rounds) {
    return "rounds differ: replay " + std::to_string(replay.rounds) +
           ", library " + std::to_string(library.rounds);
  }
  if (replay.moves != library.moves) {
    return "move sequences differ (" + std::to_string(replay.moves.size()) +
           " vs " + std::to_string(library.moves.size()) + " moves)";
  }
  if (!(replay.profile == library.profile)) return "final profiles differ";
  return "";
}

std::size_t traceFinalViews(const ncg::Graph& g,
                            const ncg::StrategyProfile& profile, ncg::Dist k,
                            Tracer& tracer) {
  std::size_t nodes = 0;
  for (ncg::NodeId u = 0; u < g.nodeCount(); ++u) {
    const Tracer::Scope s(&tracer, SpanName::kGraphPlayerView);
    nodes += static_cast<std::size_t>(
        ncg::buildPlayerView(g, profile, u, k).view.size());
  }
  return nodes;
}

void foldReplayMetrics(const Tracer& tracer, const ReplayCounters& totals,
                       std::size_t units, std::size_t viewNodes,
                       LayerMetrics& layers) {
  if (units == 0) return;
  const std::vector<double> self = tracer.selfSeconds();
  const double perUnit = 1.0 / static_cast<double>(units);
  const auto selfOf = [&](SpanName name) {
    return self[static_cast<std::size_t>(name)] * perUnit;
  };
  const auto mean = [&](std::size_t count) {
    return static_cast<double>(count) * perUnit;
  };
  const auto ratio = [](std::size_t part, std::size_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  layers.set("graph.player_view_s", selfOf(SpanName::kGraphPlayerView));
  layers.set("graph.view_nodes", mean(viewNodes));
  layers.set("dynamics.view_s", selfOf(SpanName::kDynViewOf));
  layers.set("dynamics.view_rebuilds", mean(totals.viewRebuilds));
  layers.set("dynamics.settled_skips", mean(totals.settledSkips));
  layers.set("dynamics.settled_ratio",
             ratio(totals.settledSkips, totals.activations));
  layers.set("dynamics.apply_s", selfOf(SpanName::kDynApplyMove));
  layers.set("dynamics.moves", mean(totals.moves));
  layers.set("dynamics.rounds", mean(totals.rounds));
  layers.set("core.best_response_s", selfOf(SpanName::kCoreBestResponse));
  layers.set("core.best_response_calls", mean(totals.bestResponseCalls));
  layers.set("core.cover_constructions", mean(totals.coverConstructions));
  layers.set("core.greedy_move_s", selfOf(SpanName::kCoreGreedyMove));
  layers.set("core.greedy_move_calls", mean(totals.greedyCalls));
  layers.set("core.oracle_persisted_ratio",
             ratio(totals.greedyPersisted, totals.greedyCalls));
}

}  // namespace perfbench
