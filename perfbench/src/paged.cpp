// The out-of-core workload `paged_ba`: greedy dynamics for sampled
// player windows on a 10⁶-node Barabási–Albert network served from the
// mmap arena through PagedGraph under a 256 KiB NCG_ARENA_BUDGET-style
// byte budget. A campaign builds the network into a fresh arena file in
// the run's private directory, opens it, runs its windows one after the
// other with runPagedGreedyDynamics (each window sees the moves of the
// windows before it) and renders the window table.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/restricted_moves.hpp"
#include "gen/barabasi_albert.hpp"
#include "runtime/scenario.hpp"
#include "storage/paged_dynamics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using ncg::NodeId;

constexpr NodeId kNodes = 1'000'000;
constexpr NodeId kAttach = 2;
constexpr int kWindow = 48;          ///< players woken per window
constexpr int kWindowsPerCampaign = 24;
constexpr int kMaxRounds = 3;
constexpr double kAlpha = 4.0;       ///< high enough that deletions pay
constexpr ncg::Dist kRadius = 2;
constexpr std::uint64_t kBudgetBytes = 256 * 1024;
/// One fixed network for every run; the seed draws the windows.
constexpr std::uint64_t kNetworkSeed = 0xBA5E;
/// Window players are late arrivals (after the first 10% of nodes) whose
/// 2-ball holds at most kMaxBall nodes — 99.4% of them on this network.
/// The rest neighbour the largest hub (degree ~3500): one of those views
/// costs a |H₀|² distance oracle of up to ~75 MiB and a window with the
/// hub itself took 12 s against ~0.07 s typical, so whether a run's sample
/// drew one would decide its figures.
constexpr NodeId kFirstWindowNode = kNodes / 10;
constexpr std::size_t kMaxBall = 1000;

struct Window {
  std::size_t campaign = 0;
  std::vector<NodeId> active;
  ncg::PagedDynamicsResult result;
};

ncg::PagedDynamicsConfig configFor(const std::vector<NodeId>& active) {
  ncg::PagedDynamicsConfig config;
  config.params = ncg::GameParams::max(kAlpha, kRadius);
  config.active = active;
  config.maxRounds = kMaxRounds;
  return config;
}

/// Draws each campaign's windows (distinct players per window).
std::vector<std::vector<NodeId>> sampleWindows(std::uint64_t seed,
                                               std::uint64_t campaign,
                                               const ncg::PagedGraph& g) {
  ncg::Rng rng(ncg::deriveSeed(ncg::deriveSeed(seed, campaign), 0x57));
  std::vector<NodeId> row;
  const auto ballBound = [&](NodeId u) {
    const auto ids = g.neighbors(u);
    row.assign(ids.begin(), ids.end());
    std::size_t ball = 1;
    for (const NodeId v : row) ball += static_cast<std::size_t>(g.degree(v));
    return ball;
  };
  std::vector<std::vector<NodeId>> windows(kWindowsPerCampaign);
  for (std::vector<NodeId>& active : windows) {
    while (static_cast<int>(active.size()) < kWindow) {
      const auto u = kFirstWindowNode + static_cast<NodeId>(rng.nextBounded(
                                            kNodes - kFirstWindowNode));
      if (std::find(active.begin(), active.end(), u) == active.end() &&
          ballBound(u) <= kMaxBall) {
        active.push_back(u);
      }
    }
  }
  return windows;
}

/// The runPagedGreedyDynamics loop, step for step, with spans around
/// buildPlayerViewT, greedyMove and applyStrategy.
ncg::PagedDynamicsResult replayWindow(ncg::ArenaDynamicsBackend& backend,
                                      const ncg::PagedDynamicsConfig& config,
                                      Tracer& tracer) {
  ncg::BfsEngine engine;
  ncg::BestResponseScratch scratch;
  ncg::PlayerView pv;
  ncg::PagedDynamicsResult result;
  for (int round = 1; round <= config.maxRounds; ++round) {
    const Tracer::Scope roundSpan(&tracer, SpanName::kRound);
    bool improvedAny = false;
    double costSum = 0.0;
    for (const NodeId u : config.active) {
      {
        const Tracer::Scope s(&tracer, SpanName::kStorageView);
        ncg::buildPlayerViewT(backend.graph(), backend.strategy(), u,
                              config.params.k, engine, pv);
      }
      ncg::BestResponse move;
      {
        const Tracer::Scope s(&tracer, SpanName::kCoreGreedyMove);
        move = ncg::greedyMove(pv, config.params.forPlayer(u), scratch);
      }
      costSum += move.currentCost;
      if (move.improving) {
        const Tracer::Scope s(&tracer, SpanName::kStorageApply);
        backend.applyStrategy(u, move.strategyGlobal);
        improvedAny = true;
        ++result.totalMoves;
      }
    }
    result.rounds = round;
    result.activeCostSum = costSum;
    if (!improvedAny) {
      result.outcome = ncg::DynamicsOutcome::kConverged;
      return result;
    }
  }
  result.outcome = ncg::DynamicsOutcome::kRoundLimit;
  return result;
}

/// Σ over the window of α·|σ_u| + min(ecc(u), k), the window's cost in
/// the network the backend holds now.
double windowCost(const ncg::RamDynamicsBackend& ram,
                  const std::vector<NodeId>& active, BoundedBfs& bfs) {
  double sum = 0.0;
  for (const NodeId u : active) {
    const int ecc = bfs.eccentricityWithin(
        kNodes, u, kRadius,
        [&](int x) { return ram.graph().neighbors(x); });
    sum += kAlpha * static_cast<double>(ram.strategy().boughtCount(u)) +
           static_cast<double>(ecc);
  }
  return sum;
}

/// Replays every campaign's windows on the in-RAM twin of a pristine
/// arena and compares results, window costs and final strategies.
void checkAgainstRamTwin(const std::string& pristinePath,
                         const std::vector<Window>& windows,
                         const std::vector<std::string>& campaignPaths,
                         Report& report) {
  ncg::CsrArena pristine;
  pristine.open(pristinePath);
  const ncg::Graph graph = ncg::materializeGraph(pristine);
  const ncg::StrategyProfile profile = ncg::materializeProfile(pristine);
  pristine.close();
  BoundedBfs bfs;
  std::size_t next = 0;
  for (std::size_t c = 0; c < campaignPaths.size(); ++c) {
    ncg::RamDynamicsBackend ram(graph, profile);
    std::vector<NodeId> touched;
    for (; next < windows.size() && windows[next].campaign == c; ++next) {
      const Window& w = windows[next];
      const ncg::PagedDynamicsResult twin =
          ncg::runPagedGreedyDynamics(ram, configFor(w.active));
      if (std::string bad = checkWindow(w.result, twin,
                                        windowCost(ram, w.active, bfs));
          !bad.empty()) {
        report.fail("paged_ba window " + std::to_string(next) + ": " + bad);
      }
      touched.insert(touched.end(), w.active.begin(), w.active.end());
    }
    ncg::CsrArena after;
    after.open(campaignPaths[c]);
    for (const NodeId u : touched) {
      const auto& twin = ram.strategy().strategyOf(u);
      if (ownedOf(after, u) != std::vector<int>(twin.begin(), twin.end())) {
        report.fail("paged_ba campaign " + std::to_string(c) +
                    ": final strategy of player " + std::to_string(u) +
                    " differs from the RAM twin");
        break;
      }
    }
    after.close();
  }
}

}  // namespace

void runPagedBa(const Options& options, Report& report) {
  ncg::runtime::ScenarioPoint point;
  point.params = {{"n", kNodes}, {"k", kRadius}, {"alpha", kAlpha}};
  point.trials = kWindowsPerCampaign;
  const std::vector<ncg::runtime::ScenarioPoint> points{point};
  const ncg::runtime::Scenario scenario{
      "paged_ba", "", "", "", {"outcome", "rounds", "moves", "active_cost"},
      nullptr, nullptr, nullptr, nullptr};
  ncg::BarabasiAlbertParams ba;
  ba.nodes = kNodes;
  ba.attach = kAttach;
  ba.seed = kNetworkSeed;

  Tracer tracer;
  Tracer* const traced = options.trace ? &tracer : nullptr;
  EndToEnd e2e;
  std::vector<Window> windows;
  std::vector<std::string> campaignPaths;
  std::size_t builds = 0;
  std::size_t opens = 0;
  double untracedS = 0.0;
  double tracedS = 0.0;
  ncg::PagedGraphStats pager;  // traced side, summed over campaigns
  std::uint64_t peakResident = 0;
  std::int64_t replayMoves = 0;
  std::int64_t replayRounds = 0;

  for (std::uint64_t campaign = 0;
       campaign == 0 || e2e.measuredS() < options.seconds; ++campaign) {
    const std::int64_t campaignStart = nowNs();
    const std::string path =
        options.runDir + "/paged-" + std::to_string(campaign) + ".arena";
    const std::string twinPath = path + ".traced";
    campaignPaths.push_back(path);
    tracer.setTrial(0);
    {
      const Tracer::Scope s(traced, SpanName::kStorageBuild);
      ncg::buildBarabasiAlbertArena(path, ba);
      ++builds;
    }
    ncg::CsrArena arena;
    {
      const Tracer::Scope s(traced, SpanName::kStorageOpen);
      arena.open(path);
      ++opens;
    }
    ncg::CsrArena twinArena;
    if (traced != nullptr) {
      {
        const Tracer::Scope s(traced, SpanName::kStorageBuild);
        ncg::buildBarabasiAlbertArena(twinPath, ba);
        ++builds;
      }
      const Tracer::Scope s(traced, SpanName::kStorageOpen);
      twinArena.open(twinPath);
      ++opens;
    }
    ncg::ArenaDynamicsBackend backend(arena, kBudgetBytes);
    std::vector<std::vector<NodeId>> active;
    {
      const Tracer::Scope s(traced, SpanName::kGenInputs);
      active = sampleWindows(options.seed, campaign, backend.graph());
    }
    std::unique_ptr<ncg::ArenaDynamicsBackend> twin;
    if (traced != nullptr) {
      twin = std::make_unique<ncg::ArenaDynamicsBackend>(twinArena,
                                                         kBudgetBytes);
    }

    ncg::runtime::ScenarioResults results(points);
    std::vector<double> unitS;
    const std::int64_t computeStart = nowNs();
    if (campaign == 0) {
      e2e.setupS = secondsBetween(options.processStartNs, computeStart);
    }
    for (std::size_t w = 0; w < active.size(); ++w) {
      ++report.attempted;
      try {
        const ncg::PagedDynamicsConfig config = configFor(active[w]);
        const std::int64_t t0 = nowNs();
        const ncg::PagedDynamicsResult result =
            ncg::runPagedGreedyDynamics(backend, config);
        unitS.push_back(secondsSince(t0));
        if (twin != nullptr) {
          tracer.setTrial(static_cast<std::uint32_t>(windows.size() + 1));
          const std::int64_t t1 = nowNs();
          ncg::PagedDynamicsResult replay;
          {
            const Tracer::Scope s(traced, SpanName::kTrial);
            replay = replayWindow(*twin, config, tracer);
          }
          tracedS += secondsSince(t1);
          untracedS += unitS.back();
          replayMoves += replay.totalMoves;
          replayRounds += replay.rounds;
          if (std::string bad = checkWindow(result, replay, std::nullopt);
              !bad.empty()) {
            report.fail("paged_ba traced replay of window " +
                        std::to_string(windows.size()) + ": " + bad);
          }
          // Only window players move, so equal window strategies mean
          // equal final profiles.
          for (const NodeId u : active[w]) {
            const auto mine = backend.strategy().strategyOf(u);
            const std::vector<NodeId> library(mine.begin(), mine.end());
            const auto replayed = twin->strategy().strategyOf(u);
            if (!std::equal(library.begin(), library.end(), replayed.begin(),
                            replayed.end())) {
              report.fail("paged_ba traced replay of window " +
                          std::to_string(windows.size()) +
                          ": final strategy of player " + std::to_string(u) +
                          " differs");
              break;
            }
          }
        }
        results.record({0, static_cast<int>(w),
                        {static_cast<double>(result.outcome),
                         static_cast<double>(result.rounds),
                         static_cast<double>(result.totalMoves),
                         result.activeCostSum}});
        windows.push_back({campaign, active[w], result});
      } catch (const std::exception& e) {
        ++report.failed;
        std::fprintf(stderr, "window failed: %s\n", e.what());
      }
    }
    const double computeS = secondsSince(computeStart);
    backend.paged().dropAll();
    if (twin != nullptr) {
      const ncg::PagedGraphStats& stats = twin->paged().stats();
      pager.faults += stats.faults;
      pager.evictions += stats.evictions;
      peakResident = std::max(peakResident, stats.peakResidentBytes);
      twin.reset();
      twinArena.close();
      std::remove(twinPath.c_str());
    }
    arena.close();
    const std::string table =
        ncg::runtime::renderGenericTable(scenario, points, results);
    e2e.addCampaign(secondsSince(campaignStart), computeS, unitS);
    if (campaign == 0) std::fputs(table.c_str(), stderr);
  }
  e2e.peakRssKb = peakRssKb();

  // Checks, after the RSS sample: they read or materialise whole graphs.
  const std::string pristinePath = options.runDir + "/paged-pristine.arena";
  ncg::buildBarabasiAlbertArena(pristinePath, ba);
  {
    ncg::CsrArena pristine;
    pristine.open(pristinePath);
    if (std::string bad = checkGeneratedBa(pristine, kNodes, kAttach); !bad.empty()) {
      report.fail("paged_ba generated arena: " + bad);
    }
  }
  for (const std::string& path : campaignPaths) {
    ncg::CsrArena after;
    after.open(path);
    if (std::string bad = checkArenaNetwork(after); !bad.empty()) {
      report.fail("paged_ba " + path + ": " + bad);
    }
  }
  checkAgainstRamTwin(pristinePath, windows, campaignPaths, report);

  if (traced == nullptr) {
    e2e.emit(report);
    return;
  }
  const std::vector<double> self = tracer.selfSeconds();
  const auto selfOf = [&](SpanName name) {
    return self[static_cast<std::size_t>(name)];
  };
  const double units = static_cast<double>(std::max<std::size_t>(
      windows.size(), 1));
  const double campaigns = static_cast<double>(campaignPaths.size());
  LayerMetrics layers;
  layers.set("gen.inputs_s", selfOf(SpanName::kGenInputs) / campaigns);
  layers.set("dynamics.moves", static_cast<double>(replayMoves) / units);
  layers.set("dynamics.rounds", static_cast<double>(replayRounds) / units);
  layers.set("core.greedy_move_s", selfOf(SpanName::kCoreGreedyMove) / units);
  layers.set("core.greedy_move_calls",
             static_cast<double>(
                 tracer.counts()[static_cast<std::size_t>(
                     SpanName::kCoreGreedyMove)]) /
                 units);
  layers.set("storage.arena_build_s",
             selfOf(SpanName::kStorageBuild) / static_cast<double>(builds));
  layers.set("storage.arena_open_s",
             selfOf(SpanName::kStorageOpen) / static_cast<double>(opens));
  layers.set("storage.view_s", selfOf(SpanName::kStorageView) / units);
  layers.set("storage.apply_s", selfOf(SpanName::kStorageApply) / units);
  layers.set("storage.pager_faults", static_cast<double>(pager.faults) / units);
  layers.set("storage.pager_evictions",
             static_cast<double>(pager.evictions) / units);
  layers.set("storage.peak_resident_kb",
             static_cast<double>(peakResident) / 1024.0);
  layers.set("trace.overhead_ratio",
             untracedS > 0.0 ? tracedS / untracedS - 1.0 : 0.0);
  tracer.write(options.outDir + "/spans-paged_ba.tsv");
  tracer.printLayerSelfTimes();
  layers.emit(report);
}

}  // namespace perfbench
