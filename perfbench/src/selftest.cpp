// Self-test: every correctness check must pass on a clean input and fail
// once one input is corrupted — a strategy edge, one metric bit, a
// manifest line, and so on. Small instances keep it to a few seconds.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "dynamics/features.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "replay.hpp"
#include "runtime/runner.hpp"
#include "runtime/timing.hpp"
#include "storage/paged_dynamics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using ncg::NodeId;

class SelfTest {
 public:
  /// The check must accept `clean` and reject `corrupted`.
  void expect(const char* check, const std::string& clean,
              const std::string& corrupted) {
    const bool ok = clean.empty() && !corrupted.empty();
    std::printf("self-test %-32s clean %s, corrupted %s\n", check,
                clean.empty() ? "passes" : "FAILS",
                corrupted.empty() ? "PASSES" : "fails");
    if (!clean.empty()) std::printf("  clean input: %s\n", clean.c_str());
    if (!corrupted.empty()) std::printf("  corrupted input: %s\n", corrupted.c_str());
    allOk_ = allOk_ && ok;
  }
  bool allOk() const { return allOk_; }

 private:
  bool allOk_ = true;
};

double flipLowBit(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof bits);
  return value;
}

/// Converged dynamics from the first seed that converges.
ncg::DynamicsResult convergedRun(bool exact, ncg::DynamicsConfig config,
                                 ncg::StrategyProfile& initial) {
  for (std::uint64_t seed = 1;; ++seed) {
    ncg::Rng rng(seed);
    const ncg::Graph g = exact ? ncg::makeConnectedErdosRenyi(24, 0.2, rng)
                               : ncg::makeRandomTree(20, rng);
    initial = ncg::StrategyProfile::randomOwnership(g, rng);
    ncg::DynamicsResult r = ncg::runBestResponseDynamics(initial, config);
    if (r.outcome == ncg::DynamicsOutcome::kConverged && r.totalMoves > 0) {
      return r;
    }
  }
}

Reported reportedOf(const ncg::DynamicsResult& r,
                    const ncg::GameParams& params) {
  const ncg::NetworkFeatures f =
      ncg::computeFeatures(r.graph, r.profile, params);
  Reported rep;
  rep.socialCost = f.socialCost;
  rep.diameter = static_cast<double>(f.diameter);
  rep.maxDegree = static_cast<double>(f.maxDegree);
  rep.maxBought = static_cast<double>(f.maxBought);
  rep.edges = static_cast<double>(f.edges);
  return rep;
}

void testInRamChecks(SelfTest& t) {
  ncg::DynamicsConfig exact;
  exact.params = ncg::GameParams::max(0.5, 2);
  exact.collectMoves = true;
  ncg::StrategyProfile initial;
  const ncg::DynamicsResult r = convergedRun(true, exact, initial);
  const Strategies clean = strategiesOf(r.profile);
  const auto edges = edgesOf(r.graph);

  // A strategy edge the network does not have.
  Strategies extraEdge = clean;
  for (int v = 1; v < static_cast<int>(clean.size()); ++v) {
    if (!r.graph.hasEdge(0, v)) {
      extraEdge[0].push_back(v);
      std::sort(extraEdge[0].begin(), extraEdge[0].end());
      break;
    }
  }
  t.expect("network == union, connected", checkNetwork(clean, edges),
           checkNetwork(extraEdge, edges));

  const Reported rep = reportedOf(r, exact.params);
  Reported flipped = rep;
  flipped.socialCost = flipLowBit(rep.socialCost);
  t.expect("costs and features", checkReported(clean, 0.5, rep),
           checkReported(clean, 0.5, flipped));
  Reported diameterBit = rep;
  diameterBit.diameter = flipLowBit(rep.diameter);
  t.expect("diameter", checkReported(clean, 0.5, rep),
           checkReported(clean, 0.5, diameterBit));

  t.expect("converged exact => LKE",
           checkLke(r.graph, r.profile, exact.params),
           checkLke(initial.buildGraph(), initial, exact.params));

  Tracer tracer;
  ncg::DynamicsConfig plain = exact;
  plain.collectMoves = false;
  const ReplayResult replay = replayDynamics(initial, plain, tracer);
  ReplayResult altered = replay;
  altered.moves.front().strategy.push_back(
      static_cast<NodeId>(clean.size()) - 1);
  t.expect("traced replay == library", compareReplay(replay, r),
           compareReplay(altered, r));

  ncg::DynamicsConfig greedy;
  greedy.params = ncg::GameParams::max(1.0, 1000);
  greedy.moveRule = ncg::MoveRule::kGreedy;
  ncg::StrategyProfile greedyInitial;
  const ncg::DynamicsResult g = convergedRun(false, greedy, greedyInitial);
  const Strategies fixedPoint = strategiesOf(g.profile);
  // Both endpoints buying one link: dropping it is a free saving.
  Strategies doubleBought = fixedPoint;
  for (int u = 0; u < static_cast<int>(fixedPoint.size()); ++u) {
    if (!fixedPoint[u].empty()) {
      const int v = fixedPoint[u].front();
      doubleBought[v].push_back(u);
      std::sort(doubleBought[v].begin(), doubleBought[v].end());
      break;
    }
  }
  t.expect("no improving single-edge move",
           checkNoImprovingSingleEdgeMove(fixedPoint, 1.0),
           checkNoImprovingSingleEdgeMove(doubleBought, 1.0));
}

/// Rewrites u's arena row without v (drop) or with u's ownership of the
/// link to v cleared (disown).
void editRow(ncg::CsrArena& arena, NodeId u, NodeId v, bool drop) {
  const ncg::ArenaRowRef row = arena.row(u);
  std::vector<NodeId> ids;
  std::vector<std::uint8_t> owned;
  for (std::size_t i = 0; i < row.ids.size(); ++i) {
    if (row.ids[i] == v && drop) continue;
    ids.push_back(row.ids[i]);
    owned.push_back(row.ids[i] == v ? 0 : row.owned[i]);
  }
  arena.patchRow(u, ids, owned);
}

void testArenaChecks(SelfTest& t, const std::string& dir) {
  constexpr NodeId kNodes = 3000;
  constexpr NodeId kAttach = 2;
  ncg::BarabasiAlbertParams ba;
  ba.nodes = kNodes;
  ba.attach = kAttach;
  ba.seed = 7;
  ncg::ArenaOptions layout;
  layout.partitionRows = 512;
  const std::string path = dir + "/selftest.arena";
  const std::string twinPath = dir + "/selftest-twin.arena";
  ncg::buildBarabasiAlbertArena(path, ba, layout);
  ncg::buildBarabasiAlbertArena(twinPath, ba, layout);

  ncg::CsrArena arena;
  arena.open(path);
  const std::string cleanGenerated = checkGeneratedBa(arena, kNodes, kAttach);
  const std::string cleanNetwork = checkArenaNetwork(arena);

  // A paged window against its RAM twin, with the recomputed cost.
  ncg::PagedDynamicsConfig config;
  config.params = ncg::GameParams::max(4.0, 2);
  config.maxRounds = 3;
  for (NodeId u = 0; u < 24; ++u) config.active.push_back(u * 97 % kNodes);
  ncg::PagedDynamicsResult paged;
  {
    ncg::CsrArena twin;
    twin.open(twinPath);
    ncg::ArenaDynamicsBackend backend(twin, 64 * 1024);
    paged = ncg::runPagedGreedyDynamics(backend, config);
    backend.paged().dropAll();
  }
  ncg::RamDynamicsBackend ram(ncg::materializeGraph(arena),
                              ncg::materializeProfile(arena));
  const ncg::PagedDynamicsResult reference =
      ncg::runPagedGreedyDynamics(ram, config);
  BoundedBfs bfs;
  double cost = 0.0;
  for (const NodeId u : config.active) {
    cost += 4.0 * static_cast<double>(ram.strategy().boughtCount(u)) +
            bfs.eccentricityWithin(kNodes, u, 2, [&](int x) {
              return ram.graph().neighbors(x);
            });
  }
  ncg::PagedDynamicsResult costBit = paged;
  costBit.activeCostSum = flipLowBit(paged.activeCostSum);
  t.expect("paged window == RAM twin", checkWindow(paged, reference, cost),
           checkWindow(costBit, reference, cost));

  // Drop one edge from both rows: the arena no longer has the edge
  // count and minimum degree preferential attachment implies.
  const NodeId last = kNodes - 1;
  const NodeId neighbour = arena.row(last).ids.front();
  editRow(arena, last, neighbour, true);
  editRow(arena, neighbour, last, true);
  t.expect("generated BA arena", cleanGenerated,
           checkGeneratedBa(arena, kNodes, kAttach));
  arena.close();

  // An edge nobody bought: the edge count exceeds the strategies' union.
  ncg::CsrArena fresh;
  ncg::buildBarabasiAlbertArena(path, ba, layout);
  fresh.open(path);
  editRow(fresh, last, fresh.row(last).ids.front(), false);
  t.expect("arena network == union", cleanNetwork, checkArenaNetwork(fresh));
  fresh.close();
  std::remove(path.c_str());
  std::remove(twinPath.c_str());
}

/// Flips one payload byte of the given line, so its CRC no longer holds.
void corruptLine(const std::string& path, std::size_t lineIndex) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::size_t start = 0;
  for (std::size_t i = 0; i < lineIndex; ++i) {
    start = bytes.find('\n', start) + 1;
  }
  bytes[start + 2] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

void testRuntimeChecks(SelfTest& t, const std::string& dir) {
  ncg::runtime::Scenario s;
  s.name = "selftest_campaign";
  s.metricNames = {"social_cost", "rounds"};
  s.makePoints = [] {
    std::vector<ncg::runtime::ScenarioPoint> points(2);
    for (int p = 0; p < 2; ++p) {
      points[p].params = {{"alpha", 1.0 + p}};
      points[p].baseSeed = 11 + static_cast<std::uint64_t>(p);
      points[p].trials = 10;
    }
    return points;
  };
  s.runTrialFn = [](const ncg::runtime::ScenarioPoint& point, int,
                    ncg::Rng& rng) {
    ncg::DynamicsConfig config;
    config.params = ncg::GameParams::max(point.param("alpha"), 2);
    const ncg::DynamicsResult r = ncg::runBestResponseDynamics(
        ncg::StrategyProfile::randomOwnership(ncg::makeRandomTree(10, rng),
                                              rng),
        config);
    return std::vector<double>{
        ncg::computeFeatures(r.graph, r.profile, config.params).socialCost,
        static_cast<double>(r.rounds)};
  };
  const std::string manifest = dir + "/selftest.jsonl";
  const std::string sidecar = ncg::runtime::timingSidecarPath(manifest);
  ncg::runtime::RunOptions multi;
  multi.procs = 2;
  multi.checkpointPath = manifest;
  multi.maxUnits = 8;
  ncg::runtime::runScenario(s, multi);
  multi.maxUnits = 0;
  const ncg::runtime::RunReport resumed = ncg::runtime::runScenario(s, multi);
  ncg::runtime::RunOptions single;
  single.procs = 1;
  single.recordTimings = false;
  const ncg::runtime::RunReport one = ncg::runtime::runScenario(s, single);

  ncg::runtime::ScenarioResults flipped = one.results;
  std::vector<double> metrics = one.results.metrics(1, 3);
  metrics[0] = flipLowBit(metrics[0]);
  flipped.record({1, 3, metrics});
  const std::uint64_t digest = resultsDigest(resumed.results);
  t.expect("multi-worker == single-worker",
           checkSameResults(digest, one.results),
           checkSameResults(digest, flipped));

  const std::string cleanManifest = checkManifest(manifest, resumed.results);
  const std::string cleanSidecar = checkSidecar(sidecar, resumed.results);
  corruptLine(manifest, 5);
  corruptLine(sidecar, 5);
  t.expect("manifest == in-memory results", cleanManifest,
           checkManifest(manifest, resumed.results));
  t.expect("one sidecar line per unit", cleanSidecar,
           checkSidecar(sidecar, resumed.results));
  std::remove(manifest.c_str());
  std::remove(sidecar.c_str());
}

}  // namespace

int runSelfTest(const std::string& runDir) {
  SelfTest t;
  testInRamChecks(t);
  testArenaChecks(t, runDir);
  testRuntimeChecks(t, runDir);
  std::printf("self-test %s\n", t.allOk() ? "passed" : "FAILED");
  return t.allOk() ? 0 : 1;
}

}  // namespace perfbench
