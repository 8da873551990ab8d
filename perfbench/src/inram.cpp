// The two in-RAM workloads: exact MaxNCG best-response dynamics on
// G(100, 0.1) (`exact_er`) and greedy single-edge dynamics on random
// trees with n = 200 (`greedy_trees`). A campaign generates one initial
// network and coin-toss ownership per (grid point, trial), runs every
// unit through runBestResponseDynamics + computeFeatures on one thread,
// and renders the grid's mean ± CI table.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/cost.hpp"
#include "dynamics/features.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "replay.hpp"
#include "runtime/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr ncg::Dist kFullView = 1000;  // ≥ n: every player sees everything
constexpr int kMaxRounds = 60;

struct PointSpec {
  double alpha;
  ncg::Dist k;
  int trials;  ///< per campaign
};

struct InRamSpec {
  const char* name;
  bool exact;       ///< exact best response (else the greedy rule)
  bool erdosRenyi;  ///< G(n, p) (else a uniform random tree)
  ncg::NodeId n;
  double p;
  std::vector<PointSpec> points;
};

struct Unit {
  int point = 0;
  int trial = 0;
  ncg::StrategyProfile initial;
};

struct Finished {
  int point = 0;
  int trial = 0;
  ncg::DynamicsResult result;
  ncg::NetworkFeatures features;
};

std::vector<ncg::runtime::ScenarioPoint> gridOf(const InRamSpec& spec) {
  std::vector<ncg::runtime::ScenarioPoint> points;
  for (const PointSpec& p : spec.points) {
    ncg::runtime::ScenarioPoint point;
    point.params = {{"alpha", p.alpha}, {"k", static_cast<double>(p.k)}};
    point.trials = p.trials;
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<Unit> makeInputs(const InRamSpec& spec, std::uint64_t seed,
                             std::uint64_t campaign) {
  std::vector<Unit> units;
  const std::uint64_t campaignSeed = ncg::deriveSeed(seed, campaign);
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    for (int t = 0; t < spec.points[p].trials; ++t) {
      ncg::Rng rng(ncg::deriveSeed(campaignSeed, units.size()));
      const ncg::Graph g = spec.erdosRenyi
                               ? ncg::makeConnectedErdosRenyi(spec.n, spec.p,
                                                              rng)
                               : ncg::makeRandomTree(spec.n, rng);
      units.push_back({static_cast<int>(p), t,
                       ncg::StrategyProfile::randomOwnership(g, rng)});
    }
  }
  return units;
}

ncg::DynamicsConfig configFor(const InRamSpec& spec, const PointSpec& point) {
  ncg::DynamicsConfig config;
  config.params = ncg::GameParams::max(point.alpha, point.k);
  config.maxRounds = kMaxRounds;
  config.moveRule =
      spec.exact ? ncg::MoveRule::kBestResponse : ncg::MoveRule::kGreedy;
  return config;
}

const std::vector<std::string> kMetricNames = {
    "outcome",  "rounds",     "moves",      "social_cost",
    "diameter", "max_degree", "max_bought", "edges"};

std::vector<double> trialMetrics(const ncg::DynamicsResult& r,
                                 const ncg::NetworkFeatures& f) {
  return {static_cast<double>(r.outcome), static_cast<double>(r.rounds),
          static_cast<double>(r.totalMoves), f.socialCost,
          static_cast<double>(f.diameter), static_cast<double>(f.maxDegree),
          static_cast<double>(f.maxBought), static_cast<double>(f.edges)};
}

Reported reportedOf(const Finished& f, const ncg::GameParams& params) {
  Reported r;
  r.socialCost = f.features.socialCost;
  r.diameter = static_cast<double>(f.features.diameter);
  r.maxDegree = static_cast<double>(f.features.maxDegree);
  r.maxBought = static_cast<double>(f.features.maxBought);
  r.edges = static_cast<double>(f.features.edges);
  for (ncg::NodeId u = 0; u < f.result.profile.playerCount(); ++u) {
    r.playerCosts.push_back(
        ncg::playerCost(params, f.result.profile, f.result.graph, u));
  }
  return r;
}

void checkFinished(const InRamSpec& spec, const Finished& f, Report& report) {
  const PointSpec& point = spec.points[static_cast<std::size_t>(f.point)];
  const ncg::GameParams params = ncg::GameParams::max(point.alpha, point.k);
  const std::string label = std::string(spec.name) + " point " +
                            std::to_string(f.point) + " trial " +
                            std::to_string(f.trial) + ": ";
  const Strategies strategies = strategiesOf(f.result.profile);
  if (std::string bad = checkNetwork(strategies, edgesOf(f.result.graph));
      !bad.empty()) {
    report.fail(label + bad);
  }
  if (std::string bad =
          checkReported(strategies, point.alpha, reportedOf(f, params));
      !bad.empty()) {
    report.fail(label + bad);
  }
  if (f.result.outcome != ncg::DynamicsOutcome::kConverged) return;
  if (spec.exact) {
    if (std::string bad = checkLke(f.result.graph, f.result.profile, params);
        !bad.empty()) {
      report.fail(label + bad);
    }
  }
  if (!spec.exact && point.k >= spec.n) {
    if (std::string bad =
            checkNoImprovingSingleEdgeMove(strategies, point.alpha);
        !bad.empty()) {
      report.fail(label + bad);
    }
  }
}

void runInRam(const InRamSpec& spec, const Options& options, Report& report) {
  const ncg::runtime::Scenario scenario{
      spec.name, "", "", "", kMetricNames, nullptr, nullptr, nullptr, nullptr};
  const std::vector<ncg::runtime::ScenarioPoint> points = gridOf(spec);
  Tracer tracer;
  Tracer* const traced = options.trace ? &tracer : nullptr;
  EndToEnd e2e;
  ReplayCounters totals;
  std::size_t viewNodes = 0;
  std::size_t campaigns = 0;
  double untracedS = 0.0;
  double tracedS = 0.0;
  std::uint32_t trialId = 0;
  std::size_t unitsDone = 0;

  for (std::uint64_t campaign = 0;
       campaign == 0 || e2e.measuredS() < options.seconds; ++campaign) {
    const std::int64_t campaignStart = nowNs();
    std::vector<Unit> inputs;
    {
      tracer.setTrial(0);
      const Tracer::Scope s(traced, SpanName::kGenInputs);
      inputs = makeInputs(spec, options.seed, campaign);
    }
    ncg::runtime::ScenarioResults results(points);
    std::vector<Finished> finished;
    std::vector<double> unitS;
    const std::int64_t computeStart = nowNs();
    if (campaign == 0) {
      e2e.setupS = secondsBetween(options.processStartNs, computeStart);
    }
    for (const Unit& unit : inputs) {
      ++report.attempted;
      const PointSpec& point = spec.points[static_cast<std::size_t>(unit.point)];
      const ncg::DynamicsConfig config = configFor(spec, point);
      try {
        Finished f;
        f.point = unit.point;
        f.trial = unit.trial;
        if (traced == nullptr) {
          const std::int64_t t0 = nowNs();
          f.result = ncg::runBestResponseDynamics(unit.initial, config);
          f.features =
              ncg::computeFeatures(f.result.graph, f.result.profile,
                                   config.params);
          unitS.push_back(secondsSince(t0));
        } else {
          tracer.setTrial(++trialId);
          ncg::DynamicsConfig withMoves = config;
          withMoves.collectMoves = true;
          const std::int64_t t0 = nowNs();
          f.result = ncg::runBestResponseDynamics(unit.initial, withMoves);
          const std::int64_t t1 = nowNs();
          ReplayResult replay;
          {
            const Tracer::Scope s(traced, SpanName::kTrial);
            replay = replayDynamics(unit.initial, config, tracer);
          }
          untracedS += secondsBetween(t0, t1);
          tracedS += secondsSince(t1);
          if (std::string bad = compareReplay(replay, f.result); !bad.empty()) {
            report.fail(std::string(spec.name) + " traced replay: " + bad);
          }
          totals.add(replay.counters);
          viewNodes += traceFinalViews(f.result.graph, f.result.profile,
                                       point.k, tracer);
          f.features = ncg::computeFeatures(f.result.graph, f.result.profile,
                                            config.params);
        }
        results.record(
            {unit.point, unit.trial, trialMetrics(f.result, f.features)});
        finished.push_back(std::move(f));
      } catch (const std::exception& e) {
        ++report.failed;
        std::fprintf(stderr, "unit failed: %s\n", e.what());
      }
    }
    const double computeS = secondsSince(computeStart);
    const std::string table =
        ncg::runtime::renderGenericTable(scenario, points, results);
    e2e.addCampaign(secondsSince(campaignStart), computeS, unitS);
    ++campaigns;
    if (campaign == 0) std::fputs(table.c_str(), stderr);
    // Checked and dropped per campaign, so memory does not grow with
    // the run's length.
    for (const Finished& f : finished) checkFinished(spec, f, report);
    unitsDone += finished.size();
  }
  e2e.peakRssKb = peakRssKb();

  if (traced == nullptr) {
    e2e.emit(report);
    return;
  }
  LayerMetrics layers;
  foldReplayMetrics(tracer, totals, unitsDone, viewNodes, layers);
  layers.set("gen.inputs_s",
             tracer.selfSeconds()[static_cast<std::size_t>(
                 SpanName::kGenInputs)] /
                 static_cast<double>(campaigns));
  layers.set("trace.overhead_ratio",
             untracedS > 0.0 ? tracedS / untracedS - 1.0 : 0.0);
  tracer.write(options.outDir + "/spans-" + spec.name + ".tsv");
  tracer.printLayerSelfTimes();
  layers.emit(report);
}

}  // namespace

void runExactEr(const Options& options, Report& report) {
  runInRam({"exact_er", true, true, 100, 0.1,
            {{0.1, 3, 1}, {0.1, kFullView, 1}, {1.0, 3, 2},
             {1.0, kFullView, 3}}},
           options, report);
}

void runGreedyTrees(const Options& options, Report& report) {
  runInRam({"greedy_trees", false, false, 200, 0.0,
            {{0.5, 3, 1}, {0.5, kFullView, 1}, {2.0, 3, 1},
             {2.0, kFullView, 1}}},
           options, report);
}

}  // namespace perfbench
