// The runtime workload `campaign_small_units`: 20 000 sub-millisecond
// exact-dynamics units on 12-node random trees per campaign, run through
// runScenario with forked workers, a checkpoint manifest and the timing
// sidecar. Each campaign stops after 40% of its units (maxUnits, the
// deterministic stand-in for a kill), resumes from the manifest and
// renders the grid. Per-unit work is tiny, so fork and pipe demux, the
// result codec, CRC-suffixed appends and manifest reload dominate. Every
// campaign of a run regenerates the same grid from the seed, so one
// single-worker rerun checks them all.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "dynamics/features.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/random_tree.hpp"
#include "replay.hpp"
#include "runtime/runner.hpp"
#include "runtime/timing.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using ncg::NodeId;

constexpr NodeId kTreeNodes = 12;
constexpr int kTrialsPerPoint = 5000;
constexpr ncg::Dist kFullView = 1000;
constexpr double kStopShare = 0.4;  ///< units computed before the stop
constexpr std::size_t kTimedCampaigns = 9;  ///< repeats per unit for unit_max

struct PointSpec {
  double alpha;
  ncg::Dist k;
};
constexpr std::array<PointSpec, 4> kGrid = {
    {{1.0, 2}, {1.0, kFullView}, {2.0, 2}, {2.0, kFullView}}};

/// A final state packed as bitmasks: bought[u] has bit v set iff v ∈ σ_u,
/// adjacent[u] iff the program's network links u and v.
struct PackedFinal {
  std::array<std::uint16_t, kTreeNodes> bought{};
  std::array<std::uint16_t, kTreeNodes> adjacent{};
};

std::size_t slotOf(int point, int trial) {
  return static_cast<std::size_t>(point) * kTrialsPerPoint +
         static_cast<std::size_t>(trial);
}

std::vector<ncg::StrategyProfile> makeInputs(std::uint64_t seed) {
  std::vector<ncg::StrategyProfile> inputs;
  inputs.reserve(kGrid.size() * kTrialsPerPoint);
  for (std::size_t slot = 0; slot < kGrid.size() * kTrialsPerPoint; ++slot) {
    ncg::Rng rng(ncg::deriveSeed(seed, slot));
    inputs.push_back(ncg::StrategyProfile::randomOwnership(
        ncg::makeRandomTree(kTreeNodes, rng), rng));
  }
  return inputs;
}

ncg::DynamicsConfig configFor(int point) {
  ncg::DynamicsConfig config;
  const PointSpec& p = kGrid[static_cast<std::size_t>(point)];
  config.params = ncg::GameParams::max(p.alpha, p.k);
  return config;
}

/// The campaign as a Scenario over pre-generated inputs. When `finals`
/// is set (the in-process single-worker rerun), every unit also packs
/// its final state into its own slot — distinct slots, so the runner's
/// thread pool never writes one element twice.
ncg::runtime::Scenario makeScenario(
    std::uint64_t seed, std::shared_ptr<const std::vector<ncg::StrategyProfile>> inputs,
    std::vector<PackedFinal>* finals) {
  ncg::runtime::Scenario s;
  s.name = "campaign_small_units";
  s.metricNames = {"outcome",  "rounds",     "moves",      "social_cost",
                   "diameter", "max_degree", "max_bought", "edges"};
  s.makePoints = [seed] {
    std::vector<ncg::runtime::ScenarioPoint> points;
    for (const PointSpec& p : kGrid) {
      ncg::runtime::ScenarioPoint point;
      point.params = {{"alpha", p.alpha}, {"k", static_cast<double>(p.k)}};
      point.baseSeed = seed;
      point.trials = kTrialsPerPoint;
      points.push_back(std::move(point));
    }
    return points;
  };
  s.runTrialFn = [inputs, finals](const ncg::runtime::ScenarioPoint& point,
                                  int trial, ncg::Rng&) {
    const int p = point.param("alpha") == 1.0 ? 0 : 2;
    const int index = p + (point.param("k") == kFullView ? 1 : 0);
    const ncg::DynamicsConfig config = configFor(index);
    const std::size_t slot = slotOf(index, trial);
    const ncg::DynamicsResult r =
        ncg::runBestResponseDynamics((*inputs)[slot], config);
    const ncg::NetworkFeatures f =
        ncg::computeFeatures(r.graph, r.profile, config.params);
    if (finals != nullptr) {
      PackedFinal& packed = (*finals)[slot];
      for (NodeId u = 0; u < kTreeNodes; ++u) {
        for (const NodeId v : r.profile.strategyOf(u)) {
          packed.bought[u] |= static_cast<std::uint16_t>(1u << v);
        }
        for (const NodeId v : r.graph.neighbors(u)) {
          packed.adjacent[u] |= static_cast<std::uint16_t>(1u << v);
        }
      }
    }
    return std::vector<double>{
        static_cast<double>(r.outcome),      static_cast<double>(r.rounds),
        static_cast<double>(r.totalMoves),   f.socialCost,
        static_cast<double>(f.diameter),     static_cast<double>(f.maxDegree),
        static_cast<double>(f.maxBought),    static_cast<double>(f.edges)};
  };
  return s;
}

std::size_t fileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

int workerCount() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, cores));
}

/// Independent checks of every unit of a rerun campaign.
void checkUnits(const std::vector<PackedFinal>& finals,
                const ncg::runtime::ScenarioResults& results, Report& report) {
  for (int point = 0; point < static_cast<int>(kGrid.size()); ++point) {
    for (int trial = 0; trial < kTrialsPerPoint; ++trial) {
      const PackedFinal& packed = finals[slotOf(point, trial)];
      Strategies strategies(kTreeNodes);
      std::vector<std::pair<int, int>> edges;
      for (int u = 0; u < kTreeNodes; ++u) {
        for (int v = 0; v < kTreeNodes; ++v) {
          if (packed.bought[u] >> v & 1) strategies[u].push_back(v);
          if (u < v && (packed.adjacent[u] >> v & 1)) edges.emplace_back(u, v);
        }
      }
      const std::vector<double>& m = results.metrics(point, trial);
      Reported reported;
      reported.socialCost = m[3];
      reported.diameter = m[4];
      reported.maxDegree = m[5];
      reported.maxBought = m[6];
      reported.edges = m[7];
      std::string bad = checkNetwork(strategies, edges);
      if (bad.empty()) {
        bad = checkReported(strategies,
                            kGrid[static_cast<std::size_t>(point)].alpha,
                            reported);
      }
      if (!bad.empty()) {
        report.fail("campaign unit (" + std::to_string(point) + ", " +
                    std::to_string(trial) + "): " + bad);
        return;
      }
    }
  }
}

}  // namespace

void runCampaignSmallUnits(const Options& options, Report& report) {
  const int procs = workerCount();
  const std::size_t units = kGrid.size() * kTrialsPerPoint;
  Tracer tracer;
  Tracer* const traced = options.trace ? &tracer : nullptr;
  EndToEnd e2e;
  // Every campaign runs the same units, so each unit is timed once per
  // campaign; the slowest unit is the one with the largest median time
  // over the first kTimedCampaigns campaigns. (A campaign's single
  // slowest time is whichever unit a worker was descheduled in, not a
  // property of the grid.) The buffer is sized once so that its size
  // does not depend on how many campaigns fit in the run.
  std::vector<std::int32_t> timedUs(units * kTimedCampaigns);
  std::size_t timedCampaigns = 0;
  std::vector<std::uint64_t> digests;
  double executorS = 0.0;
  double unitSumS = 0.0;
  double resumeS = 0.0;
  double renderS = 0.0;
  std::size_t manifestBytes = 0;
  std::size_t sidecarBytes = 0;
  ReplayCounters totals;
  std::size_t replayed = 0;
  std::size_t viewNodes = 0;
  double untracedS = 0.0;
  double tracedS = 0.0;

  for (std::uint64_t campaign = 0;
       campaign == 0 || e2e.measuredS() < options.seconds; ++campaign) {
    const std::int64_t campaignStart = nowNs();
    tracer.setTrial(0);
    std::shared_ptr<const std::vector<ncg::StrategyProfile>> inputs;
    {
      const Tracer::Scope s(traced, SpanName::kGenInputs);
      inputs = std::make_shared<const std::vector<ncg::StrategyProfile>>(
          makeInputs(options.seed));
    }
    const ncg::runtime::Scenario scenario =
        makeScenario(options.seed, inputs, nullptr);
    const std::string manifest =
        options.runDir + "/campaign-" + std::to_string(campaign) + ".jsonl";
    const std::string sidecar = ncg::runtime::timingSidecarPath(manifest);

    ncg::runtime::RunOptions stop;
    stop.procs = procs;
    stop.checkpointPath = manifest;
    stop.maxUnits = static_cast<std::size_t>(kStopShare * units);
    ncg::runtime::RunOptions resume = stop;
    resume.maxUnits = 0;

    const auto run = [&](SpanName span,
                         const ncg::runtime::RunOptions& runOptions) {
      const Tracer::Scope s(traced, span);
      return ncg::runtime::runScenario(scenario, runOptions);
    };
    report.attempted += units;
    const std::int64_t stopStart = nowNs();
    const ncg::runtime::RunReport first = run(SpanName::kRuntimeRun, stop);
    const std::int64_t resumeStart = nowNs();
    const ncg::runtime::RunReport second =
        run(SpanName::kRuntimeResume, resume);
    const std::int64_t resumeEnd = nowNs();
    std::string table;
    {
      const Tracer::Scope s(traced, SpanName::kRuntimeRender);
      table = ncg::runtime::renderResults(scenario, second.points,
                                          second.results, "legacy");
    }
    const std::int64_t renderEnd = nowNs();
    const double wallS = secondsSince(campaignStart);

    std::size_t unitCount = 0;
    std::int64_t maxUnitUs = 0;
    std::int64_t firstStartUs = INT64_MAX;
    std::int64_t resumeFirstUs = INT64_MAX;
    std::int32_t* const campaignUs =
        timedCampaigns < kTimedCampaigns
            ? timedUs.data() + units * timedCampaigns++
            : nullptr;
    for (const auto* timings : {&first.timings, &second.timings}) {
      for (const auto& t : *timings) {
        ++unitCount;
        maxUnitUs = std::max(maxUnitUs, t.durationUs);
        unitSumS += static_cast<double>(t.durationUs) * 1e-6;
        if (campaignUs != nullptr) {
          campaignUs[slotOf(t.point, t.trial)] =
              static_cast<std::int32_t>(t.durationUs);
        }
      }
    }
    for (const auto& t : first.timings) {
      firstStartUs = std::min(firstStartUs, t.startUs);
    }
    for (const auto& t : second.timings) {
      resumeFirstUs = std::min(resumeFirstUs, t.startUs);
    }
    if (campaign == 0) {
      e2e.setupS =
          static_cast<double>(firstStartUs * 1000 - options.processStartNs) *
          1e-9;
    }
    const double campaignExecS = secondsBetween(stopStart, resumeEnd);
    e2e.addCampaign(wallS, campaignExecS, unitCount,
                    static_cast<double>(maxUnitUs) * 1e-6);
    executorS += campaignExecS;
    resumeS +=
        static_cast<double>(resumeFirstUs * 1000 - resumeStart) * 1e-9;
    renderS += secondsBetween(resumeEnd, renderEnd);
    manifestBytes += fileBytes(manifest);
    sidecarBytes += fileBytes(sidecar);
    if (campaign == 0) std::fputs(table.c_str(), stderr);

    // Per-campaign file checks; the files go once checked so a run's
    // disk use does not grow with its length.
    if (!second.complete || first.unitsRun != stop.maxUnits ||
        second.unitsFromCheckpoint != stop.maxUnits ||
        first.unitsRun + second.unitsRun != units) {
      report.fail("campaign " + std::to_string(campaign) +
                  ": stop/resume did not split the grid as asked");
    }
    if (std::string bad = checkManifest(manifest, second.results);
        !bad.empty()) {
      report.fail("campaign " + std::to_string(campaign) + ": " + bad);
    }
    if (std::string bad = checkSidecar(sidecar, second.results); !bad.empty()) {
      report.fail("campaign " + std::to_string(campaign) + ": " + bad);
    }
    std::remove(manifest.c_str());
    std::remove(sidecar.c_str());
    digests.push_back(resultsDigest(second.results));

    if (traced != nullptr) {
      // One traced trial per grid point, against the library's run.
      for (int point = 0; point < static_cast<int>(kGrid.size()); ++point) {
        const ncg::StrategyProfile& initial = (*inputs)[slotOf(point, 0)];
        ncg::DynamicsConfig config = configFor(point);
        tracer.setTrial(static_cast<std::uint32_t>(++replayed));
        ncg::DynamicsConfig withMoves = config;
        withMoves.collectMoves = true;
        const std::int64_t t0 = nowNs();
        const ncg::DynamicsResult lib =
            ncg::runBestResponseDynamics(initial, withMoves);
        const std::int64_t t1 = nowNs();
        ReplayResult replay;
        {
          const Tracer::Scope s(traced, SpanName::kTrial);
          replay = replayDynamics(initial, config, tracer);
        }
        untracedS += secondsBetween(t0, t1);
        tracedS += secondsSince(t1);
        if (std::string bad = compareReplay(replay, lib); !bad.empty()) {
          report.fail("campaign traced replay: " + bad);
        }
        totals.add(replay.counters);
        viewNodes += traceFinalViews(lib.graph, lib.profile, config.params.k,
                                     tracer);
      }
    }
  }
  e2e.peakRssKb = peakRssKb();
  const std::vector<double> timed(timedUs.begin(),
                                  timedUs.begin() + units * timedCampaigns);
  // Unit times are whole microseconds: a plain median would read the
  // same step on every run, so it is interpolated within its step.
  e2e.unitP50S = groupedMedian(timed, 1.0) * 1e-6;
  double slowestUs = 0.0;
  std::vector<double> repeats;
  for (std::size_t slot = 0; slot < units; ++slot) {
    repeats.clear();
    for (std::size_t at = slot; at < units * timedCampaigns; at += units) {
      repeats.push_back(timedUs[at]);
    }
    slowestUs = std::max(slowestUs, median(repeats));
  }
  e2e.slowestUnitS = slowestUs * 1e-6;

  // Single-worker rerun of the grid: every campaign's multi-worker
  // results must equal it bit for bit, and every unit's final state
  // passes the independent checks.
  {
    auto inputs = std::make_shared<const std::vector<ncg::StrategyProfile>>(
        makeInputs(options.seed));
    std::vector<PackedFinal> finals(units);
    ncg::runtime::RunOptions single;
    single.procs = 1;
    single.recordTimings = false;
    const ncg::runtime::RunReport rerun = ncg::runtime::runScenario(
        makeScenario(options.seed, inputs, &finals), single);
    for (std::size_t campaign = 0; campaign < digests.size(); ++campaign) {
      if (std::string bad = checkSameResults(digests[campaign], rerun.results);
          !bad.empty()) {
        report.fail("campaign " + std::to_string(campaign) + ": " + bad);
      }
    }
    checkUnits(finals, rerun.results, report);
  }

  if (traced == nullptr) {
    e2e.emit(report);
    return;
  }
  const double campaigns = static_cast<double>(digests.size());
  const double allUnits = campaigns * static_cast<double>(units);
  LayerMetrics layers;
  foldReplayMetrics(tracer, totals, replayed, viewNodes, layers);
  layers.set("gen.inputs_s",
             tracer.selfSeconds()[static_cast<std::size_t>(
                 SpanName::kGenInputs)] /
                 campaigns);
  const double laneS = executorS * static_cast<double>(procs);
  layers.set("runtime.overhead_us_per_unit",
             (laneS - unitSumS) / allUnits * 1e6);
  layers.set("runtime.worker_busy_ratio", unitSumS / laneS);
  layers.set("runtime.manifest_bytes_per_unit",
             static_cast<double>(manifestBytes) / allUnits);
  layers.set("runtime.sidecar_bytes_per_unit",
             static_cast<double>(sidecarBytes) / allUnits);
  layers.set("runtime.resume_s", resumeS / campaigns);
  layers.set("runtime.render_s", renderS / campaigns);
  layers.set("trace.overhead_ratio",
             untracedS > 0.0 ? tracedS / untracedS - 1.0 : 0.0);
  tracer.write(options.outDir + "/spans-campaign_small_units.tsv");
  tracer.printLayerSelfTimes();
  layers.emit(report);
}

}  // namespace perfbench
