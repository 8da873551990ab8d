// Shared plumbing of the repository benchmark: run options, the result
// report, end-to-end metric accumulation and the per-layer metric table.
//
// Every workload is a loop of whole "campaigns" (one pass over the
// workload's grid: generate inputs, run every unit, render results)
// that repeats until the run's --seconds are used up. End-to-end
// metrics come from untraced runs; a traced run (--trace 1) drives the
// same units through the library's public calls under spans and
// reports the per-layer metrics instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, shared with the launcher).
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsBetween(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) * 1e-9;
}

inline double secondsSince(std::int64_t fromNs) {
  return secondsBetween(fromNs, nowNs());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string runDir;  ///< private scratch directory of this run
  std::string outDir;  ///< where span files are written
  std::int64_t processStartNs = 0;  ///< launcher's clock at spawn
};

/// What a run prints: correctness verdict, unit counts, metrics.
class Report {
 public:
  /// Records a failed correctness check (the run stays running so every
  /// check reports; the verdict turns false).
  void fail(const std::string& what);
  bool correct() const { return problems_.empty(); }

  void metric(const std::string& name, double value, const std::string& unit);

  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Human lines ("name value unit") then the one-line JSON result.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::string> problems_;
  std::vector<Metric> metrics_;
};

/// Accumulates the six end-to-end metrics over a run's campaigns.
struct EndToEnd {
  double setupS = 0.0;  ///< process start → first unit start
  std::vector<double> unitS;             ///< every unit's wall time
  std::vector<double> campaignWallS;     ///< inputs → rendered results
  std::vector<double> campaignMaxUnitS;  ///< slowest unit per campaign
  std::vector<double> campaignUnitsPerS;  ///< units / compute-phase time
  long peakRssKb = 0;
  /// Set by a workload that times its units itself (and keeps no unitS);
  /// otherwise the p50 is the median of unitS and the slowest unit the
  /// mean over campaigns of each campaign's slowest unit.
  std::optional<double> unitP50S;
  std::optional<double> slowestUnitS;

  /// Adds one finished campaign and keeps its unit times.
  void addCampaign(double wallS, double computeSeconds,
                   const std::vector<double>& unitSeconds);
  /// Adds one finished campaign by its unit count and slowest unit.
  void addCampaign(double wallS, double computeSeconds, std::size_t units,
                   double maxUnitS);

  /// Σ campaign wall time: a run keeps starting campaigns until this
  /// reaches its --seconds (checks between campaigns do not count).
  double measuredS() const;

  void emit(Report& report) const;
};

double median(std::vector<double> values);

/// Median of values that are multiples of `step`, each read as the
/// interval of width `step` around it, interpolated within the median's
/// interval.
double groupedMedian(std::vector<double> values, double step);

/// Peak resident set of this process and its reaped children, KiB.
long peakRssKb();

/// The per-layer metrics every traced run reports, in BENCHMARK.json
/// order; a workload that never enters a layer reports 0 for it.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

/// Workload entry points (each fills `report`).
void runExactEr(const Options& options, Report& report);
void runGreedyTrees(const Options& options, Report& report);
void runPagedBa(const Options& options, Report& report);
void runCampaignSmallUnits(const Options& options, Report& report);

/// Corrupts one input of every correctness check and asserts that the
/// check rejects it. Returns the process exit code.
int runSelfTest(const std::string& runDir);

}  // namespace perfbench
