#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// Per-unit means unless the name says otherwise (ratios, set-up times).
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"gen.inputs_s", "s"},
    {"graph.player_view_s", "s"},
    {"graph.view_nodes", "count"},
    {"dynamics.view_s", "s"},
    {"dynamics.view_rebuilds", "count"},
    {"dynamics.settled_skips", "count"},
    {"dynamics.settled_ratio", "ratio"},
    {"dynamics.apply_s", "s"},
    {"dynamics.moves", "count"},
    {"dynamics.rounds", "count"},
    {"core.best_response_s", "s"},
    {"core.best_response_calls", "count"},
    {"core.cover_constructions", "count"},
    {"core.greedy_move_s", "s"},
    {"core.greedy_move_calls", "count"},
    {"core.oracle_persisted_ratio", "ratio"},
    {"storage.arena_build_s", "s"},
    {"storage.arena_open_s", "s"},
    {"storage.view_s", "s"},
    {"storage.apply_s", "s"},
    {"storage.pager_faults", "count"},
    {"storage.pager_evictions", "count"},
    {"storage.peak_resident_kb", "KiB"},
    {"runtime.overhead_us_per_unit", "us"},
    {"runtime.worker_busy_ratio", "ratio"},
    {"runtime.manifest_bytes_per_unit", "B"},
    {"runtime.sidecar_bytes_per_unit", "B"},
    {"runtime.resume_s", "s"},
    {"runtime.render_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

const LayerMetricSpec& specOf(const std::string& name) {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    if (name == spec.name) return spec;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

}  // namespace

void Report::fail(const std::string& what) {
  // Keep the first few verbatim; the count says how many there were.
  if (problems_.size() < 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  problems_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("units attempted %zu failed %zu, checks %s (%zu failed)\n",
              attempted, failed, correct() ? "passed" : "FAILED",
              problems_.size());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buffer[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void EndToEnd::addCampaign(double wallS, double computeSeconds,
                           const std::vector<double>& unitSeconds) {
  unitS.insert(unitS.end(), unitSeconds.begin(), unitSeconds.end());
  addCampaign(wallS, computeSeconds, unitSeconds.size(),
              unitSeconds.empty() ? 0.0
                                  : *std::max_element(unitSeconds.begin(),
                                                      unitSeconds.end()));
}

void EndToEnd::addCampaign(double wallS, double computeSeconds,
                           std::size_t units, double maxUnitS) {
  campaignWallS.push_back(wallS);
  campaignUnitsPerS.push_back(
      computeSeconds > 0.0 ? static_cast<double>(units) / computeSeconds
                           : 0.0);
  campaignMaxUnitS.push_back(maxUnitS);
  std::fprintf(stderr,
               "campaign %zu wall_s %.6f compute_s %.6f units %zu "
               "max_unit_s %.6f\n",
               campaignWallS.size(), wallS, computeSeconds, units, maxUnitS);
}

double EndToEnd::measuredS() const {
  double total = 0.0;
  for (const double s : campaignWallS) total += s;
  return total;
}

void EndToEnd::emit(Report& report) const {
  report.metric("wall_s", median(campaignWallS), "s");
  report.metric("setup_s", setupS, "s");
  report.metric("units_per_s", median(campaignUnitsPerS), "1/s");
  report.metric("unit_p50_ms", unitP50S.value_or(median(unitS)) * 1e3,
                "ms");
  double meanMaxS = 0.0;
  for (const double s : campaignMaxUnitS) meanMaxS += s;
  if (!campaignMaxUnitS.empty()) {
    meanMaxS /= static_cast<double>(campaignMaxUnitS.size());
  }
  report.metric("unit_max_ms", slowestUnitS.value_or(meanMaxS) * 1e3, "ms");
  report.metric("peak_rss_mb", static_cast<double>(peakRssKb) / 1024.0,
                "MiB");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double groupedMedian(std::vector<double> values, double step) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double mid = values[values.size() / 2];
  const auto below = std::lower_bound(values.begin(), values.end(), mid);
  const auto above = std::upper_bound(values.begin(), values.end(), mid);
  const double half = 0.5 * static_cast<double>(values.size());
  return mid - 0.5 * step +
         step * (half - static_cast<double>(below - values.begin())) /
             static_cast<double>(above - below);
}

long peakRssKb() {
  // VmHWM, not getrusage(RUSAGE_SELF): ru_maxrss survives exec, so it
  // would report the launcher's footprint when that was larger.
  long self = 0;
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self) == 1) break;
    }
    std::fclose(status);
  }
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self, children.ru_maxrss);
}

LayerMetrics::LayerMetrics() {
  for (const LayerMetricSpec& spec : kLayerMetrics) values_[spec.name] = 0.0;
}

void LayerMetrics::set(const std::string& name, double value) {
  specOf(name);
  values_[name] = value;
}

void LayerMetrics::emit(Report& report) const {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    report.metric(spec.name, values_.at(spec.name), spec.unit);
  }
}

}  // namespace perfbench
