// ncg_perfbench — the repository benchmark's executable.
//
//   ncg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --run-dir <dir> --out-dir <dir> [--start-ns <ns>]
//   ncg_perfbench --self-test --run-dir <dir>
//
// perfbench/run.py builds this program and calls it; see
// perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ncg_perfbench --workload <exact_er|greedy_trees|"
               "paged_ba|campaign_small_units> --seed <n> --seconds <s> "
               "--trace <0|1> --run-dir <dir> --out-dir <dir> "
               "[--start-ns <ns>]\n"
               "       ncg_perfbench --self-test --run-dir <dir>\n");
  return 2;
}

bool parseUnsigned(const std::string& text, unsigned long long& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.processStartNs = perfbench::nowNs();
  bool selfTest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      selfTest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--run-dir") {
      options.runDir = value;
    } else if (flag == "--out-dir") {
      options.outDir = value;
    } else if (flag == "--seed" && parseUnsigned(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parseUnsigned(value, number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--start-ns" && parseUnsigned(value, number)) {
      options.processStartNs = static_cast<std::int64_t>(number);
    } else {
      return usage();
    }
  }
  if (options.runDir.empty()) return usage();
  try {
    if (selfTest) return perfbench::runSelfTest(options.runDir);
    if (options.outDir.empty()) return usage();
    perfbench::Report report;
    if (options.workload == "exact_er") {
      perfbench::runExactEr(options, report);
    } else if (options.workload == "greedy_trees") {
      perfbench::runGreedyTrees(options, report);
    } else if (options.workload == "paged_ba") {
      perfbench::runPagedBa(options, report);
    } else if (options.workload == "campaign_small_units") {
      perfbench::runCampaignSmallUnits(options, report);
    } else {
      return usage();
    }
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncg_perfbench: %s\n", e.what());
    return 1;
  }
}
