// Correctness checks made apart from the library: the network, costs and
// structural features of a final strategy profile are recomputed with
// the benchmark's own adjacency and BFS (nothing from graph/), then
// compared with what the program reported. Each check returns "" when it
// passes and a description of the first mismatch otherwise, so the
// self-test can feed it corrupted inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/game.hpp"
#include "core/strategy.hpp"
#include "graph/graph.hpp"
#include "runtime/scenario.hpp"
#include "storage/arena.hpp"
#include "storage/paged_dynamics.hpp"

namespace perfbench {

/// σ_u per player, as sorted global ids.
using Strategies = std::vector<std::vector<int>>;

Strategies strategiesOf(const ncg::StrategyProfile& profile);

/// The program's network as sorted (u < v) edges.
std::vector<std::pair<int, int>> edgesOf(const ncg::Graph& g);

/// Undirected CSR adjacency of the union of all strategies.
struct Network {
  int n = 0;
  std::vector<int> offset;  ///< n + 1 entries
  std::vector<int> adj;

  int degree(int u) const { return offset[u + 1] - offset[u]; }
};

Network unionNetwork(const Strategies& strategies);

/// BFS distances from `source` (-1 = unreachable).
std::vector<int> bfs(const Network& net, int source);

/// Strategies are well formed, the program's network is exactly their
/// union, and it is connected.
std::string checkNetwork(const Strategies& strategies,
                         const std::vector<std::pair<int, int>>& programEdges);

/// What the program reported about a final MaxNCG state.
struct Reported {
  double socialCost = 0.0;
  double diameter = 0.0;
  double maxDegree = 0.0;
  double maxBought = 0.0;
  double edges = 0.0;
  std::vector<double> playerCosts;  ///< empty when not reported
};

/// Recomputes every player's cost α·|σ_u| + ecc(u), their sum, the
/// diameter, the max degree, the max bought count and the edge count,
/// and compares them bit for bit with `reported`.
std::string checkReported(const Strategies& strategies, double alpha,
                          const Reported& reported);

/// Full-view MaxNCG: no player has a single-edge buy, delete or swap
/// that lowers α·|σ_u| + ecc(u) by more than 1e-9 (a greedy fixed point).
std::string checkNoImprovingSingleEdgeMove(const Strategies& strategies,
                                           double alpha);

/// A converged exact-dynamics profile is a Local Knowledge Equilibrium.
std::string checkLke(const ncg::Graph& g, const ncg::StrategyProfile& profile,
                     const ncg::GameParams& params);

/// σ_u as an arena's ownership plane stores it.
std::vector<int> ownedOf(ncg::CsrArena& arena, ncg::NodeId u);

/// A freshly generated Barabási–Albert arena has the edge count, minimum
/// degree and ownership preferential attachment implies: a clique on
/// attach + 1 seed nodes, then `attach` purchases by every later node.
std::string checkGeneratedBa(ncg::CsrArena& arena, ncg::NodeId nodes,
                             ncg::NodeId attach);

/// Reads an arena's network into the benchmark's own adjacency: rows
/// must be symmetric, every edge bought by an endpoint (so the edge
/// count equals the union of the strategies), and the network connected.
std::string checkArenaNetwork(ncg::CsrArena& arena);

/// A paged window's result equals a reference run of the same window
/// (its RAM twin or its traced replay); when `recomputedCost` is given
/// and the window converged, the reported active cost equals it bit for
/// bit.
std::string checkWindow(const ncg::PagedDynamicsResult& reported,
                        const ncg::PagedDynamicsResult& reference,
                        std::optional<double> recomputedCost);

/// Order-sensitive digest of every filled slot's metric bit patterns.
std::uint64_t resultsDigest(const ncg::runtime::ScenarioResults& results);

/// The single-worker results equal, bit for bit, the multi-worker ones
/// whose digest was taken.
std::string checkSameResults(std::uint64_t multiWorkerDigest,
                             const ncg::runtime::ScenarioResults& single);

/// The manifest decodes (loadCheckpoint) to exactly `results`, one
/// valid line per unit.
std::string checkManifest(const std::string& path,
                          const ncg::runtime::ScenarioResults& results);

/// The timing sidecar holds one valid line per unit.
std::string checkSidecar(const std::string& path,
                         const ncg::runtime::ScenarioResults& results);

/// Bounded BFS over any adjacency, reusing O(n) storage: the largest
/// distance from `source` among nodes within `maxDepth` hops.
class BoundedBfs {
 public:
  template <typename Neighbors>
  int eccentricityWithin(int nodes, int source, int maxDepth,
                         Neighbors&& neighbors) {
    if (static_cast<int>(dist_.size()) < nodes) dist_.assign(nodes, -1);
    queue_.clear();
    queue_.push_back(source);
    dist_[source] = 0;
    int ecc = 0;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const int x = queue_[head];
      if (dist_[x] == maxDepth) continue;
      for (const int y : neighbors(x)) {
        if (dist_[y] >= 0) continue;
        dist_[y] = dist_[x] + 1;
        ecc = dist_[y] > ecc ? dist_[y] : ecc;
        queue_.push_back(y);
      }
    }
    for (const int x : queue_) dist_[x] = -1;
    return ecc;
  }

 private:
  std::vector<int> dist_;
  std::vector<int> queue_;
};

}  // namespace perfbench
