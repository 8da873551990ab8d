#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

#include "core/equilibrium.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/timing.hpp"

namespace perfbench {

namespace {

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string mismatch(const char* what, double mine, double reported) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": recomputed " << mine << ", program reported " << reported;
  return out.str();
}

/// 1 + the largest distance from `sources` over every node but `skip`,
/// or -1 when some node is unreachable (the multi-source form of u's
/// eccentricity once u's own row is replaced by `sources`).
int eccentricityFrom(const Network& net, int skip,
                     const std::vector<int>& sources, std::vector<int>& dist,
                     std::vector<int>& queue) {
  if (sources.empty()) return net.n > 1 ? -1 : 0;
  dist.assign(net.n, -1);
  queue.clear();
  dist[skip] = 0;  // never expanded: every path from skip leaves via sources
  for (const int s : sources) {
    dist[s] = 1;
    queue.push_back(s);
  }
  int ecc = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int x = queue[head];
    for (int i = net.offset[x]; i < net.offset[x + 1]; ++i) {
      const int y = net.adj[i];
      if (dist[y] >= 0) continue;
      dist[y] = dist[x] + 1;
      ecc = std::max(ecc, dist[y]);
      queue.push_back(y);
    }
  }
  return queue.size() + 1 == static_cast<std::size_t>(net.n) ? ecc : -1;
}

std::string checkWellFormed(const Strategies& strategies) {
  const int n = static_cast<int>(strategies.size());
  for (int u = 0; u < n; ++u) {
    const auto& s = strategies[u];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] < 0 || s[i] >= n || s[i] == u ||
          (i > 0 && s[i] <= s[i - 1])) {
        return "strategy of player " + std::to_string(u) +
               " is not a sorted set of other players";
      }
    }
  }
  return "";
}

}  // namespace

Strategies strategiesOf(const ncg::StrategyProfile& profile) {
  Strategies out(static_cast<std::size_t>(profile.playerCount()));
  for (ncg::NodeId u = 0; u < profile.playerCount(); ++u) {
    const auto& s = profile.strategyOf(u);
    out[static_cast<std::size_t>(u)].assign(s.begin(), s.end());
  }
  return out;
}

std::vector<std::pair<int, int>> edgesOf(const ncg::Graph& g) {
  std::vector<std::pair<int, int>> out;
  for (const ncg::Edge& e : g.edges()) out.emplace_back(e.u, e.v);
  std::sort(out.begin(), out.end());
  return out;
}

Network unionNetwork(const Strategies& strategies) {
  Network net;
  net.n = static_cast<int>(strategies.size());
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < net.n; ++u) {
    for (const int v : strategies[u]) {
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  net.offset.assign(net.n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++net.offset[u + 1];
    ++net.offset[v + 1];
  }
  for (int u = 0; u < net.n; ++u) net.offset[u + 1] += net.offset[u];
  net.adj.assign(net.offset[net.n], 0);
  std::vector<int> fill(net.offset.begin(), net.offset.end() - 1);
  for (const auto& [u, v] : edges) {
    net.adj[fill[u]++] = v;
    net.adj[fill[v]++] = u;
  }
  return net;
}

std::vector<int> bfs(const Network& net, int source) {
  std::vector<int> dist(net.n, -1);
  std::vector<int> queue{source};
  dist[source] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int x = queue[head];
    for (int i = net.offset[x]; i < net.offset[x + 1]; ++i) {
      const int y = net.adj[i];
      if (dist[y] < 0) {
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    }
  }
  return dist;
}

std::string checkNetwork(const Strategies& strategies,
                         const std::vector<std::pair<int, int>>& programEdges) {
  if (std::string bad = checkWellFormed(strategies); !bad.empty()) return bad;
  const Network net = unionNetwork(strategies);
  std::vector<std::pair<int, int>> unionEdges;
  for (int u = 0; u < net.n; ++u) {
    for (int i = net.offset[u]; i < net.offset[u + 1]; ++i) {
      if (u < net.adj[i]) unionEdges.emplace_back(u, net.adj[i]);
    }
  }
  std::sort(unionEdges.begin(), unionEdges.end());
  if (unionEdges != programEdges) {
    return "the program's network (" + std::to_string(programEdges.size()) +
           " edges) is not the union of the strategies (" +
           std::to_string(unionEdges.size()) + " edges)";
  }
  if (net.n > 0) {
    const std::vector<int> dist = bfs(net, 0);
    if (std::count(dist.begin(), dist.end(), -1) > 0) {
      return "the final network is disconnected";
    }
  }
  return "";
}

std::string checkReported(const Strategies& strategies, double alpha,
                          const Reported& reported) {
  if (std::string bad = checkWellFormed(strategies); !bad.empty()) return bad;
  const Network net = unionNetwork(strategies);
  double social = 0.0;
  int diameter = 0;
  int maxDegree = 0;
  int maxBought = 0;
  for (int u = 0; u < net.n; ++u) {
    const std::vector<int> dist = bfs(net, u);
    if (std::count(dist.begin(), dist.end(), -1) > 0) {
      return "player " + std::to_string(u) + " cannot reach every node";
    }
    const int ecc = *std::max_element(dist.begin(), dist.end());
    const int bought = static_cast<int>(strategies[u].size());
    const double cost =
        alpha * static_cast<double>(bought) + static_cast<double>(ecc);
    if (!reported.playerCosts.empty() &&
        !sameBits(cost, reported.playerCosts[u])) {
      return mismatch(("cost of player " + std::to_string(u)).c_str(), cost,
                      reported.playerCosts[u]);
    }
    social += cost;
    diameter = std::max(diameter, ecc);
    maxDegree = std::max(maxDegree, net.degree(u));
    maxBought = std::max(maxBought, bought);
  }
  const double edges = static_cast<double>(net.adj.size() / 2);
  if (!sameBits(social, reported.socialCost)) {
    return mismatch("social cost", social, reported.socialCost);
  }
  if (!sameBits(diameter, reported.diameter)) {
    return mismatch("diameter", diameter, reported.diameter);
  }
  if (!sameBits(maxDegree, reported.maxDegree)) {
    return mismatch("max degree", maxDegree, reported.maxDegree);
  }
  if (!sameBits(maxBought, reported.maxBought)) {
    return mismatch("max bought", maxBought, reported.maxBought);
  }
  if (!sameBits(edges, reported.edges)) {
    return mismatch("edge count", edges, reported.edges);
  }
  return "";
}

std::string checkNoImprovingSingleEdgeMove(const Strategies& strategies,
                                           double alpha) {
  if (std::string bad = checkWellFormed(strategies); !bad.empty()) return bad;
  const Network net = unionNetwork(strategies);
  const int n = net.n;
  std::vector<int> dist;
  std::vector<int> queue;
  std::vector<int> sources;
  std::vector<char> owns(n, 0);        // u bought the link to v
  std::vector<char> neighbour(n, 0);   // v adjacent to u
  for (int u = 0; u < n; ++u) {
    const std::vector<int>& mine = strategies[u];
    const std::vector<int> row(net.adj.begin() + net.offset[u],
                               net.adj.begin() + net.offset[u + 1]);
    for (const int v : mine) owns[v] = 1;
    for (const int v : row) neighbour[v] = 1;
    // A link the other endpoint also bought survives u dropping it.
    const auto otherOwns = [&](int w) {
      return std::binary_search(strategies[w].begin(), strategies[w].end(), u);
    };
    const double bought = static_cast<double>(mine.size());
    const int ecc0 = eccentricityFrom(net, u, row, dist, queue);
    const double current = alpha * bought + ecc0;
    const auto improves = [&](double purchases, int ecc) {
      return ecc >= 0 && alpha * purchases + ecc < current - 1e-9;
    };
    std::string found;
    const auto describe = [&](const char* kind, int a, int b) {
      found = "player " + std::to_string(u) + " has an improving " + kind +
              " (" + std::to_string(a) + (b >= 0 ? "->" + std::to_string(b)
                                                 : std::string()) +
              ")";
    };
    // Row after dropping w (when the drop severs the link) and adding v.
    const auto rowAfter = [&](int w, int v) {
      sources.clear();
      for (const int x : row) {
        if (x != w || otherOwns(w)) sources.push_back(x);
      }
      if (v >= 0 && !neighbour[v]) sources.push_back(v);
      return sources;
    };
    for (int v = 0; v < n && found.empty(); ++v) {
      if (v == u || owns[v] || neighbour[v]) continue;  // buys that change G
      if (improves(bought + 1, eccentricityFrom(net, u, rowAfter(-1, v), dist,
                                                queue))) {
        describe("buy", v, -1);
      }
    }
    for (const int w : mine) {
      if (!found.empty()) break;
      if (improves(bought - 1,
                   eccentricityFrom(net, u, rowAfter(w, -1), dist, queue))) {
        describe("delete", w, -1);
        break;
      }
      for (int v = 0; v < n; ++v) {
        if (v == u || owns[v]) continue;
        if (improves(bought, eccentricityFrom(net, u, rowAfter(w, v), dist,
                                              queue))) {
          describe("swap", w, v);
          break;
        }
      }
    }
    for (const int v : mine) owns[v] = 0;
    for (const int v : row) neighbour[v] = 0;
    if (!found.empty()) return found;
  }
  return "";
}

std::string checkLke(const ncg::Graph& g, const ncg::StrategyProfile& profile,
                     const ncg::GameParams& params) {
  return ncg::isLke(g, profile, params) ? ""
                                        : "converged profile is not an LKE";
}

std::vector<int> ownedOf(ncg::CsrArena& arena, ncg::NodeId u) {
  const ncg::ArenaRowRef row = arena.row(u);
  std::vector<int> owned;
  for (std::size_t i = 0; i < row.ids.size(); ++i) {
    if (row.owned[i]) owned.push_back(row.ids[i]);
  }
  return owned;
}

/// The generated network has the edge count, minimum degree and
/// ownership preferential attachment implies: a clique on attach + 1
/// seed nodes, then `attach` purchases by every later node.
std::string checkGeneratedBa(ncg::CsrArena& arena, ncg::NodeId nodes,
                             ncg::NodeId attach) {
  const std::uint64_t m = static_cast<std::uint64_t>(attach);
  const std::uint64_t expectedEdges =
      m * (m + 1) / 2 + (static_cast<std::uint64_t>(nodes) - m - 1) * m;
  if (arena.arcCount() != 2 * expectedEdges) {
    return "arena holds " + std::to_string(arena.arcCount() / 2) +
           " edges, preferential attachment implies " +
           std::to_string(expectedEdges);
  }
  if (arena.nodeCount() != nodes) return "arena has the wrong node count";
  ncg::NodeId minDegree = nodes;
  for (ncg::NodeId u = 0; u < arena.nodeCount(); ++u) {
    minDegree = std::min(minDegree, arena.degree(u));
    const std::size_t owned = ownedOf(arena, u).size();
    if (owned != static_cast<std::size_t>(std::min(u, attach))) {
      return "node " + std::to_string(u) + " bought " + std::to_string(owned) +
             " links";
    }
  }
  if (minDegree != attach) {
    return "minimum degree " + std::to_string(minDegree) + ", expected " +
           std::to_string(attach);
  }
  return "";
}

/// Reads the final network out of the arena into the benchmark's own
/// adjacency: rows must be symmetric, every edge bought by an endpoint
/// (so the edge count equals the union of the strategies), and the
/// network connected.
std::string checkArenaNetwork(ncg::CsrArena& arena) {
  Network net;
  net.n = arena.nodeCount();
  net.offset.assign(net.n + 1, 0);
  std::vector<std::uint8_t> owned;
  for (ncg::NodeId u = 0; u < net.n; ++u) {
    const ncg::ArenaRowRef row = arena.row(u);
    net.offset[u + 1] = net.offset[u] + static_cast<int>(row.ids.size());
    net.adj.insert(net.adj.end(), row.ids.begin(), row.ids.end());
    owned.insert(owned.end(), row.owned.begin(), row.owned.end());
  }
  std::uint64_t unionEdges = 0;
  for (int u = 0; u < net.n; ++u) {
    for (int i = net.offset[u]; i < net.offset[u + 1]; ++i) {
      const int v = net.adj[i];
      const auto first = net.adj.begin() + net.offset[v];
      const auto last = net.adj.begin() + net.offset[v + 1];
      const auto it = std::lower_bound(first, last, u);
      if (it == last || *it != u) {
        return "edge " + std::to_string(u) + "-" + std::to_string(v) +
               " is missing from one endpoint's row";
      }
      const bool back = owned[static_cast<std::size_t>(it - net.adj.begin())];
      if (u < v && (owned[i] || back)) ++unionEdges;
    }
  }
  if (unionEdges * 2 != net.adj.size()) {
    return "final network has " + std::to_string(net.adj.size() / 2) +
           " edges but the strategies' union has " +
           std::to_string(unionEdges);
  }
  const std::vector<int> dist = bfs(net, 0);
  if (std::count(dist.begin(), dist.end(), -1) > 0) {
    return "the final network is disconnected";
  }
  return "";
}

std::string checkWindow(const ncg::PagedDynamicsResult& reported,
                        const ncg::PagedDynamicsResult& reference,
                        std::optional<double> recomputedCost) {
  if (reported.outcome != reference.outcome ||
      reported.rounds != reference.rounds ||
      reported.totalMoves != reference.totalMoves) {
    return "outcome, rounds or move count differ from the reference run";
  }
  if (!sameBits(reported.activeCostSum, reference.activeCostSum)) {
    return mismatch("active cost vs reference run", reference.activeCostSum,
                    reported.activeCostSum);
  }
  if (recomputedCost.has_value() &&
      reported.outcome == ncg::DynamicsOutcome::kConverged &&
      !sameBits(*recomputedCost, reported.activeCostSum)) {
    return mismatch("active cost", *recomputedCost, reported.activeCostSum);
  }
  return "";
}

std::uint64_t resultsDigest(const ncg::runtime::ScenarioResults& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const ncg::runtime::TrialRecord& r : results.records()) {
    mix(static_cast<std::uint64_t>(r.point));
    mix(static_cast<std::uint64_t>(r.trial));
    for (const double m : r.metrics) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &m, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

std::string checkSameResults(std::uint64_t multiWorkerDigest,
                             const ncg::runtime::ScenarioResults& single) {
  return resultsDigest(single) == multiWorkerDigest
             ? ""
             : "multi-worker results differ from the single-worker run";
}

std::string checkManifest(const std::string& path,
                          const ncg::runtime::ScenarioResults& results) {
  const ncg::runtime::CheckpointLoad load = ncg::runtime::loadCheckpoint(path);
  if (!load.exists || !load.headerValid) return "manifest has no valid header";
  if (load.malformedLines > 0 || load.corruptTail) {
    return "manifest has " + std::to_string(load.malformedLines) +
           " undecodable lines";
  }
  if (load.records.size() != results.totalTrials() ||
      load.validPrefixRecords != load.records.size()) {
    return "manifest holds " + std::to_string(load.records.size()) +
           " lines for " + std::to_string(results.totalTrials()) + " units";
  }
  std::set<std::pair<int, int>> seen;
  for (const ncg::runtime::TrialRecord& r : load.records) {
    if (!seen.insert({r.point, r.trial}).second ||
        !results.has(r.point, r.trial)) {
      return "manifest line for unit (" + std::to_string(r.point) + ", " +
             std::to_string(r.trial) + ") is duplicated or unknown";
    }
    const std::vector<double>& mine = results.metrics(r.point, r.trial);
    if (mine.size() != r.metrics.size() ||
        std::memcmp(mine.data(), r.metrics.data(),
                    mine.size() * sizeof(double)) != 0) {
      return "manifest line for unit (" + std::to_string(r.point) + ", " +
             std::to_string(r.trial) + ") differs from the in-memory result";
    }
  }
  return "";
}

std::string checkSidecar(const std::string& path,
                         const ncg::runtime::ScenarioResults& results) {
  const ncg::runtime::TimingLoad load = ncg::runtime::loadTimingSidecar(path);
  if (!load.exists || !load.headerValid) return "sidecar has no valid header";
  if (load.malformedLines > 0 || load.corruptTail ||
      load.timings.size() != results.totalTrials()) {
    return "sidecar holds " + std::to_string(load.timings.size()) +
           " valid lines for " + std::to_string(results.totalTrials()) +
           " units";
  }
  std::set<std::pair<int, int>> seen;
  for (const ncg::runtime::UnitTiming& t : load.timings) {
    if (!seen.insert({t.point, t.trial}).second ||
        !results.has(t.point, t.trial)) {
      return "sidecar line for unit (" + std::to_string(t.point) + ", " +
             std::to_string(t.trial) + ") is duplicated or unknown";
    }
  }
  return "";
}

}  // namespace perfbench
