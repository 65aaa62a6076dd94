// Answer oracles: plain reference formulations of the five served queries,
// written here and sharing no code with the kernels they check. They run
// outside the clock, over any adjacency that hands out sorted neighbour
// spans: the generated CSR (read-flat, read-tiered) or the flat fold of the
// store epoch an answer came from (ingest-live). EdgeModel, the
// benchmark's own replay of the writer's batches, checks that last fold.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "graph/csr_graph.hpp"

namespace ga::e2e {

/// Flat CSR as an oracle adjacency.
struct CsrAdj {
  const graph::CSRGraph& g;
  vid_t n() const { return g.num_vertices(); }
  std::span<const vid_t> nbrs(vid_t u) const { return g.out_neighbors(u); }
};

/// Mutable undirected edge model: sorted neighbour vectors, updated with
/// the same per-arc last-op-wins rule a DeltaBatch has.
struct EdgeModel {
  std::vector<std::vector<vid_t>> adj;

  explicit EdgeModel(const graph::CSRGraph& g) : adj(g.num_vertices()) {
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      const auto s = g.out_neighbors(u);
      adj[u].assign(s.begin(), s.end());
    }
  }
  vid_t n() const { return static_cast<vid_t>(adj.size()); }
  std::span<const vid_t> nbrs(vid_t u) const { return adj[u]; }

  void insert_arc(vid_t u, vid_t v) {
    auto& a = adj[u];
    const auto it = std::lower_bound(a.begin(), a.end(), v);
    if (it == a.end() || *it != v) a.insert(it, v);
  }
  void delete_arc(vid_t u, vid_t v) {
    auto& a = adj[u];
    const auto it = std::lower_bound(a.begin(), a.end(), v);
    if (it != a.end() && *it == v) a.erase(it);
  }
};

template <typename G>
std::vector<std::uint32_t> oracle_bfs(const G& g, vid_t s) {
  std::vector<std::uint32_t> dist(g.n(), kInfDist);
  std::vector<vid_t> q{s};
  dist[s] = 0;
  for (std::size_t head = 0; head < q.size(); ++head) {
    const vid_t u = q[head];
    for (const vid_t v : g.nbrs(u)) {
      if (dist[v] == kInfDist) {
        dist[v] = dist[u] + 1;
        q.push_back(v);
      }
    }
  }
  return dist;
}

/// Vertices within `depth` hops of `s` (sorted) and the arcs among them.
template <typename G>
std::pair<std::vector<vid_t>, eid_t> oracle_extract(const G& g, vid_t s,
                                                    std::uint32_t depth) {
  std::vector<char> in(g.n(), 0);
  std::vector<vid_t> frontier{s};
  in[s] = 1;
  for (std::uint32_t d = 0; d < depth; ++d) {
    std::vector<vid_t> next;
    for (const vid_t u : frontier) {
      for (const vid_t v : g.nbrs(u)) {
        if (!in[v]) {
          in[v] = 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  std::vector<vid_t> members;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (in[v]) members.push_back(v);
  }
  eid_t arcs = 0;
  for (const vid_t u : members) {
    for (const vid_t v : g.nbrs(u)) arcs += in[v];
  }
  return {std::move(members), arcs};
}

struct JaccardHit {
  vid_t v = 0;
  double coefficient = 0.0;
};

/// Up to `k` vertices v != u with J(u, v) >= threshold (and > 0), by
/// descending coefficient, ties by ascending id.
template <typename G>
std::vector<JaccardHit> oracle_jaccard(const G& g, vid_t u, double threshold,
                                       std::size_t k) {
  const auto nu = g.nbrs(u);
  std::vector<vid_t> cand;
  for (const vid_t w : nu) {
    for (const vid_t v : g.nbrs(w)) {
      if (v != u) cand.push_back(v);
    }
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  std::vector<JaccardHit> out;
  for (const vid_t v : cand) {
    const auto nv = g.nbrs(v);
    std::size_t inter = 0;
    for (std::size_t i = 0, j = 0; i < nu.size() && j < nv.size();) {
      if (nu[i] < nv[j]) {
        ++i;
      } else if (nv[j] < nu[i]) {
        ++j;
      } else {
        ++inter, ++i, ++j;
      }
    }
    const double uni = static_cast<double>(nu.size()) +
                       static_cast<double>(nv.size()) -
                       static_cast<double>(inter);
    const double c = uni == 0.0 ? 0.0 : static_cast<double>(inter) / uni;
    if (c >= threshold && c > 0.0) out.push_back({v, c});
  }
  std::sort(out.begin(), out.end(), [](const JaccardHit& a, const JaccardHit& b) {
    return a.coefficient != b.coefficient ? a.coefficient > b.coefficient
                                          : a.v < b.v;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

struct WccAnswer {
  vid_t components = 0;
  vid_t largest = 0;
};

template <typename G>
WccAnswer oracle_wcc(const G& g) {
  const vid_t n = g.n();
  std::vector<vid_t> parent(n);
  for (vid_t v = 0; v < n; ++v) parent[v] = v;
  const auto find = [&](vid_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (vid_t u = 0; u < n; ++u) {
    for (const vid_t v : g.nbrs(u)) {
      const vid_t a = find(u), b = find(v);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::vector<vid_t> size(n, 0);
  WccAnswer w;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t r = find(v);
    if (r == v) ++w.components;
    w.largest = std::max(w.largest, ++size[r]);
  }
  return w;
}

/// PageRank fixed point (damping 0.85, dangling mass spread uniformly),
/// iterated from uniform until the L1 change falls below 1e-10.
template <typename G>
std::vector<double> oracle_pagerank(const G& g) {
  const vid_t n = g.n();
  constexpr double kDamping = 0.85;
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n);
  std::vector<double> contrib(n);
  for (int iter = 0; iter < 1000; ++iter) {
    double dangling = 0.0;
    for (vid_t u = 0; u < n; ++u) {
      const std::size_t d = g.nbrs(u).size();
      contrib[u] = d == 0 ? 0.0 : rank[u] / static_cast<double>(d);
      if (d == 0) dangling += rank[u];
    }
    const double base = (1.0 - kDamping) / n + kDamping * dangling / n;
    double delta = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      double acc = 0.0;
      for (const vid_t u : g.nbrs(v)) acc += contrib[u];  // undirected: in == out
      next[v] = base + kDamping * acc;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (delta < 1e-10) break;
  }
  return rank;
}

/// A served top-k is correct when every reported score is within `eps` of
/// the fixed point and no unreported vertex outranks the lowest reported
/// one by more than `eps` (near-ties may swap places at the cut).
inline bool topk_matches(const std::vector<std::pair<double, vid_t>>& served,
                         const std::vector<double>& ref, std::size_t k,
                         double eps) {
  if (served.size() != std::min<std::size_t>(k, ref.size())) return false;
  std::vector<char> in(ref.size(), 0);
  double lowest = 1.0;
  for (const auto& [score, v] : served) {
    if (v >= ref.size() || in[v] || std::abs(score - ref[v]) > eps) return false;
    in[v] = 1;
    lowest = std::min(lowest, score);
  }
  for (vid_t v = 0; v < ref.size(); ++v) {
    if (!in[v] && ref[v] > lowest + eps) return false;
  }
  return true;
}

}  // namespace ga::e2e
