// e2e_bench: the served-query benchmark. One process generates all load
// against the public APIs of the server, store, kernels and dist modules,
// checks every answer against an oracle computed outside the clock, and
// prints each metric with its unit and sample count. The last stdout line
// is one JSON object: end-to-end metrics (--trace 0) or the per-layer
// ledger (--trace 1).
//
//   e2e_bench --workload read-flat|read-tiered|ingest-live|dist-3shard
//             --seed N --seconds S --trace 0|1
//             --tmp-root DIR [--shard-bin PATH] [--commit SHA]
//
// See README.md in this directory for the workloads and the metric
// glossary.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <unordered_set>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/pagerank.hpp"
#include "ledger.hpp"
#include "oracle.hpp"
#include "server/server.hpp"
#include "store/epoch_log.hpp"
#include "store/recovery.hpp"
#include "store/versioned_store.hpp"

namespace ga::e2e {
namespace {

namespace fs = std::filesystem;
using server::QueryKind;
using server::QueryResult;
using server::QueryStatus;

// ---------------------------------------------------------------------------
// Configuration

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shard_bin;
  std::string tmp_root;
  std::string commit = "unknown";
};

struct Workload {
  const char* name;
  unsigned scale;  // GAP kronN
  bool tiered;     // read-tiered: epoch over a 25%-budget TieredGraph
  bool live;       // ingest-live: versioned store + log + writer
  bool dist;       // dist-3shard: coordinator + 3 shard processes
};

constexpr Workload kWorkloads[] = {
    {"read-flat", 16, false, false, false},
    {"read-tiered", 16, true, false, false},
    {"ingest-live", 16, false, true, false},
    {"dist-3shard", 14, false, false, true},
};

constexpr unsigned kQueryClients = 3;
constexpr std::size_t kBatchOps = 500;          // ops per DeltaBatch
constexpr double kWriterPeriodMs = 50.0;        // one batch per period
constexpr std::uint64_t kCheckpointEvery = 64;  // epochs between checkpoints
constexpr double kTierBudgetShare = 0.25;
constexpr int kSetupReps = 5;
constexpr double kJaccardThreshold = 0.1;
constexpr std::size_t kTopK = 10;
// Served PageRank stops at an L1 change of 1e-6 (batch or warm refine),
// within a few 1e-6 of the fixed point per vertex.
constexpr double kPageRankEps = 2e-5;
constexpr unsigned kOracleThreads = 4;
constexpr std::uint64_t kGraphSeed = 1;  // GAP inputs are fixed graphs

// ---------------------------------------------------------------------------
// Records

struct QueryRecord {
  Op op;
  bool traced = false;
  bool failed = false;
  std::string error;
  double latency_ms = 0.0;
  double wait_ms = 0.0;
  double exec_ms = 0.0;
  bool cache_hit = false;
  bool incremental = false;
  std::uint64_t epoch = 0;   // served snapshot / coordinator epoch
  std::uint64_t digest = 0;  // answer digest (see digest_of)
  std::uint64_t work = 0;    // reached / arcs / rounds
  std::vector<std::pair<double, vid_t>> topk;  // PageRank only
  // Traced ingest-live samples of StoreStats at submit.
  double chain_depth = -1.0;
  double read_amp = -1.0;
  std::uint64_t compactions = 0;
  double last_compact_ms = 0.0;
  // Traced dist-3shard: the same query on the local mirror view.
  double local_ms = -1.0;
};

struct EpochRecord {
  bool traced = false;
  bool failed = false;
  std::string error;
  double late_ms = 0.0;  // actual send - due
  double ack_ms = 0.0;   // apply() return - due
  std::size_t ops = 0;
};

/// Serving-publish epoch -> store epoch, filled by the view listener.
class EpochMap {
 public:
  void record(std::uint64_t served, std::uint64_t store_epoch) {
    std::lock_guard<std::mutex> lk(mu_);
    if (map_.size() <= served) map_.resize(served + 1, kUnknown);
    map_[served] = store_epoch;
  }
  std::optional<std::uint64_t> store_epoch(std::uint64_t served) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (served >= map_.size() || map_[served] == kUnknown) return std::nullopt;
    return map_[served];
  }

 private:
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  mutable std::mutex mu_;
  std::vector<std::uint64_t> map_;
};

// ---------------------------------------------------------------------------
// Inputs

std::uint64_t edge_key(vid_t u, vid_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Writer batches: 90% inserts drawn from the RMAT distribution, 10%
/// deletes of edges live at that point of the sequence.
std::vector<store::DeltaBatch> make_batches(const graph::CSRGraph& g,
                                            unsigned scale, std::uint64_t seed,
                                            std::size_t count) {
  const std::size_t inserts = kBatchOps * 9 / 10;
  const vid_t n = g.num_vertices();
  const std::size_t need = inserts * count * 11 / 10 + 1024;
  graph::RmatParams rp;
  rp.scale = scale;
  rp.edge_factor = static_cast<unsigned>(need / n + 1);
  rp.seed = core::mix64(seed ^ 0x696e73657274ULL);
  const std::vector<graph::Edge> fresh = graph::rmat_edges(rp);

  std::vector<std::uint64_t> live;  // candidates; liveness via `dead`
  for (vid_t u = 0; u < n; ++u) {
    for (const vid_t v : g.out_neighbors(u)) {
      if (u < v) live.push_back(edge_key(u, v));
    }
  }
  std::unordered_set<std::uint64_t> dead;
  core::Xoshiro256 rng(core::mix64(seed ^ 0x64656c657465ULL));
  std::vector<store::DeltaBatch> out;
  std::size_t next = 0;
  for (std::size_t b = 0; b < count; ++b) {
    store::DeltaBatch batch(/*directed=*/false);
    std::size_t ins = 0, del = 0;
    while (ins + del < kBatchOps) {
      if (ins < inserts) {
        const graph::Edge& e = fresh[next++ % fresh.size()];
        if (e.u == e.v) continue;
        batch.insert_edge(e.u, e.v);
        const std::uint64_t k = edge_key(e.u, e.v);
        dead.erase(k);
        live.push_back(k);
        ++ins;
      } else {
        const std::uint64_t k = live[rng.next_below(live.size())];
        if (!dead.insert(k).second) continue;
        batch.delete_edge(static_cast<vid_t>(k >> 32),
                          static_cast<vid_t>(k & 0xffffffffu));
        ++del;
      }
    }
    out.push_back(std::move(batch));
  }
  return out;
}

server::QueryDesc desc_for(const Op& op, bool force_batch) {
  server::QueryDesc d;
  d.seed = op.arg;
  switch (op.kind) {
    case OpKind::kBfs:
      d.kind = QueryKind::kBfs;
      d.klass = server::QueryClass::kInteractive;
      break;
    case OpKind::kExtract:
      d.kind = QueryKind::kSubgraphExtract;
      d.depth = 2;
      break;
    case OpKind::kJaccard:
      d.kind = QueryKind::kJaccardNeighbors;
      d.threshold = kJaccardThreshold;
      d.k = kTopK;
      break;
    case OpKind::kWcc:
    case OpKind::kPageRank:
      d.kind = op.kind == OpKind::kWcc ? QueryKind::kWcc
                                       : QueryKind::kPageRankTopK;
      d.k = kTopK;
      d.klass = server::QueryClass::kBatch;
      if (force_batch) {
        d.use_cache = false;
        d.allow_incremental = false;
      }
      break;
    case OpKind::kApply:
      GA_CHECK(false, "apply is not a query");
  }
  return d;
}

// ---------------------------------------------------------------------------
// Answer digests, shared by the served side and the oracle side.

std::uint64_t bfs_digest(const std::vector<std::uint32_t>& dist) {
  Digest d;
  d.add_all(dist);
  return d.h;
}

std::uint64_t extract_digest(const std::vector<vid_t>& members, eid_t arcs) {
  Digest d;
  d.add_all(members);
  d.add(arcs);
  return d.h;
}

template <typename Pairs, typename V, typename C>
std::uint64_t jaccard_digest(const Pairs& pairs, V v_of, C coef_of) {
  Digest d;
  d.add(pairs.size());
  for (const auto& p : pairs) {
    d.add(v_of(p));
    d.add_double(coef_of(p));
  }
  return d.h;
}

std::uint64_t wcc_digest(vid_t components, vid_t largest) {
  Digest d;
  d.add(components);
  d.add(largest);
  return d.h;
}

/// Served QueryResult -> digest + work count.
void digest_served(const QueryResult& r, QueryRecord& rec) {
  switch (rec.op.kind) {
    case OpKind::kBfs:
      rec.digest = bfs_digest(r.dist);
      rec.work = r.reached;
      break;
    case OpKind::kExtract:
      rec.digest = extract_digest(r.members, r.subgraph_arcs);
      rec.work = r.subgraph_arcs;
      break;
    case OpKind::kJaccard:
      rec.digest = jaccard_digest(
          r.neighbors, [](const kernels::JaccardPair& p) { return p.v; },
          [](const kernels::JaccardPair& p) { return p.coefficient; });
      break;
    case OpKind::kWcc:
      rec.digest = wcc_digest(r.num_components, r.largest_component);
      break;
    case OpKind::kPageRank:
      rec.topk = r.topk;
      break;
    case OpKind::kApply:
      break;
  }
}

// ---------------------------------------------------------------------------
// Oracles

/// What Coordinator::pagerank() computes by default, bit for bit.
kernels::PageRankOptions dist_pagerank_opts() {
  kernels::PageRankOptions o;
  o.damping = 0.85;
  o.tolerance = 0.0;
  o.max_iters = 20;
  return o;
}

/// Checks the records of one graph version against oracles on `g`.
/// Returns the number of wrong answers and prints the first few.
template <typename G>
std::size_t check_records(const G& g, const std::vector<QueryRecord*>& recs,
                          const char* where) {
  std::map<std::pair<int, vid_t>, std::uint64_t> memo;
  std::optional<std::vector<double>> pr;
  std::size_t wrong = 0;
  for (QueryRecord* r : recs) {
    bool ok = true;
    if (r->op.kind == OpKind::kPageRank) {
      if (!pr) pr = oracle_pagerank(g);
      ok = topk_matches(r->topk, *pr, kTopK, kPageRankEps);
    } else {
      const auto key = std::make_pair(static_cast<int>(r->op.kind),
                                      seeded(r->op.kind) ? r->op.arg : 0);
      auto it = memo.find(key);
      if (it == memo.end()) {
        std::uint64_t h = 0;
        switch (r->op.kind) {
          case OpKind::kBfs:
            h = bfs_digest(oracle_bfs(g, r->op.arg));
            break;
          case OpKind::kExtract: {
            const auto [m, arcs] = oracle_extract(g, r->op.arg, 2);
            h = extract_digest(m, arcs);
            break;
          }
          case OpKind::kJaccard:
            h = jaccard_digest(
                oracle_jaccard(g, r->op.arg, kJaccardThreshold, kTopK),
                [](const JaccardHit& p) { return p.v; },
                [](const JaccardHit& p) { return p.coefficient; });
            break;
          case OpKind::kWcc: {
            const WccAnswer w = oracle_wcc(g);
            h = wcc_digest(w.components, w.largest);
            break;
          }
          default:
            break;
        }
        it = memo.emplace(key, h).first;
      }
      ok = it->second == r->digest;
    }
    if (!ok) {
      if (++wrong <= 3) {
        std::fprintf(stderr, "wrong answer: %s seed %u at %s\n",
                     op_name(r->op.kind), r->op.arg, where);
      }
      r->failed = true;
      r->error = "wrong answer";
    }
  }
  return wrong;
}

/// Runs fn(i) for i in [0, n) on up to kOracleThreads threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  const unsigned t = static_cast<unsigned>(
      std::min<std::size_t>(kOracleThreads, std::max<std::size_t>(n, 1)));
  for (unsigned i = 0; i < t; ++i) {
    pool.emplace_back([&] {
      for (std::size_t j; (j = next.fetch_add(1)) < n;) fn(j);
    });
  }
  for (auto& th : pool) th.join();
}

/// read-flat / read-tiered: every answer against the flat CSR. Keys are
/// split across threads; PageRank and WCC are computed once.
std::size_t verify_static(const graph::CSRGraph& g,
                          std::vector<QueryRecord>& recs) {
  std::vector<std::vector<QueryRecord*>> shards(kOracleThreads * 4);
  std::vector<QueryRecord*> global;
  for (QueryRecord& r : recs) {
    if (r.failed) continue;
    if (r.op.kind == OpKind::kWcc || r.op.kind == OpKind::kPageRank) {
      global.push_back(&r);
    } else {
      shards[core::mix64(r.op.arg * 8 + static_cast<int>(r.op.kind)) %
             shards.size()]
          .push_back(&r);
    }
  }
  shards.push_back(std::move(global));
  std::atomic<std::size_t> wrong{0};
  const CsrAdj adj{g};
  parallel_for(shards.size(), [&](std::size_t i) {
    wrong += check_records(adj, shards[i], "flat oracle");
  });
  return wrong;
}

/// Replays `batches` into a fresh store and returns the view at each
/// store epoch in `wanted` (epoch 0 = the base).
std::map<std::uint64_t, store::GraphView> replay_views(
    const graph::CSRGraph& base, const std::vector<store::DeltaBatch>& batches,
    const std::vector<std::uint64_t>& wanted) {
  store::VersionedGraphStore mirror{graph::CSRGraph(base)};
  std::map<std::uint64_t, store::GraphView> out;
  std::size_t w = 0;
  std::vector<std::uint64_t> sorted = wanted;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (std::uint64_t e = 0; w < sorted.size(); ++e) {
    if (e > 0) {
      GA_CHECK(e - 1 < batches.size(), "replay past the generated batches");
      mirror.apply(batches[e - 1]);
    }
    if (sorted[w] == e) {
      out.emplace(e, mirror.view());
      ++w;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process facts

double rss_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kb = std::atof(line + len);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Share of CPU time the hypervisor gave to other guests since `prev`
/// (the steal column of /proc/stat); updates `prev`. A host fact printed
/// with each run: steal slows every layer at once.
double steal_share(std::pair<double, double>& prev) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return 0.0;
  double total = 0.0;
  for (const double x : v) total += x;
  const double dt = total - prev.first, ds = v[7] - prev.second;
  prev = {total, v[7]};
  return dt > 0 ? ds / dt : 0.0;
}

std::string fresh_dir(const Options& o, const char* tag) {
  static int counter = 0;
  const fs::path p = fs::path(o.tmp_root) /
                     (o.workload + "-" + tag + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(counter++));
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;    // samples behind the value (0 = a counter)
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t n = 0, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), n,
                        std::move(note)});
  }
  void add_pct(const std::string& name, const Percentile& p) {
    char note[64] = "";
    if (!p.exact) std::snprintf(note, sizeof(note), "reported at q=%.4f", p.q);
    add(name, p.value, "ms", p.n, note);
  }
  void print_table(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %14.6g %-8s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.n > 0) std::printf(" n=%zu", m.n);
      if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
      std::printf("\n");
    }
  }
  std::string json() const {
    std::string s;
    for (const Metric& m : metrics_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    s.empty() ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
      s += buf;
    }
    return "{" + s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// The system under test

struct Rig {
  std::string dir;  // epoch log / shard root (ingest-live, dist-3shard)
  std::shared_ptr<const store::TieredGraph> tiers;
  std::unique_ptr<server::AnalyticsServer> server;
  std::unique_ptr<store::EpochLog> log;
  std::unique_ptr<store::VersionedGraphStore> store;
  std::unique_ptr<dist::Coordinator> coord;
  EpochMap epochs;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { teardown(); }

  /// Stops background work and unhooks callbacks before anything they
  /// reference goes away; idempotent.
  void teardown() {
    if (store) {
      store->stop_compactor();
      store->set_view_listener({});
      store->set_durability_hook({});
      store->set_post_publish_hook({});
    }
    if (coord) coord->stop();
    coord.reset();
    server.reset();
    store.reset();
    log.reset();
    tiers.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      dir.clear();
    }
  }
};

/// Builds the workload's first servable epoch from a generated edge list.
/// Everything in here is inside setup_s.
std::unique_ptr<Rig> set_up(const Workload& w, const Options& o,
                            std::vector<graph::Edge> edges, vid_t n,
                            Tracer& tracer) {
  auto rig = std::make_unique<Rig>();
  graph::CSRGraph g = graph::build_csr(std::move(edges), n);
  if (w.dist) {
    dist::CoordinatorOptions co;
    co.shards = 3;
    co.method = dist::PartitionMethod::kHash;
    co.root_dir = rig->dir = fresh_dir(o, "shards");
    co.sync_each_append = true;
    co.process_isolation = true;
    co.shard_binary = o.shard_bin;
    rig->coord = std::make_unique<dist::Coordinator>(co);
    rig->coord->start(g).or_throw();
    return rig;
  }
  rig->server = std::make_unique<server::AnalyticsServer>();
  if (w.tiered) {
    store::TierPolicy tp;
    const double flat_bytes =
        static_cast<double>(g.num_vertices() + 1) * sizeof(eid_t) +
        static_cast<double>(g.num_arcs()) * sizeof(vid_t);
    tp.budget_bytes = static_cast<std::size_t>(flat_bytes * kTierBudgetShare);
    rig->tiers = store::TieredGraph::build(g, tp);
    rig->server->publish(store::GraphView::over_tiers(rig->tiers));
    return rig;
  }
  if (!w.live) {
    rig->server->publish(store::GraphView::of(std::move(g)));
    return rig;
  }
  rig->store = std::make_unique<store::VersionedGraphStore>(std::move(g));
  store::EpochLogOptions lo;
  lo.dir = rig->dir = fresh_dir(o, "log");
  lo.checkpoint_every = kCheckpointEvery;
  lo.sync_each_append = true;
  rig->log = std::make_unique<store::EpochLog>(lo);
  // The two hooks EpochLog::attach installs, wired here so the traced run
  // can time them; the untraced run runs the same hooks with spans off.
  store::EpochLog* log = rig->log.get();
  rig->store->set_durability_hook(
      [log, &tracer](std::uint64_t e, const store::DeltaBatch& b,
                     const store::DeltaSummary& s) {
        Tracer::Scope sp(tracer, "store.log_append");
        log->append(e, b, s);
      });
  rig->store->set_post_publish_hook([log, &tracer](const store::GraphView& v) {
    Tracer::Scope sp(tracer, "store.checkpoint");
    log->maybe_checkpoint(v);
  });
  log->checkpoint(rig->store->view());
  server::AnalyticsServer* srv = rig->server.get();
  EpochMap* map = &rig->epochs;
  rig->store->set_view_listener([srv, map, &tracer](store::GraphView v) {
    Tracer::Scope sp(tracer, "store.publish");
    const std::uint64_t se = v.epoch();
    map->record(srv->publish(std::move(v)), se);
  });
  const store::GraphView first = rig->store->view();
  map->record(srv->publish(first), first.epoch());
  rig->store->start_compactor();
  return rig;
}

// ---------------------------------------------------------------------------
// Load

struct Window {
  Clock::time_point start, end;
};

void query_client(const std::vector<Op>& ops, const Window& win, Rig& rig,
                  bool force_batch, bool sample_store, Tracer& tracer,
                  std::vector<QueryRecord>& out) {
  for (const Op& op : ops) {
    if (Clock::now() >= win.end) break;
    QueryRecord rec;
    rec.op = op;
    const server::QueryDesc desc = desc_for(op, force_batch);
    if (sample_store && tracer.enabled()) {
      const store::StoreStats st = rig.store->stats();
      rec.chain_depth = static_cast<double>(st.chain_depth);
      rec.read_amp = st.read_amplification;
      rec.compactions = st.compactions;
      rec.last_compact_ms = st.last_compact_ms;
    }
    TimedQuery t = timed_query(*rig.server, desc, tracer);
    const QueryResult& r = t.result;
    rec.traced = t.traced;
    rec.latency_ms = t.latency_ms;
    rec.wait_ms = r.wait_ms;
    rec.exec_ms = r.exec_ms;
    rec.cache_hit = r.cache_hit;
    rec.incremental = r.incremental;
    rec.epoch = r.epoch;
    if (r.status != QueryStatus::kOk) {
      rec.failed = true;
      rec.error = std::string(server::query_status_name(r.status)) + " " +
                  r.error;
    } else {
      digest_served(r, rec);
    }
    out.push_back(std::move(rec));
  }
}

/// Open-loop writer: batch k is due at start + k * period and is timed
/// from its due time, so a stall also delays the batches queued behind it.
void writer(const std::vector<store::DeltaBatch>& batches, const Window& win,
            Rig& rig, Tracer& tracer, std::vector<EpochRecord>& out) {
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const auto due = win.start + std::chrono::microseconds(static_cast<long>(
                                     k * kWriterPeriodMs * 1000.0));
    if (due >= win.end) break;
    std::this_thread::sleep_until(due);
    EpochRecord e;
    e.ops = batches[k].num_ops();
    e.late_ms = ms_between(due, Clock::now());
    try {
      Tracer::Scope sp(tracer, "store.apply");
      e.traced = sp.traced();
      rig.store->apply(batches[k]);
    } catch (const std::exception& ex) {
      e.failed = true;
      e.error = ex.what();
    }
    e.ack_ms = ms_between(due, Clock::now());
    const bool refused = e.failed;  // later epochs would leave a gap
    out.push_back(std::move(e));
    if (refused) break;
  }
}

/// The single dist-3shard client. Applies run in sequence order; in the
/// traced run a local mirror store follows them so each query also runs
/// on the mirror view (outside the span) for dist.local_*_ms.
void dist_client(const std::vector<Op>& ops,
                 const std::vector<store::DeltaBatch>& batches,
                 const graph::CSRGraph* mirror_base, const Window& win,
                 Rig& rig, Tracer& tracer, std::vector<QueryRecord>& qrecs,
                 std::vector<EpochRecord>& erecs) {
  std::unique_ptr<store::VersionedGraphStore> mirror;
  if (mirror_base != nullptr) {
    mirror = std::make_unique<store::VersionedGraphStore>(
        graph::CSRGraph(*mirror_base));
  }
  dist::Coordinator& c = *rig.coord;
  for (const Op& op : ops) {
    if (Clock::now() >= win.end) break;
    const Clock::time_point t0 = Clock::now();
    if (op.kind == OpKind::kApply) {
      EpochRecord e;
      e.ops = batches[op.arg].num_ops();
      {
        Tracer::Scope sp(tracer, "dist.apply");
        e.traced = sp.traced();
        const auto r = c.apply(batches[op.arg]);
        if (!r.ok()) {
          e.failed = true;
          e.error = r.status().message();
        }
      }
      e.ack_ms = ms_between(t0, Clock::now());
      if (mirror) mirror->apply(batches[op.arg]);
      const bool stop = e.failed;
      erecs.push_back(std::move(e));
      if (stop) break;
      continue;
    }
    QueryRecord rec;
    rec.op = op;
    core::Status st;
    {
      Tracer::Scope sp(tracer, op.kind == OpKind::kBfs   ? "dist.bfs"
                               : op.kind == OpKind::kWcc ? "dist.wcc"
                                                         : "dist.pagerank");
      rec.traced = sp.traced();
      if (op.kind == OpKind::kBfs) {
        auto r = c.bfs(op.arg);
        st = r.status();
        if (r.ok()) {
          rec.digest = bfs_digest(r->dist);
          rec.work = r->rounds;
          rec.epoch = r->epoch;
        }
      } else if (op.kind == OpKind::kWcc) {
        auto r = c.wcc();
        st = r.status();
        if (r.ok()) {
          Digest d;
          d.add_all(r->label);
          d.add(wcc_digest(r->num_components, r->largest_size));
          rec.digest = d.h;
          rec.work = r->rounds;
          rec.epoch = r->epoch;
        }
      } else {
        auto r = c.pagerank();
        st = r.status();
        if (r.ok()) {
          Digest d;
          for (const double x : r->rank) d.add_double(x);
          rec.digest = d.h;
          rec.epoch = r->epoch;
        }
      }
    }
    rec.latency_ms = ms_between(t0, Clock::now());
    if (!st.ok()) {
      rec.failed = true;
      rec.error = st.message();
    }
    if (mirror) {
      const store::GraphView v = mirror->view();
      const Clock::time_point l0 = Clock::now();
      if (op.kind == OpKind::kBfs) {
        (void)kernels::bfs(v, op.arg);
      } else if (op.kind == OpKind::kWcc) {
        (void)kernels::wcc_label_propagation(v);
      } else {
        (void)kernels::pagerank(v.csr(), dist_pagerank_opts());
      }
      rec.local_ms = ms_between(l0, Clock::now());
    }
    qrecs.push_back(std::move(rec));
  }
}


// ---------------------------------------------------------------------------
// Verification of the versioned workloads

/// Groups records by graph version and checks each group on `check`,
/// one version per task, dropping each version's view once it is done so
/// at most kOracleThreads flat folds are alive at a time.
std::size_t verify_by_version(
    const graph::CSRGraph& base, const std::vector<store::DeltaBatch>& batches,
    std::map<std::uint64_t, std::vector<QueryRecord*>>& by_epoch,
    const std::function<std::size_t(const store::GraphView&,
                                    std::vector<QueryRecord*>&)>& check) {
  std::vector<std::uint64_t> wanted;
  for (const auto& [e, recs] : by_epoch) wanted.push_back(e);
  auto views = replay_views(base, batches, wanted);
  std::vector<std::optional<store::GraphView>> slots;
  std::vector<std::vector<QueryRecord*>*> groups;
  for (auto& [e, recs] : by_epoch) {
    slots.emplace_back(views.at(e));
    groups.push_back(&recs);
  }
  views.clear();
  std::atomic<std::size_t> wrong{0};
  parallel_for(slots.size(), [&](std::size_t i) {
    wrong += check(*slots[i], *groups[i]);
    slots[i].reset();
  });
  return wrong;
}

/// ingest-live: each answer against a flat fold of the store epoch it
/// was served from, the fold taken from a sequential replay of the
/// writer's batches.
std::size_t verify_live(const graph::CSRGraph& base,
                        const std::vector<store::DeltaBatch>& batches,
                        const EpochMap& epochs,
                        std::vector<QueryRecord>& recs) {
  std::map<std::uint64_t, std::vector<QueryRecord*>> by_epoch;
  std::size_t wrong = 0;
  for (QueryRecord& r : recs) {
    if (r.failed) continue;
    const auto se = epochs.store_epoch(r.epoch);
    if (!se) {
      r.failed = true;
      r.error = "served from an epoch no publish reported";
      ++wrong;
      continue;
    }
    by_epoch[*se].push_back(&r);
  }
  return wrong + verify_by_version(
                     base, batches, by_epoch,
                     [](const store::GraphView& v, std::vector<QueryRecord*>& rs) {
                       const auto flat = v.flatten();
                       const std::string where =
                           "store epoch " + std::to_string(v.epoch());
                       return check_records(CsrAdj{*flat}, rs, where.c_str());
                     });
}

/// dist-3shard: each answer digest-identical to the single-process kernel
/// on a local mirror store fed the same batches.
std::size_t verify_dist(const graph::CSRGraph& base,
                        const std::vector<store::DeltaBatch>& batches,
                        std::vector<QueryRecord>& recs) {
  std::map<std::uint64_t, std::vector<QueryRecord*>> by_epoch;
  for (QueryRecord& r : recs) {
    if (!r.failed) by_epoch[r.epoch].push_back(&r);
  }
  return verify_by_version(
      base, batches, by_epoch,
      [](const store::GraphView& v, std::vector<QueryRecord*>& rs) {
        std::map<std::pair<int, vid_t>, std::uint64_t> memo;
        std::size_t wrong = 0;
        for (QueryRecord* r : rs) {
          const auto key = std::make_pair(static_cast<int>(r->op.kind),
                                          seeded(r->op.kind) ? r->op.arg : 0);
          auto it = memo.find(key);
          if (it == memo.end()) {
            std::uint64_t h = 0;
            if (r->op.kind == OpKind::kBfs) {
              h = bfs_digest(kernels::bfs(v, r->op.arg).dist);
            } else if (r->op.kind == OpKind::kWcc) {
              auto cc = kernels::wcc_label_propagation(v);
              kernels::canonicalize_labels(cc.label);
              Digest d;
              d.add_all(cc.label);
              d.add(wcc_digest(cc.num_components, cc.largest_size));
              h = d.h;
            } else {
              Digest d;
              for (const double x :
                   kernels::pagerank(v.csr(), dist_pagerank_opts()).rank) {
                d.add_double(x);
              }
              h = d.h;
            }
            it = memo.emplace(key, h).first;
          }
          if (it->second != r->digest) {
            if (++wrong <= 3) {
              std::fprintf(stderr, "wrong answer: dist %s seed %u at epoch %llu\n",
                           op_name(r->op.kind), r->op.arg,
                           static_cast<unsigned long long>(v.epoch()));
            }
            r->failed = true;
            r->error = "wrong answer";
          }
        }
        return wrong;
      });
}

/// Adjacency digest over merged iteration, comparable between a store view
/// and the benchmark's own edge model.
template <typename ForEach>
std::uint64_t adjacency_digest(vid_t n, ForEach&& for_each_out) {
  Digest d;
  d.add(n);
  for (vid_t u = 0; u < n; ++u) {
    d.add(u);
    for_each_out(u, [&](vid_t v) { d.add(v); });
  }
  return d.h;
}

// ---------------------------------------------------------------------------
// Metrics

std::vector<double> pick(const std::vector<QueryRecord>& recs,
                         const std::function<bool(const QueryRecord&)>& keep,
                         const std::function<double(const QueryRecord&)>& val) {
  std::vector<double> out;
  for (const QueryRecord& r : recs) {
    if (!r.failed && keep(r)) out.push_back(val(r));
  }
  return out;
}

bool is(const QueryRecord& r, OpKind k) { return r.op.kind == k; }

/// Latencies of the successful queries, of one kind or of all.
std::vector<double> latencies(const std::vector<QueryRecord>& q,
                              std::optional<OpKind> kind = std::nullopt) {
  return pick(
      q, [kind](const QueryRecord& r) { return !kind || is(r, *kind); },
      [](const QueryRecord& r) { return r.latency_ms; });
}

struct Stats {  // program counters read at the end of the window
  server::CacheStats cache;
  server::SchedulerStats sched;
  server::SnapshotManagerStats snaps;
  store::TierStats tier;
  store::StoreStats store;
  store::EpochLogStats log;
  dist::CoordinatorStats coord;
  double cut_share = 0.0;
  double tier_fold_mb = 0.0;  // flat fold resident beside the tiers
};

/// Program counters at the end of the window.
Stats read_stats(Rig& rig) {
  Stats s;
  if (rig.server) {
    s.cache = rig.server->scheduler().cache().stats();
    s.sched = rig.server->scheduler().stats();
    s.snaps = rig.server->snapshots().stats();
  }
  if (rig.tiers) {
    s.tier = rig.tiers->stats();
    // Does the served tiered epoch hold a cached flat fold (GraphView::
    // flatten(), paid by PageRank and fused BFS)? Building one takes tens
    // of ms on kron16; handing back the cached one takes microseconds.
    const server::SnapshotRef snap = rig.server->snapshots().acquire();
    const Clock::time_point f0 = Clock::now();
    const auto fold = snap.view().flatten();
    if (ms_between(f0, Clock::now()) < 1.0) {
      s.tier_fold_mb = (static_cast<double>(fold->num_vertices() + 1) *
                            sizeof(eid_t) +
                        static_cast<double>(fold->num_arcs()) * sizeof(vid_t)) /
                       1048576.0;
    }
  }
  if (rig.store) s.store = rig.store->stats();
  if (rig.log) s.log = rig.log->stats();
  if (rig.coord) {
    s.coord = rig.coord->stats();
    s.cut_share = rig.coord->partitioner().plan().cut_fraction();
  }
  return s;
}

struct RunData {
  const Workload* w = nullptr;
  std::vector<double> setup_s;
  double window_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<QueryRecord> queries;
  std::vector<EpochRecord> epochs;
  Stats stats;
  std::size_t batch_ops_applied = 0;
};

void add_end_to_end(Report& rep, const RunData& d) {
  const std::vector<double> all = latencies(d.queries);
  rep.add("setup_s", median(d.setup_s), "s", d.setup_s.size());
  rep.add("qps", static_cast<double>(all.size()) / d.window_s, "1/s",
          all.size());
  rep.add_pct("query_p50_ms", percentile(all, 0.50));
  rep.add_pct("bfs_p50_ms", percentile(latencies(d.queries, OpKind::kBfs), 0.50));
  rep.add("peak_rss_mb", d.peak_rss_mb, "MB");
}

/// End-to-end metrics that cannot carry a bound: extract and Jaccard do
/// not run on dist-3shard and epochs exist only where something writes;
/// WCC and PageRank are 3-5% of the mix, too few samples a run (and
/// bimodal on ingest-live, where cached, incremental and batch answers
/// mix) for a steady median; the query p99 falls inside the PageRank
/// share of dist-3shard and moves with it. Reported with the per-layer
/// ledger.
void add_partial_end_to_end(Report& rep, const RunData& d) {
  const auto& q = d.queries;
  rep.add_pct("query_p99_ms", percentile(latencies(q), 0.99, 10));
  for (const OpKind k : {OpKind::kExtract, OpKind::kJaccard, OpKind::kWcc,
                         OpKind::kPageRank}) {
    rep.add_pct(std::string(op_name(k)) + "_p50_ms",
                percentile(latencies(q, k), 0.50));
  }
  std::vector<double> ack;
  std::size_t attempted = q.size() + d.epochs.size(), failed = 0;
  for (const EpochRecord& e : d.epochs) {
    if (!e.failed) ack.push_back(e.ack_ms);
    failed += e.failed;
  }
  for (const QueryRecord& r : q) failed += r.failed;
  rep.add_pct("epoch_ack_p50_ms", percentile(ack, 0.50));
  rep.add_pct("epoch_ack_p99_ms", percentile(ack, 0.99, 10));
  rep.add("failed_frac",
          attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
          "ratio", attempted);
}

void add_layers(Report& rep, const RunData& d, const Tracer& tracer) {
  const auto& q = d.queries;
  const Stats& s = d.stats;
  const bool served = !d.w->dist;
  const auto executed = [](const QueryRecord& r) { return !r.cache_hit; };

  // server
  const auto waits = served ? pick(q, executed, [](const QueryRecord& r) {
    return r.wait_ms;
  }) : std::vector<double>{};
  rep.add_pct("server.wait_ms_p50", percentile(waits, 0.50));
  rep.add_pct("server.wait_ms_p99", percentile(waits, 0.99, 10));
  rep.add_pct("server.overhead_ms_p50",
              percentile(served ? pick(q, [](const QueryRecord&) { return true; },
                                       [](const QueryRecord& r) {
                                         return r.latency_ms - r.wait_ms -
                                                r.exec_ms;
                                       })
                                : std::vector<double>{},
                         0.50));
  rep.add("server.cache_hit_ratio", s.cache.hit_rate(), "ratio",
          s.cache.hits + s.cache.misses);
  rep.add("server.cache_invalidations", s.cache.invalidations, "count");
  rep.add("server.cache_carried", s.cache.carried, "count");
  rep.add("server.fused_share",
          s.sched.admitted == 0 ? 0.0
                                : static_cast<double>(s.sched.batched_queries) /
                                      s.sched.admitted,
          "ratio", s.sched.admitted);
  std::size_t heavy = 0, inc = 0;
  for (const QueryRecord& r : q) {
    if (served && !r.failed && !r.cache_hit &&
        (is(r, OpKind::kWcc) || is(r, OpKind::kPageRank))) {
      ++heavy;
      inc += r.incremental;
    }
  }
  rep.add("server.incremental_ratio",
          heavy == 0 ? 0.0 : static_cast<double>(inc) / heavy, "ratio", heavy);
  rep.add("server.incremental_fallbacks", s.sched.incremental_fallbacks,
          "count");
  rep.add("server.memory_amplification", s.snaps.memory_amplification,
          "ratio");

  // kernels
  for (const OpKind k : {OpKind::kBfs, OpKind::kExtract, OpKind::kJaccard,
                         OpKind::kWcc, OpKind::kPageRank}) {
    rep.add_pct(std::string("kernels.") + op_name(k) + "_exec_ms_p50",
                percentile(served ? pick(q,
                                         [k](const QueryRecord& r) {
                                           return is(r, k) && !r.cache_hit;
                                         },
                                         [](const QueryRecord& r) {
                                           return r.exec_ms;
                                         })
                                  : std::vector<double>{},
                           0.50));
  }
  // QueryRecord::work is reached vertices / arcs on served workloads and
  // boundary rounds on dist-3shard.
  const auto work_mean = [&](OpKind k, bool on) {
    return on ? mean(pick(q, [k](const QueryRecord& r) { return is(r, k); },
                          [](const QueryRecord& r) {
                            return static_cast<double>(r.work);
                          }))
              : 0.0;
  };
  rep.add("kernels.bfs_reached_mean", work_mean(OpKind::kBfs, served),
          "vertices");
  rep.add("kernels.extract_arcs_mean", work_mean(OpKind::kExtract, served),
          "arcs");

  // store: spans around the writer path
  std::map<std::string, Tracer::NameStats> spans;
  for (auto& [name, ns] : tracer.aggregate()) spans[name] = std::move(ns);
  const auto span_pct = [&](const char* metric, const char* span, double q_,
                            bool self) {
    const auto it = spans.find(span);
    std::vector<double> v;
    if (it != spans.end()) v = self ? it->second.self_ms : it->second.ms;
    rep.add_pct(metric, percentile(std::move(v), q_, q_ > 0.5 ? 10 : 0));
  };
  span_pct("store.apply_ms_p50", "store.apply", 0.50, true);
  span_pct("store.apply_ms_p99", "store.apply", 0.99, true);
  span_pct("store.log_append_ms_p50", "store.log_append", 0.50, false);
  span_pct("store.log_append_ms_p99", "store.log_append", 0.99, false);
  rep.add("store.log_bytes_per_op",
          d.batch_ops_applied == 0
              ? 0.0
              : static_cast<double>(s.log.bytes_appended) / d.batch_ops_applied,
          "bytes/op");
  rep.add("store.log_syncs", s.log.syncs, "count");
  {
    const auto it = spans.find("store.checkpoint");
    double mx = 0.0;
    if (it != spans.end()) {
      for (const double x : it->second.ms) mx = std::max(mx, x);
    }
    rep.add("store.checkpoint_ms_max", mx, "ms");
  }
  // The set-up checkpoint is part of setup_s, not of the window.
  rep.add("store.checkpoints", s.log.checkpoints > 0 ? s.log.checkpoints - 1 : 0,
          "count");
  span_pct("store.publish_ms_p50", "store.publish", 0.50, false);
  rep.add("store.compactions", s.store.compactions, "count");
  {
    // StoreStats keeps only the last fold time; the traced clients sample
    // it at each submit, one value per compaction count seen.
    std::map<std::uint64_t, double> fold_ms;
    std::vector<double> depth, amp;
    for (const QueryRecord& r : q) {
      if (r.chain_depth < 0) continue;
      depth.push_back(r.chain_depth);
      amp.push_back(r.read_amp);
      if (r.compactions > 0) fold_ms[r.compactions] = r.last_compact_ms;
    }
    std::vector<double> folds;
    for (const auto& [c, ms] : fold_ms) folds.push_back(ms);
    rep.add("store.compact_ms_mean", mean(folds), "ms", folds.size());
    rep.add("store.chain_depth_mean", mean(depth), "layers", depth.size());
    rep.add("store.read_amplification_mean", mean(amp), "ratio", amp.size());
  }
  const double nq = static_cast<double>(std::max<std::size_t>(q.size(), 1));
  rep.add("store.tier_faults_per_query", s.tier.faults / nq, "faults");
  rep.add("store.tier_evictions", s.tier.evictions, "count");
  rep.add("store.tier_hit_ratio",
          s.tier.accesses == 0
              ? 0.0
              : 1.0 - static_cast<double>(s.tier.faults) / s.tier.accesses,
          "ratio", s.tier.accesses);
  rep.add("store.tier_peak_resident_mb", s.tier.peak_resident_bytes / 1048576.0,
          "MB");
  rep.add("store.tier_flat_fold_mb", s.tier_fold_mb, "MB");

  // dist
  rep.add("dist.bfs_rounds_mean", work_mean(OpKind::kBfs, !served), "rounds");
  rep.add("dist.wcc_rounds_mean", work_mean(OpKind::kWcc, !served), "rounds");
  for (const OpKind k : {OpKind::kBfs, OpKind::kWcc, OpKind::kPageRank}) {
    rep.add_pct(std::string("dist.local_") + op_name(k) + "_ms_p50",
                percentile(pick(q,
                                [k](const QueryRecord& r) {
                                  return is(r, k) && r.local_ms >= 0;
                                },
                                [](const QueryRecord& r) { return r.local_ms; }),
                           0.50));
  }
  rep.add("dist.op_retries", s.coord.op_retries, "count");
  rep.add("dist.unavailable", s.coord.unavailable, "count");
  rep.add("dist.cut_share", s.cut_share, "ratio");

  // generator
  double late = 0.0;
  for (const EpochRecord& e : d.epochs) late = std::max(late, e.late_ms);
  rep.add("gen.writer_late_ms_max", d.w->live ? late : 0.0, "ms",
          d.w->live ? d.epochs.size() : 0);

  // Ledger over traced requests: each layer's self time per request and
  // the remainder no span or program-reported component covers.
  double total = 0.0, srv = 0.0, ker = 0.0, sto = 0.0, dis = 0.0, gen = 0.0;
  std::size_t reqs = 0;
  for (const QueryRecord& r : q) {
    if (r.failed) continue;
    if (!r.traced) continue;
    ++reqs;
    total += r.latency_ms;
    if (d.w->dist) {
      dis += r.latency_ms;  // replaced by span sums below
    } else {
      srv += r.wait_ms;
      ker += r.exec_ms;
    }
  }
  for (const EpochRecord& e : d.epochs) {
    if (e.failed) continue;
    if (!e.traced) continue;
    ++reqs;
    total += e.ack_ms;
    gen += e.late_ms;
  }
  const auto sum_of = [&](const char* span, bool self, bool children_only) {
    const auto it = spans.find(span);
    if (it == spans.end()) return 0.0;
    double acc = 0.0;
    const auto& v = self ? it->second.self_ms : it->second.ms;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!children_only || it->second.is_child[i]) acc += v[i];
    }
    return acc;
  };
  if (d.w->dist) {
    dis = sum_of("dist.bfs", false, false) + sum_of("dist.wcc", false, false) +
          sum_of("dist.pagerank", false, false) +
          sum_of("dist.apply", false, false);
  }
  sto = sum_of("store.apply", true, false) +
        sum_of("store.log_append", false, true) +
        sum_of("store.checkpoint", false, true);
  srv += sum_of("store.publish", false, true);
  const double attributed = srv + ker + sto + dis + gen;
  // Signed: a negative remainder means components overlap (clock skew
  // between the program's timers and the benchmark's).
  const double unattributed = total - attributed;
  const double per = reqs == 0 ? 0.0 : 1.0 / static_cast<double>(reqs);
  rep.add("ledger.request_ms", total * per, "ms", reqs);
  rep.add("ledger.server_self_ms", srv * per, "ms", reqs);
  rep.add("ledger.kernels_self_ms", ker * per, "ms", reqs);
  rep.add("ledger.store_self_ms", sto * per, "ms", reqs);
  rep.add("ledger.dist_self_ms", dis * per, "ms", reqs);
  rep.add("ledger.gen_self_ms", gen * per, "ms", reqs);
  rep.add("ledger.unattributed_ms", unattributed * per, "ms", reqs);
  rep.add("trace.unattributed_share", total > 0 ? unattributed / total : 0.0,
          "ratio", reqs);
  // Tracing overhead: per operation kind, the median latency of requests
  // in traced slices over that of untraced slices, averaged in log space
  // weighted by sample count (kinds with fewer than 5 samples a side
  // are skipped).
  double log_sum = 0.0;
  std::size_t weight = 0;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    std::vector<double> on, off;
    for (const QueryRecord& r : q) {
      if (!r.failed && static_cast<std::size_t>(r.op.kind) == k) {
        (r.traced ? on : off).push_back(r.latency_ms);
      }
    }
    if (k == static_cast<std::size_t>(OpKind::kApply)) {
      for (const EpochRecord& e : d.epochs) {
        if (!e.failed) (e.traced ? on : off).push_back(e.ack_ms);
      }
    }
    if (on.size() < 5 || off.size() < 5) continue;
    const double m_on = median(on), m_off = median(off);
    if (m_on <= 0 || m_off <= 0) continue;
    log_sum += std::log(m_on / m_off) * static_cast<double>(on.size());
    weight += on.size();
  }
  rep.add("trace.overhead_pct",
          weight == 0 ? 0.0 : 100.0 * (std::exp(log_sum / weight) - 1.0), "%",
          weight);
}

/// ingest-live after the window: the last acked view must equal the
/// benchmark's own replay of the batches (`replay_ok`) and what
/// store::recover rebuilds from the log directory (`durable`). Unhooks and
/// closes the log.
void check_live_store(Rig& rig, const graph::CSRGraph& base,
                      const std::vector<store::DeltaBatch>& batches,
                      std::size_t applied, bool& durable, bool& replay_ok) {
  rig.store->stop_compactor();
  const store::GraphView last = rig.store->view();
  const std::uint64_t acked = last.epoch();
  const std::uint64_t digest = store::view_digest(last);
  // The benchmark's own edge model, replayed to the last acked epoch,
  // must agree with what the store serves.
  EdgeModel model(base);
  for (std::size_t k = 0; k < applied; ++k) {
    batches[k].for_each_edge_op([&](vid_t u, vid_t v, float, bool del) {
      if (del) {
        model.delete_arc(u, v);
      } else {
        model.insert_arc(u, v);
      }
    });
  }
  const std::uint64_t model_h = adjacency_digest(
      model.n(), [&](vid_t u, auto&& f) {
        for (const vid_t v : model.nbrs(u)) f(v);
      });
  const std::uint64_t store_h = adjacency_digest(
      last.num_vertices(), [&](vid_t u, auto&& f) {
        last.for_each_out(u, [&](vid_t v, float) { f(v); });
      });
  replay_ok = acked == applied && model_h == store_h;
  std::printf("edge model: %zu batches replayed: %s\n", applied,
              replay_ok ? "ok" : "differs from the last acked view");
  // Durability: recover the log directory into a fresh store.
  rig.store->set_durability_hook({});
  rig.store->set_post_publish_hook({});
  rig.store->set_view_listener({});
  rig.log.reset();
  store::RecoveryOptions ro;
  ro.dir = rig.dir;
  std::string note = "ok";
  try {
    const store::RecoveredStore rec = store::recover(ro);
    const store::GraphView rv = rec.store->view();
    durable = rec.report.status().ok() && rv.epoch() == acked &&
              store::view_digest(rv) == digest;
    if (!durable) {
      note = "recovered epoch " + std::to_string(rv.epoch()) +
             " differs from the last acked view";
    }
  } catch (const std::exception& e) {
    durable = false;
    note = std::string("recovery failed: ") + e.what();
  }
  std::printf("durability: acked epoch %llu: %s\n",
              static_cast<unsigned long long>(acked), note.c_str());
}

// ---------------------------------------------------------------------------
// One run

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return core::hash_combine(core::mix64(seed), stream);
}

int run(const Options& o) {
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads) {
    if (o.workload == x.name) w = &x;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const unsigned scale = w->scale;
  const vid_t n = vid_t{1} << scale;
  std::printf("host: nproc=%u l3_bytes=%ld fsync=every-append seed=%llu "
              "graph=kron%u(edge_factor=16,graph_seed=%llu) commit=%s "
              "workload=%s seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(),
              ::sysconf(_SC_LEVEL3_CACHE_SIZE),
              static_cast<unsigned long long>(o.seed), scale,
              static_cast<unsigned long long>(kGraphSeed), o.commit.c_str(),
              w->name, o.seconds, o.trace ? 1 : 0);

  const Clock::time_point t_begin = Clock::now();
  // Inputs, all generated before the clock starts.
  graph::RmatParams rp;
  rp.scale = scale;
  rp.edge_factor = 16;
  rp.seed = kGraphSeed;
  const std::vector<graph::Edge> edges = graph::rmat_edges(rp);
  const graph::CSRGraph base = graph::build_csr(edges, n);
  // The hot set is part of the workload, not of the seed: the same 64
  // vertices in every run, drawn with the graph's own seed.
  const SeedPool pool = make_seed_pool(base, kGraphSeed);
  const unsigned clients = w->dist ? 1 : kQueryClients;
  // Generous caps: a client that runs out ends the run as a failure.
  const std::size_t cap =
      static_cast<std::size_t>(o.seconds * (w->dist ? 2000 : 4000)) + 1000;
  std::vector<std::vector<Op>> ops;
  for (unsigned c = 0; c < clients; ++c) {
    ops.push_back(make_ops(w->dist ? kDistMix : kServedMix, pool,
                           mix_seed(o.seed, 1 + c), cap));
  }
  std::size_t nbatches = 0;
  if (w->live) {
    nbatches = static_cast<std::size_t>(o.seconds * 1000.0 / kWriterPeriodMs) + 2;
  } else if (w->dist) {
    for (const Op& op : ops[0]) nbatches += op.kind == OpKind::kApply;
  }
  const std::vector<store::DeltaBatch> batches =
      make_batches(base, scale, mix_seed(o.seed, 99), nbatches);

  const Clock::time_point t_inputs = Clock::now();
  // Set-up, several times; the last rig serves the run.
  Tracer tracer(false);
  RunData d;
  d.w = w;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    std::vector<graph::Edge> copy = edges;
    const Clock::time_point t0 = Clock::now();
    rig = set_up(*w, o, std::move(copy), n, tracer);
    d.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // The measured window.
  Window win;
  win.start = Clock::now() + std::chrono::milliseconds(20);
  win.end = win.start + std::chrono::microseconds(
                            static_cast<long>(o.seconds * 1e6));
  std::pair<double, double> cpu_ticks;
  steal_share(cpu_ticks);
  std::vector<std::vector<QueryRecord>> qrecs(clients);
  std::vector<EpochRecord> erecs;
  std::vector<std::thread> threads;
  const bool force_batch = !w->live && !w->dist;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::this_thread::sleep_until(win.start);
      if (w->dist) {
        dist_client(ops[c], batches, o.trace ? &base : nullptr, win, *rig,
                    tracer, qrecs[c], erecs);
      } else {
        query_client(ops[c], win, *rig, force_batch, w->live && o.trace,
                     tracer, qrecs[c]);
      }
    });
  }
  if (w->live) {
    threads.emplace_back([&] { writer(batches, win, *rig, tracer, erecs); });
  }
  if (o.trace) {
    // Alternate untraced and traced slices so the overhead comparison sees
    // the same phases of the run on both sides.
    const auto slice = std::chrono::milliseconds(500);
    bool on = false;
    for (auto t = win.start; t < win.end; t += slice) {
      std::this_thread::sleep_until(t);
      tracer.set_enabled(on);
      on = !on;
    }
  }
  for (auto& t : threads) t.join();
  d.window_s = ms_between(win.start, Clock::now()) / 1000.0;
  const double steal = steal_share(cpu_ticks);
  tracer.set_enabled(false);
  d.peak_rss_mb = rss_mb("VmHWM:");
  d.epochs = std::move(erecs);
  bool exhausted = false;
  for (unsigned c = 0; c < clients; ++c) {
    exhausted |= qrecs[c].size() + (w->dist ? d.epochs.size() : 0) ==
                 ops[c].size();
  }

  for (auto& v : qrecs) {
    for (auto& r : v) d.queries.push_back(std::move(r));
  }

  d.stats = read_stats(*rig);
  std::size_t applied = 0;
  for (const EpochRecord& e : d.epochs) {
    if (!e.failed) {
      ++applied;
      d.batch_ops_applied += e.ops;
    }
  }

  // Correctness, outside the clock.
  const Clock::time_point t_verify = Clock::now();
  std::size_t wrong = 0;
  bool durable = true;    // ingest-live: recovered log == last acked view
  bool replay_ok = true;  // ingest-live: edge model == last acked view
  if (w->dist) {
    rig->teardown();
    wrong = verify_dist(base, batches, d.queries);
  } else if (w->live) {
    check_live_store(*rig, base, batches, applied, durable, replay_ok);
    wrong = verify_live(base, batches, rig->epochs, d.queries);
    rig->teardown();
  } else {
    rig->teardown();
    wrong = verify_static(base, d.queries);
  }
  rig.reset();

  std::size_t failed = 0;
  for (const QueryRecord& r : d.queries) failed += r.failed;
  for (const EpochRecord& e : d.epochs) failed += e.failed;
  const std::size_t attempted = d.queries.size() + d.epochs.size();
  failed += !durable + !replay_ok;
  for (const QueryRecord& r : d.queries) {
    if (r.failed && r.error != "wrong answer") {
      std::fprintf(stderr, "failed %s: %s\n", op_name(r.op.kind),
                   r.error.c_str());
      break;
    }
  }
  for (const EpochRecord& e : d.epochs) {
    if (e.failed) {
      std::fprintf(stderr, "failed apply: %s\n", e.error.c_str());
      break;
    }
  }
  if (exhausted) {
    std::fprintf(stderr, "a client ran out of generated operations\n");
    ++failed;
  }
  const bool correct = failed == 0;
  std::printf("verified: %zu operations, %zu wrong answers, %zu failed\n",
              attempted, wrong, failed);
  std::printf("phases: inputs %.2f s, set-up x%d %.2f s, window %.2f s "
              "(cpu steal %.1f%%), verify %.2f s\n",
              ms_between(t_begin, t_inputs) / 1000.0, kSetupReps,
              ms_between(t_inputs, win.start) / 1000.0, d.window_s,
              100.0 * steal, ms_between(t_verify, Clock::now()) / 1000.0);

  Report e2e, layers;
  add_end_to_end(e2e, d);
  add_partial_end_to_end(layers, d);
  e2e.print_table("end-to-end");
  if (o.trace) {
    add_layers(layers, d, tracer);
    const std::string path = (fs::path(o.tmp_root) /
                              (o.workload + "-seed" + std::to_string(o.seed) +
                               ".spans.jsonl"))
                                 .string();
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::size_t n = tracer.write_jsonl(f, win.start);
      std::fclose(f);
      std::printf("  traced spans: %zu, written to %s\n", n, path.c_str());
    } else {
      std::printf("  traced spans: %zu (could not write %s)\n",
                  tracer.span_count(), path.c_str());
    }
  }
  layers.print_table(o.trace ? "per-layer ledger" : "partial end-to-end");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              (o.trace ? layers : e2e).json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ga::e2e

int main(int argc, char** argv) {
  ga::e2e::Options o;
  bool have_seconds = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(val().c_str());
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = val() == "1";
    } else if (a == "--shard-bin") {
      o.shard_bin = val();
    } else if (a == "--tmp-root") {
      o.tmp_root = val();
    } else if (a == "--commit") {
      o.commit = val();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (!have_workload || !have_seconds || o.seconds <= 0 || o.tmp_root.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --tmp-root DIR [--shard-bin PATH] "
                 "[--commit SHA]\n");
    return 2;
  }
  try {
    return ga::e2e::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
