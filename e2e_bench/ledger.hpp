// Building blocks of the served-query benchmark that carry no workload
// logic: the operation generator (query mix, seed pool with a hot set),
// the percentile helper with the ten-samples-beyond rule, answer digests,
// the in-memory span tracer the traced run uses to split a request's time
// by layer, and the timed query a closed-loop client makes. Header-only so
// the benchmark and its tests share it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/hash.hpp"
#include "core/prng.hpp"
#include "graph/csr_graph.hpp"
#include "server/server.hpp"

namespace ga::e2e {

// ---------------------------------------------------------------------------
// Operation sequences

enum class OpKind : std::uint8_t {
  kBfs = 0,
  kExtract = 1,   // subgraph extraction, depth 2
  kJaccard = 2,   // Jaccard neighbours, threshold 0.1, k 10
  kWcc = 3,
  kPageRank = 4,  // PageRank top-10
  kApply = 5,     // one DeltaBatch through the writer path
};
inline constexpr std::size_t kNumOpKinds = 6;

inline const char* op_name(OpKind k) {
  static constexpr const char* kNames[kNumOpKinds] = {
      "bfs", "extract", "jaccard", "wcc", "pagerank", "apply"};
  return kNames[static_cast<std::size_t>(k)];
}

/// Seeded kinds draw a root vertex; the others ignore Op::arg or, for
/// kApply, use it as the batch index.
inline bool seeded(OpKind k) {
  return k == OpKind::kBfs || k == OpKind::kExtract || k == OpKind::kJaccard;
}

/// Share of each kind in a sequence, indexed by OpKind; sums to 1.
using Mix = std::array<double, kNumOpKinds>;
/// Query clients of read-flat, read-tiered and ingest-live.
inline constexpr Mix kServedMix = {0.70, 0.12, 0.12, 0.03, 0.03, 0.0};
/// The single dist-3shard client: queries plus writes through apply().
inline constexpr Mix kDistMix = {0.80, 0.0, 0.0, 0.10, 0.05, 0.05};

struct Op {
  OpKind kind = OpKind::kBfs;
  vid_t arg = 0;  // root vertex (seeded kinds) or batch index (kApply)
};

/// Query roots: every vertex with out-degree > 0, ordered by degree, plus
/// a hot set that one in four seeded queries repeats. The hot set takes one
/// vertex from each of `hot_size` equal degree strata, so its 64 members
/// weigh a run the same way whatever the seed.
struct SeedPool {
  std::vector<vid_t> all;  // ascending (degree, id)
  std::vector<vid_t> hot;
};

inline SeedPool make_seed_pool(const graph::CSRGraph& g, std::uint64_t seed,
                               std::size_t hot_size = 64) {
  SeedPool p;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > 0) p.all.push_back(v);
  }
  GA_CHECK(!p.all.empty(), "seed pool: graph has no edges");
  std::stable_sort(p.all.begin(), p.all.end(), [&](vid_t a, vid_t b) {
    return g.out_degree(a) < g.out_degree(b);
  });
  core::Xoshiro256 rng(core::mix64(seed ^ 0x686f74736574ULL));
  const std::size_t m = p.all.size();
  for (std::size_t i = 0; i < hot_size; ++i) {
    const std::size_t lo = m * i / hot_size, hi = m * (i + 1) / hot_size;
    p.hot.push_back(p.all[hi > lo ? lo + rng.next_below(hi - lo)
                                  : rng.next_below(m)]);
  }
  return p;
}

/// Operations per block; every block holds each kind exactly
/// round(share * kBlock) times.
inline constexpr std::size_t kBlock = 100;
/// Degree strata the non-hot roots of each seeded kind cycle through.
inline constexpr std::size_t kStrata = 64;

/// The kinds of one block, each spread evenly over it (smooth weighted
/// round robin), so a heavy kind never bunches up in one part of a run.
inline std::vector<OpKind> interleaved_block(const Mix& mix) {
  std::array<long, kNumOpKinds> want{}, acc{};
  long total = 0;
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    want[k] = std::lround(mix[k] * kBlock);
    total += want[k];
  }
  GA_CHECK(total == static_cast<long>(kBlock),
           "mix shares must sum to 1 in 1% steps");
  std::vector<OpKind> block;
  for (std::size_t i = 0; i < kBlock; ++i) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
      acc[k] += want[k];
      if (acc[k] > acc[best]) best = k;
    }
    acc[best] -= total;
    block.push_back(static_cast<OpKind>(best));
  }
  return block;
}

/// `count` operations drawn from `mix`. The kinds follow a fixed,
/// evenly interleaved block (exact shares, writes evenly spaced so delta
/// chains grow and fold on the same schedule in every run), entered at a
/// seeded offset so clients do not move in lockstep. The seed draws the
/// roots: each seeded kind takes its non-hot roots from the degree-ordered
/// pool one stratum at a time, in a shuffled order of strata per cycle,
/// uniformly within the stratum, so the work of a run does not swing with
/// the seed while the draws stay uniform. Every fourth seeded operation
/// takes its root from the hot set instead, so the share of repeats does
/// not depend on how far into the sequence a run gets. kApply ops number
/// their batches 0, 1, 2, ... in sequence order.
inline std::vector<Op> make_ops(const Mix& mix, const SeedPool& pool,
                                std::uint64_t seed, std::size_t count) {
  core::Xoshiro256 rng(core::mix64(seed));
  const std::vector<OpKind> block = interleaved_block(mix);
  const std::size_t offset = rng.next_below(kBlock);
  const std::size_t strata = std::min(kStrata, pool.all.size());
  struct Cycle {
    std::vector<std::size_t> order;
    std::size_t pos = 0;
  };
  std::array<Cycle, kNumOpKinds> cycles;
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_below(i)]);
    }
  };
  const auto stratified_root = [&](OpKind k) {
    Cycle& c = cycles[static_cast<std::size_t>(k)];
    if (c.pos == c.order.size()) {
      c.order.resize(strata);
      for (std::size_t i = 0; i < strata; ++i) c.order[i] = i;
      shuffle(c.order);
      c.pos = 0;
    }
    const std::size_t s = c.order[c.pos++];
    const std::size_t lo = pool.all.size() * s / strata;
    const std::size_t hi = pool.all.size() * (s + 1) / strata;
    return pool.all[lo + rng.next_below(hi - lo)];
  };

  std::vector<Op> ops;
  ops.reserve(count);
  std::size_t seeded_n = 0;
  vid_t batches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Op op{block[(offset + i) % kBlock], 0};
    if (seeded(op.kind)) {
      op.arg = (seeded_n++ % 4 == 3) ? pool.hot[rng.next_below(pool.hot.size())]
                                     : stratified_root(op.kind);
    } else if (op.kind == OpKind::kApply) {
      op.arg = batches++;
    }
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Percentiles

struct Percentile {
  double value = 0.0;
  double q = 0.0;      // quantile actually reported
  std::size_t n = 0;   // sample count
  bool exact = false;  // true when `q` is the quantile asked for
};

/// Nearest-rank quantile `q` of `samples`. A tail quantile is reported only
/// when at least `min_beyond` samples lie above it; otherwise the highest
/// rank that has that many above it is reported instead, with `q` and
/// `exact` saying so. With min_beyond or fewer samples no rank qualifies
/// and the median is reported, inexact. An empty input reports 0, n = 0.
inline Percentile percentile(std::vector<double> samples, double q,
                             std::size_t min_beyond = 0) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  idx = idx == 0 ? 0 : std::min(idx - 1, n - 1);
  p.exact = true;
  if (n - 1 - idx < min_beyond) {
    idx = n > min_beyond ? n - 1 - min_beyond : (n - 1) / 2;
    p.exact = false;
  }
  p.value = samples[idx];
  p.q = static_cast<double>(idx + 1) / static_cast<double>(n);
  return p;
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (const double x : samples) s += x;
  return s / static_cast<double>(samples.size());
}

// ---------------------------------------------------------------------------
// Answer digests: order-sensitive hash of the values an answer is made of,
// so a recorded answer costs 8 bytes however large it is.

struct Digest {
  std::uint64_t h = 0x6532656c65646765ULL;
  void add(std::uint64_t x) { h = core::hash_combine(h, x); }
  void add_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(d));
    add(bits);
  }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(static_cast<std::uint64_t>(x));
  }
};

// ---------------------------------------------------------------------------
// Span tracer

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory spans around the benchmark's calls into each layer. Each
/// thread appends to its own log; a span's parent is the span open on the
/// same thread when it began, and every span of one request shares the
/// request id of its root. Whether a request is traced is decided once,
/// at its root: children follow the root even if tracing is switched
/// off mid-request, so a request is either fully traced or not at all.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    const char* name = "";
    std::uint32_t parent = kNoParent;  // index in the same thread's log
    std::uint64_t request = 0;
    Clock::time_point start, end;
    double ms() const { return ms_between(start, end); }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      Local& l = t_.local();
      const bool root = l.stack.empty();
      traced_ = root ? t_.enabled() : l.stack.back().traced;
      if (traced_) {
        Span s;
        s.name = name;
        if (root) {
          s.request = t_.next_request_.fetch_add(1) + 1;
        } else {
          s.parent = l.stack.back().index;
          s.request = l.log->spans[s.parent].request;
        }
        index_ = static_cast<std::uint32_t>(l.log->spans.size());
        s.start = Clock::now();
        l.log->spans.push_back(s);
      }
      l.stack.push_back({index_, traced_});
    }
    ~Scope() {
      Local& l = t_.local();
      if (traced_) l.log->spans[index_].end = Clock::now();
      l.stack.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    bool traced() const { return traced_; }

   private:
    Tracer& t_;
    std::uint32_t index_ = kNoParent;
    bool traced_ = false;
  };

  /// Per-name aggregates over every finished span: durations and self
  /// times (duration minus the part covered by child spans).
  struct NameStats {
    std::vector<double> ms;
    std::vector<double> self_ms;
    std::vector<char> is_child;  // 1 where the span had a parent
  };

  /// Call once all traced threads have finished.
  std::vector<std::pair<std::string, NameStats>> aggregate() const {
    std::vector<std::pair<std::string, NameStats>> out;
    const auto slot = [&](const char* name) -> NameStats& {
      for (auto& [k, v] : out) {
        if (k == name) return v;
      }
      out.emplace_back(name, NameStats{});
      return out.back().second;
    };
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& log : logs_) {
      std::vector<double> child_ms(log->spans.size(), 0.0);
      for (const Span& s : log->spans) {
        if (s.parent != kNoParent) child_ms[s.parent] += s.ms();
      }
      for (std::size_t i = 0; i < log->spans.size(); ++i) {
        const Span& s = log->spans[i];
        NameStats& ns = slot(s.name);
        ns.ms.push_back(s.ms());
        ns.self_ms.push_back(s.ms() - child_ms[i]);
        ns.is_child.push_back(s.parent != kNoParent);
      }
    }
    return out;
  }

  /// One JSON object per span: name, request id, thread, index in the
  /// thread's log, parent index (-1 for a root), start (microseconds from
  /// `origin`) and duration. Call once all traced threads have finished.
  /// Returns the number of spans written.
  std::size_t write_jsonl(std::FILE* out, Clock::time_point origin) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (std::size_t t = 0; t < logs_.size(); ++t) {
      const auto& spans = logs_[t]->spans;
      for (std::size_t i = 0; i < spans.size(); ++i, ++n) {
        const Span& s = spans[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"request\": %llu, \"thread\": %zu, "
                     "\"index\": %zu, \"parent\": %lld, \"start_us\": %.3f, "
                     "\"dur_us\": %.3f}\n",
                     s.name, static_cast<unsigned long long>(s.request), t, i,
                     s.parent == kNoParent ? -1LL
                                           : static_cast<long long>(s.parent),
                     ms_between(origin, s.start) * 1000.0, s.ms() * 1000.0);
      }
    }
    return n;
  }

  std::size_t span_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto& log : logs_) n += log->spans.size();
    return n;
  }

 private:
  struct Log {
    std::vector<Span> spans;
  };
  struct Open {
    std::uint32_t index;
    bool traced;
  };
  struct Local {
    std::uint64_t owner = 0;  // id_ of the tracer `log` belongs to
    Log* log = nullptr;
    std::vector<Open> stack;
  };

  Local& local() {
    thread_local Local l;
    if (l.owner != id_) {
      auto log = std::make_unique<Log>();
      l.log = log.get();
      l.owner = id_;
      l.stack.clear();
      std::lock_guard<std::mutex> lk(mu_);
      logs_.push_back(std::move(log));
    }
    return l;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> ids{0};
    return ids.fetch_add(1) + 1;
  }

  const std::uint64_t id_ = next_id();
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Log>> logs_;
};

// ---------------------------------------------------------------------------
// One served query, as a closed-loop client sees it

struct TimedQuery {
  server::QueryResult result;
  double latency_ms = 0.0;  // just before submit() to the reply
  bool traced = false;
};

/// Submits `desc` and waits for the reply inside a "server.query" span.
/// A throw from the server becomes a kFailed result.
inline TimedQuery timed_query(server::AnalyticsServer& srv,
                              const server::QueryDesc& desc, Tracer& tracer) {
  TimedQuery t;
  const Clock::time_point t0 = Clock::now();
  try {
    Tracer::Scope sp(tracer, "server.query");
    t.traced = sp.traced();
    t.result = srv.submit(desc).get();
  } catch (const std::exception& e) {
    t.result.status = server::QueryStatus::kFailed;
    t.result.error = e.what();
  }
  t.latency_ms = ms_between(t0, Clock::now());
  return t;
}

}  // namespace ga::e2e
