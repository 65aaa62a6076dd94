// Tests of the benchmark's own code: the operation generator, the
// percentile rule, the span tracer and the query latency decomposition.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "graph/generators.hpp"
#include "ledger.hpp"
#include "oracle.hpp"

namespace ga::e2e {
namespace {

graph::CSRGraph small_kron() {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 7;
  return graph::make_rmat(p);
}

bool same_ops(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].arg != b[i].arg) return false;
  }
  return true;
}

TEST(E2eGenerator, SameSeedSameSequence) {
  const auto g = small_kron();
  const SeedPool p1 = make_seed_pool(g, 42);
  const SeedPool p2 = make_seed_pool(g, 42);
  EXPECT_EQ(p1.hot, p2.hot);
  EXPECT_TRUE(same_ops(make_ops(kServedMix, p1, 5, 5000),
                       make_ops(kServedMix, p2, 5, 5000)));
  EXPECT_TRUE(same_ops(make_ops(kDistMix, p1, 5, 5000),
                       make_ops(kDistMix, p2, 5, 5000)));
  EXPECT_FALSE(same_ops(make_ops(kServedMix, p1, 5, 5000),
                        make_ops(kServedMix, p1, 6, 5000)));
}

TEST(E2eGenerator, EveryQuerySeedHasOutDegree) {
  // Plenty of isolated vertices in a sparse RMAT graph.
  const auto g = small_kron();
  ASSERT_LT(make_seed_pool(g, 1).all.size(), g.num_vertices());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SeedPool pool = make_seed_pool(g, seed);
    ASSERT_EQ(pool.hot.size(), 64u);
    for (const vid_t v : pool.hot) EXPECT_GT(g.out_degree(v), 0u);
    for (const Op& op : make_ops(kServedMix, pool, seed, 10000)) {
      if (seeded(op.kind)) {
        EXPECT_GT(g.out_degree(op.arg), 0u) << op.arg;
      }
    }
  }
}

TEST(E2eGenerator, MixSharesWithinOnePointOver10kDraws) {
  const auto g = small_kron();
  const SeedPool pool = make_seed_pool(g, 3);
  for (const Mix& mix : {kServedMix, kDistMix}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::array<double, kNumOpKinds> count{};
      const auto ops = make_ops(mix, pool, seed, 10000);
      for (const Op& op : ops) count[static_cast<std::size_t>(op.kind)] += 1;
      for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        EXPECT_NEAR(count[k] / ops.size(), mix[k], 0.01)
            << op_name(static_cast<OpKind>(k));
      }
    }
  }
}

TEST(E2eGenerator, OneInFourSeededQueriesRepeatsAHotSeed) {
  const auto g = small_kron();
  const SeedPool pool = make_seed_pool(g, 9);
  std::size_t seeded_n = 0, hot = 0;
  for (const Op& op : make_ops(kServedMix, pool, 9, 10000)) {
    if (!seeded(op.kind)) continue;
    hot += seeded_n++ % 4 == 3 &&
           std::find(pool.hot.begin(), pool.hot.end(), op.arg) !=
               pool.hot.end();
  }
  EXPECT_EQ(hot, seeded_n / 4);
}

TEST(E2eGenerator, ApplyOpsNumberBatchesInOrder) {
  const auto g = small_kron();
  const SeedPool pool = make_seed_pool(g, 2);
  vid_t next = 0;
  for (const Op& op : make_ops(kDistMix, pool, 2, 4000)) {
    if (op.kind == OpKind::kApply) {
      EXPECT_EQ(op.arg, next++);
    }
  }
  EXPECT_EQ(next, 200u);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(E2ePercentile, TailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, with exactly 10 above it.
  Percentile p = percentile(one_to(1000), 0.99, 10);
  EXPECT_TRUE(p.exact);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.n, 1000u);
  // 999 samples: rank 990 would have only 9 above, so rank 989 is
  // reported instead and says so.
  p = percentile(one_to(999), 0.99, 10);
  EXPECT_FALSE(p.exact);
  EXPECT_EQ(p.value, 989.0);
  EXPECT_NEAR(p.q, 989.0 / 999.0, 1e-12);
  // 200 samples: the highest rank with 10 above it is 190.
  p = percentile(one_to(200), 0.99, 10);
  EXPECT_FALSE(p.exact);
  EXPECT_EQ(p.value, 190.0);
  // Too few for any qualifying rank: the median, flagged.
  p = percentile(one_to(7), 0.99, 10);
  EXPECT_FALSE(p.exact);
  EXPECT_EQ(p.value, 4.0);
  // Medians need no samples beyond; empty inputs report n = 0.
  EXPECT_TRUE(percentile(one_to(5), 0.5).exact);
  EXPECT_EQ(percentile(one_to(5), 0.5).value, 3.0);
  EXPECT_EQ(percentile({}, 0.99, 10).n, 0u);
}

TEST(E2eTracer, SelfTimeExcludesChildrenAndUntracedRootsRecordNothing) {
  Tracer t(true);
  {
    Tracer::Scope root(t, "root");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      Tracer::Scope child(t, "child");
      t.set_enabled(false);  // children follow their root
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  { Tracer::Scope off(t, "off"); }
  const auto agg = t.aggregate();
  ASSERT_EQ(agg.size(), 2u);
  const auto& root = agg[0].first == "root" ? agg[0].second : agg[1].second;
  const auto& child = agg[0].first == "child" ? agg[0].second : agg[1].second;
  ASSERT_EQ(root.ms.size(), 1u);
  ASSERT_EQ(child.ms.size(), 1u);
  EXPECT_EQ(child.is_child[0], 1);
  EXPECT_EQ(root.is_child[0], 0);
  EXPECT_GE(child.ms[0], 5.0);
  EXPECT_NEAR(root.self_ms[0], root.ms[0] - child.ms[0], 1e-9);
  EXPECT_LT(root.self_ms[0], root.ms[0] - 4.9);
}

TEST(E2eQuery, WaitExecAndOverheadAddUpToLatency) {
  server::AnalyticsServer srv;
  srv.publish(small_kron());
  Tracer tracer(false);
  const auto g = small_kron();
  const SeedPool pool = make_seed_pool(g, 4);
  std::size_t checked = 0;
  for (const Op& op : make_ops(kServedMix, pool, 4, 300)) {
    server::QueryDesc d;
    d.seed = op.arg;
    d.kind = op.kind == OpKind::kBfs       ? server::QueryKind::kBfs
             : op.kind == OpKind::kExtract ? server::QueryKind::kSubgraphExtract
             : op.kind == OpKind::kJaccard ? server::QueryKind::kJaccardNeighbors
             : op.kind == OpKind::kWcc     ? server::QueryKind::kWcc
                                           : server::QueryKind::kPageRankTopK;
    const TimedQuery t = timed_query(srv, d, tracer);
    ASSERT_TRUE(t.result.ok()) << t.result.error;
    const double wait = t.result.wait_ms, exec = t.result.exec_ms;
    const double overhead = t.latency_ms - wait - exec;
    EXPECT_GE(wait, 0.0);
    EXPECT_GE(exec, 0.0);
    // The server's own timers sit inside the client's interval, so the
    // remainder is never negative and the three parts sum to the latency.
    EXPECT_GE(overhead, -1e-6);
    EXPECT_NEAR(wait + exec + overhead, t.latency_ms, 1e-9);
    ++checked;
  }
  EXPECT_EQ(checked, 300u);
}

TEST(E2eOracle, TopKAcceptsNearTiesAndRejectsWrongScores) {
  const std::vector<double> ref = {0.1, 0.4, 0.3, 0.2, 0.29999};
  using TopK = std::vector<std::pair<double, vid_t>>;
  EXPECT_TRUE(topk_matches(TopK{{0.4, 1}, {0.3, 2}}, ref, 2, 1e-4));
  EXPECT_TRUE(topk_matches(TopK{{0.4, 1}, {0.29999, 4}}, ref, 2, 1e-4));
  EXPECT_FALSE(topk_matches(TopK{{0.4, 1}, {0.2, 3}}, ref, 2, 1e-4));
  EXPECT_FALSE(topk_matches(TopK{{0.41, 1}, {0.3, 2}}, ref, 2, 1e-4));
  EXPECT_FALSE(topk_matches(TopK{{0.4, 1}}, ref, 2, 1e-4));
}

}  // namespace
}  // namespace ga::e2e
