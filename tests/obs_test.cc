// Observability subsystem tests: metrics registry under concurrency,
// histogram percentiles, rank-free lock nesting, span-tree stitching,
// and EXPLAIN ANALYZE end-to-end. Run under TSan/ASan by scripts/check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/chaos.h"
#include "common/sync.h"
#include "engine/cluster.h"
#include "engine/session.h"
#include "obs/events.h"
#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace hawq {
namespace {

TEST(MetricsRegistryTest, CountersGaugesBasics) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("test.counter");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Get(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(reg.GetCounter("test.counter"), c);

  obs::Gauge* g = reg.GetGauge("test.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Get(), 7);

  auto snap = reg.SnapshotCounters();
  EXPECT_EQ(snap.at("test.counter"), 42u);
}

TEST(MetricsRegistryTest, ConcurrentAddsAreExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Shared counter, per-thread counter, and a histogram — all
      // created lazily from racing threads.
      obs::Counter* shared = reg.GetCounter("shared");
      obs::Counter* own = reg.GetCounter("own." + std::to_string(t));
      obs::Histogram* h = reg.GetHistogram("hist");
      for (int i = 0; i < kIters; ++i) {
        shared->Add();
        own->Add();
        h->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared")->Get(),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("own." + std::to_string(t))->Get(),
              static_cast<uint64_t>(kIters));
  }
  EXPECT_EQ(reg.GetHistogram("hist")->Count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(HistogramTest, BucketMapping) {
  EXPECT_EQ(obs::Histogram::BucketFor(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketFor(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketFor(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketFor(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketFor(1024), 11u);
  EXPECT_EQ(obs::Histogram::BucketUpper(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpper(1), 2u);
  EXPECT_EQ(obs::Histogram::BucketUpper(11), 2048u);
}

TEST(HistogramTest, PercentilesOnKnownDistribution) {
  obs::Histogram h;
  // 90 samples at ~10, 9 at ~1000, 1 at ~100000.
  for (int i = 0; i < 90; ++i) h.Observe(10);
  for (int i = 0; i < 9; ++i) h.Observe(1000);
  h.Observe(100000);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_EQ(h.Sum(), 90u * 10 + 9u * 1000 + 100000);
  // p50 lands in 10's bucket (upper bound 16), p95 in 1000's bucket
  // (upper 1024), and the max lands in 100000's bucket.
  EXPECT_LE(h.Percentile(0.50), 16u);
  EXPECT_GE(h.Percentile(0.95), 512u);
  EXPECT_LE(h.Percentile(0.95), 1024u);
  EXPECT_GT(h.Percentile(1.0), 65536u);
}

TEST(HistogramTest, PercentileEmpty) {
  obs::Histogram h;
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

// The PR-2 lock-rank checker aborts when any lock is acquired while a
// lock of equal or higher rank is held — which would make obs unusable
// from instrumented code paths. Rank-free locks are exempt: metrics and
// trace calls must work while holding any ranked lock.
TEST(RankFreeLockTest, ObsCallableUnderLeafLock) {
  obs::MetricsRegistry reg;
  obs::QueryTrace trace(7);
  Mutex leaf(LockRank::kLeaf, "test.leaf");
  {
    MutexLock g(leaf);
    reg.GetCounter("under.leaf")->Add();
    obs::Span* s = trace.StartSpan("under-leaf");
    trace.EndSpan(s);
  }
  EXPECT_EQ(reg.GetCounter("under.leaf")->Get(), 1u);
  EXPECT_TRUE(trace.AllFinished());
}

TEST(QueryTraceTest, SpanTreeStitching) {
  obs::QueryTrace trace(42);
  EXPECT_EQ(trace.query_id(), 42u);
  obs::Span* root = trace.StartSpan("dispatch");

  // Concurrent workers: sender spans in slice 1, receiver spans in
  // slice 0, stitched by motion_id.
  constexpr int kWorkers = 4;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&trace, root, w] {
      obs::Span* slice = trace.StartSpan("slice", root, 1, w, w);
      obs::Span* send = trace.StartSpan("motion.send", slice, 1, w, w, 9);
      trace.EndSpan(send);
      trace.EndSpan(slice);
    });
  }
  obs::Span* recv = trace.StartSpan("motion.recv", root, 0, -1, 0, 9);
  for (auto& t : workers) t.join();
  trace.EndSpan(recv);
  trace.EndSpan(root);

  auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u + 2 * kWorkers);
  EXPECT_TRUE(trace.AllFinished());

  // All motion spans share motion_id 9; senders sit under their slice
  // span, which sits under the root.
  int send_count = 0, recv_count = 0;
  for (const obs::Span& s : spans) {
    if (s.name == "motion.send") {
      ++send_count;
      EXPECT_EQ(s.motion_id, 9);
      const obs::Span& parent = spans[s.parent_id];
      EXPECT_EQ(parent.name, "slice");
      EXPECT_EQ(spans[parent.parent_id].name, "dispatch");
    }
    if (s.name == "motion.recv") {
      ++recv_count;
      EXPECT_EQ(s.motion_id, 9);
    }
  }
  EXPECT_EQ(send_count, kWorkers);
  EXPECT_EQ(recv_count, 1);

  std::string tree = trace.TreeToString();
  EXPECT_NE(tree.find("dispatch"), std::string::npos);
  EXPECT_NE(tree.find("motion.send"), std::string::npos);
  EXPECT_NE(tree.find("motion=9"), std::string::npos);
  EXPECT_EQ(tree.find("UNFINISHED"), std::string::npos);
}

TEST(QueryTraceTest, FinishAllStampsOpenSpans) {
  obs::QueryTrace trace(1);
  trace.StartSpan("left-open");
  EXPECT_FALSE(trace.AllFinished());
  trace.FinishAll();
  EXPECT_TRUE(trace.AllFinished());
}

TEST(QueryTraceTest, NodeStatsConcurrentUpdates) {
  obs::QueryTrace trace(1);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      // Each thread its own (node, segment) plus one shared cell.
      obs::NodeStats* own = trace.StatsFor(1, t);
      obs::NodeStats* shared = trace.StatsFor(2, 0);
      for (int i = 0; i < 10000; ++i) {
        own->rows.fetch_add(1, std::memory_order_relaxed);
        shared->bytes.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = trace.NodeStatsMap();
  ASSERT_EQ(stats.size(), static_cast<size_t>(kThreads + 1));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stats.at({1, t})->rows.load(), 10000u);
  }
  EXPECT_EQ(stats.at({2, 0})->bytes.load(), 2u * kThreads * 10000);
}

TEST(MetricsRegistryTest, TextAndJsonDump) {
  obs::MetricsRegistry reg;
  reg.GetCounter("a.count")->Add(3);
  reg.GetGauge("b.gauge")->Set(-5);
  reg.GetHistogram("c.hist")->Observe(100);
  std::string text = reg.ToText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  // Must parse as one JSON object: balanced braces, no trailing commas.
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.find(",}"), std::string::npos);
  EXPECT_EQ(json.find(",\n}"), std::string::npos);
}

// End-to-end: EXPLAIN ANALYZE on a distributed join reports per-node
// actuals per segment, interconnect and HDFS counter deltas, and a
// complete span tree (the ISSUE acceptance shape).
TEST(MetricsRegistryTest, ClusterMetricNamesAreCataloged) {
  // Every metric a real workload registers must appear in the checked-in
  // catalog (src/obs/metric_names.inc) — the same list hawq-lint checks
  // statically — so dashboards keyed on a name cannot be broken by a
  // rename that sneaks past review.
  engine::ClusterOptions opts;
  opts.num_segments = 4;
  opts.fault_detector_thread = false;
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE mt (a int, b int) "
                               "DISTRIBUTED BY (a)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session
                    ->Execute("INSERT INTO mt VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i) + ")")
                    .ok());
  }
  ASSERT_TRUE(
      session->Execute("SELECT count(*) FROM mt WHERE a > 5").ok());
  obs::MetricsRegistry* reg = cluster.metrics();
  for (const auto& [name, value] : reg->SnapshotCounters()) {
    EXPECT_TRUE(obs::IsKnownMetricName(name)) << "uncataloged: " << name;
  }
  for (const auto& [name, value] : reg->SnapshotGauges()) {
    EXPECT_TRUE(obs::IsKnownMetricName(name)) << "uncataloged: " << name;
  }
  for (const auto& [name, snap] : reg->SnapshotHistograms()) {
    EXPECT_TRUE(obs::IsKnownMetricName(name)) << "uncataloged: " << name;
  }
}

TEST(ExplainAnalyzeTest, JoinQueryEndToEnd) {
  engine::ClusterOptions opts;
  opts.num_segments = 4;
  opts.fault_detector_thread = false;
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t1 (a int, b int) "
                               "DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session->Execute("CREATE TABLE t2 (a int, c int) "
                               "DISTRIBUTED BY (a)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(session
                    ->Execute("INSERT INTO t1 VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i * 2) + ")")
                    .ok());
  }
  ASSERT_TRUE(session->Execute("INSERT INTO t2 SELECT a, a + 1 FROM t1").ok());

  auto r = session->Execute(
      "EXPLAIN ANALYZE SELECT t1.b, t2.c FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const auto& row : r->rows) text += row[0].as_str() + "\n";

  // Per-node actuals with per-segment breakdown.
  EXPECT_NE(text.find("actual: rows="), std::string::npos) << text;
  EXPECT_NE(text.find("seg 0:"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin"), std::string::npos) << text;
  // Interconnect and HDFS sections from the metric deltas.
  EXPECT_NE(text.find("Interconnect:"), std::string::npos) << text;
  EXPECT_NE(text.find("udp.retransmissions="), std::string::npos) << text;
  EXPECT_NE(text.find("HDFS:"), std::string::npos) << text;
  EXPECT_NE(text.find("locality_hits="), std::string::npos) << text;
  // Complete span tree: dispatch root, slices, stitched motions, and no
  // span left unfinished.
  EXPECT_NE(text.find("Spans:"), std::string::npos) << text;
  EXPECT_NE(text.find("dispatch"), std::string::npos) << text;
  EXPECT_NE(text.find("motion.send"), std::string::npos) << text;
  EXPECT_NE(text.find("motion.recv"), std::string::npos) << text;
  EXPECT_EQ(text.find("UNFINISHED"), std::string::npos) << text;

  // The answer itself must still be queryable and consistent.
  auto check = session->Execute(
      "SELECT count(*) FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].as_int(), 50);
}

TEST(ExplainAnalyzeTest, PlainExplainShowsSliceBoundaries) {
  engine::ClusterOptions opts;
  opts.num_segments = 2;
  opts.fault_detector_thread = false;
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t1 (a int, b int) "
                               "DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session->Execute("CREATE TABLE t2 (a int, c int) "
                               "DISTRIBUTED BY (c)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t1 VALUES (1, 2)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t2 VALUES (1, 3)").ok());
  auto r = session->Execute(
      "EXPLAIN SELECT t1.b FROM t1, t2 WHERE t1.a = t2.a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const auto& row : r->rows) text += row[0].as_str() + "\n";
  // Slice headers name the motion each slice feeds; redistribution
  // shows its distribution keys; plain EXPLAIN runs nothing.
  EXPECT_NE(text.find("returns to client"), std::string::npos) << text;
  EXPECT_NE(text.find("sends "), std::string::npos) << text;
  EXPECT_NE(text.find(" by ("), std::string::npos) << text;
  EXPECT_EQ(text.find("actual:"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, SnapshotGaugesAndHistograms) {
  obs::MetricsRegistry reg;
  reg.GetGauge("g.one")->Set(7);
  reg.GetGauge("g.two")->Set(-2);
  obs::Histogram* h = reg.GetHistogram("h.lat");
  for (int i = 0; i < 98; ++i) h->Observe(10);
  h->Observe(100000);
  h->Observe(100000);

  auto gauges = reg.SnapshotGauges();
  EXPECT_EQ(gauges.at("g.one"), 7);
  EXPECT_EQ(gauges.at("g.two"), -2);

  auto hists = reg.SnapshotHistograms();
  const obs::HistogramSnapshot& snap = hists.at("h.lat");
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 98u * 10 + 2u * 100000);
  EXPECT_LE(snap.p50, 16u);
  EXPECT_LE(snap.p95, 16u);
  EXPECT_GT(snap.p99, 16u);
}

TEST(EventJournalTest, RingBufferKeepsNewestInSeqOrder) {
  obs::EventJournal j(4);
  EXPECT_EQ(j.capacity(), 4u);
  for (int i = 1; i <= 10; ++i) {
    j.Log(i % 2 ? obs::Severity::kInfo : obs::Severity::kWarn, "test",
          "event_" + std::to_string(i), "detail", static_cast<uint64_t>(i));
  }
  EXPECT_EQ(j.total_logged(), 10u);
  auto events = j.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The ring kept the newest four, sorted by seq.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 7u + i);
    EXPECT_EQ(events[i].event, "event_" + std::to_string(7 + i));
    if (i > 0) EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  EXPECT_STREQ(obs::SeverityName(obs::Severity::kInfo), "INFO");
  EXPECT_STREQ(obs::SeverityName(obs::Severity::kWarn), "WARN");
  EXPECT_STREQ(obs::SeverityName(obs::Severity::kError), "ERROR");
}

TEST(EventJournalTest, ConcurrentLoggersLoseNothing) {
  obs::EventJournal j(10000);
  constexpr int kThreads = 8;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&j, t] {
      for (int i = 0; i < kEach; ++i) {
        j.Log(obs::Severity::kInfo, "thread" + std::to_string(t), "tick", "");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(j.total_logged(), static_cast<uint64_t>(kThreads) * kEach);
  auto events = j.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kEach);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);  // dense, no gaps
  }
}

TEST(QueryLogTest, RingKeepsMostRecentOldestFirst) {
  obs::QueryLog log(3);
  for (int i = 1; i <= 5; ++i) {
    obs::QueryRecord rec;
    rec.query_id = static_cast<uint64_t>(i);
    rec.text = "q" + std::to_string(i);
    rec.status = "ok";
    log.Append(std::move(rec));
  }
  EXPECT_EQ(log.total_recorded(), 5u);
  auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].text, "q3");
  EXPECT_EQ(records[1].text, "q4");
  EXPECT_EQ(records[2].text, "q5");
}

// The sync.h acquire-wait hook: contended acquires are timed and land in
// the per-rank histogram; uncontended acquires stay on the try_lock fast
// path and observe nothing.
TEST(LockProfileTest, ContendedAcquiresLandInRankHistogram) {
  obs::MetricsRegistry reg;
  obs::InstallLockWaitProfiler(&reg);
  Mutex mu(LockRank::kLeaf, "test.contended");

  // Uncontended: fast path, no observation.
  { MutexLock g(mu); }
  auto hists = reg.SnapshotHistograms();
  EXPECT_EQ(hists.at("sync.lock_wait_us.leaf").count, 0u);

  // Contended: one thread camps on the lock, others must wait.
  constexpr int kThreads = 4;
  std::atomic<int> acquired{0};
  std::vector<std::thread> threads;
  {
    MutexLock holder(mu);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&mu, &acquired] {
        MutexLock g(mu);
        acquired.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(acquired.load(), kThreads);

  hists = reg.SnapshotHistograms();
  const obs::HistogramSnapshot& waits = hists.at("sync.lock_wait_us.leaf");
  EXPECT_GE(waits.count, 1u);  // at least the first waiter was contended
  EXPECT_GT(waits.sum, 0u);    // and it measurably waited

  obs::UninstallLockWaitProfiler();
  // With the profiler gone, acquires must not touch the old registry.
  uint64_t before = reg.SnapshotHistograms().at("sync.lock_wait_us.leaf").count;
  {
    MutexLock holder(mu);
    std::thread waiter([&mu] { MutexLock g(mu); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    holder.Unlock();
    waiter.join();
  }
  EXPECT_EQ(reg.SnapshotHistograms().at("sync.lock_wait_us.leaf").count,
            before);
}

TEST(LockProfileTest, RankNames) {
  EXPECT_STREQ(obs::LockRankName(static_cast<int>(LockRank::kLeaf)), "leaf");
  EXPECT_STREQ(obs::LockRankName(static_cast<int>(LockRank::kDispatcher)),
               "dispatcher");
  EXPECT_STREQ(obs::LockRankName(static_cast<int>(LockRank::kRankFree)),
               "rank_free");
  EXPECT_STREQ(obs::LockRankName(12345), "other");
}

// ------------------------------------------------- hawq_stat_* views

engine::ClusterOptions SmallCluster(int segments = 4) {
  engine::ClusterOptions opts;
  opts.num_segments = segments;
  opts.fault_detector_thread = false;
  return opts;
}

TEST(StatViewsTest, MetricsViewExposesRegistry) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a int, b int)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1, 2), (3, 4)").ok());
  ASSERT_TRUE(session->Execute("SELECT * FROM t").ok());

  auto r = session->Execute(
      "SELECT value FROM hawq_stat_metrics WHERE name = 'engine.queries'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GE(r->rows[0][0].as_int(), 2);  // the INSERT and the SELECT

  // Histogram rows expose count/sum/percentiles; counters leave them null.
  r = session->Execute(
      "SELECT count, sum, p50 FROM hawq_stat_metrics "
      "WHERE name = 'engine.query_us'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GE(r->rows[0][0].as_int(), 2);
  EXPECT_GT(r->rows[0][1].as_int(), 0);

  // The contention profiler pre-registers per-rank wait histograms.
  r = session->Execute(
      "SELECT count(*) FROM hawq_stat_metrics "
      "WHERE kind = 'histogram' AND name = 'sync.lock_wait_us.dispatcher'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 1);
}

TEST(StatViewsTest, QueriesViewRecordsHistoryAndErrors) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a int)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(session->Execute("SELECT * FROM t").ok());
  EXPECT_FALSE(session->Execute("SELECT * FROM no_such_table").ok());

  auto r = session->Execute(
      "SELECT query, rows FROM hawq_stat_queries WHERE status = 'ok' "
      "ORDER BY query_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->rows.size(), 3u);
  bool saw_select = false;
  for (const Row& row : r->rows) {
    if (row[0].as_str() == "SELECT * FROM t") {
      saw_select = true;
      EXPECT_EQ(row[1].as_int(), 3);
    }
  }
  EXPECT_TRUE(saw_select);

  r = session->Execute(
      "SELECT query, error FROM hawq_stat_queries WHERE status = 'error'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_str(), "SELECT * FROM no_such_table");
  EXPECT_NE(r->rows[0][1].as_str().find("no_such_table"), std::string::npos);

  // The failed statement was journaled as a query_error event.
  r = session->Execute(
      "SELECT count(*) FROM hawq_stat_events "
      "WHERE severity = 'ERROR' AND event = 'query_error'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 1);
}

TEST(StatViewsTest, SlowQueryCapturesExplainAnalyze) {
  engine::ClusterOptions opts = SmallCluster();
  opts.slow_query_us = 1;  // everything is "slow"
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a int, b int) "
                               "DISTRIBUTED BY (a)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1, 2), (3, 4)").ok());
  ASSERT_TRUE(session->Execute("SELECT sum(b) FROM t").ok());

  bool captured = false;
  for (const obs::QueryRecord& rec : cluster.query_log()->Snapshot()) {
    if (rec.text != "SELECT sum(b) FROM t") continue;
    captured = true;
    EXPECT_NE(rec.slow_explain.find("actual"), std::string::npos)
        << rec.slow_explain;
    EXPECT_NE(rec.slow_explain.find("Slice"), std::string::npos)
        << rec.slow_explain;
    EXPECT_GT(rec.duration_us, 0u);
  }
  EXPECT_TRUE(captured);

  // The rendering is also visible through SQL.
  auto r = session->Execute(
      "SELECT count(*) FROM hawq_stat_queries WHERE status = 'ok'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->rows[0][0].as_int(), 3);
}

TEST(StatViewsTest, SegmentsViewShowsLoadAndStatus) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a int)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1), (2), (3), (4)")
                  .ok());
  ASSERT_TRUE(session->Execute("SELECT count(*) FROM t").ok());

  auto r = session->Execute(
      "SELECT count(*) FROM hawq_stat_segments WHERE status = 'up'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 4);

  r = session->Execute("SELECT sum(queries), sum(busy_us), "
                       "sum(hdfs_bytes_read) FROM hawq_stat_segments");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->rows[0][0].as_int(), 0);
  EXPECT_GT(r->rows[0][1].as_int(), 0);
  EXPECT_GT(r->rows[0][2].as_int(), 0);

  cluster.FailSegment(2);
  r = session->Execute(
      "SELECT segment FROM hawq_stat_segments WHERE status = 'down'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int(), 2);
}

TEST(StatViewsTest, EventsViewCapturesInjectedFailures) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  cluster.FailSegment(1);
  cluster.RecoverSegment(1);

  auto r = session->Execute(
      "SELECT severity, component, event FROM hawq_stat_events "
      "ORDER BY seq");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> events;
  for (const Row& row : r->rows) events.push_back(row[2].as_str());
  EXPECT_NE(std::find(events.begin(), events.end(), "segment_failed"),
            events.end());
  EXPECT_NE(std::find(events.begin(), events.end(), "datanode_down"),
            events.end());
  EXPECT_NE(std::find(events.begin(), events.end(), "segment_recovered"),
            events.end());
  EXPECT_NE(std::find(events.begin(), events.end(), "datanode_up"),
            events.end());

  r = session->Execute(
      "SELECT count(*) FROM hawq_stat_events WHERE severity = 'ERROR' "
      "AND event = 'datanode_down'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 1);
}

TEST(StatViewsTest, ComposesWithSqlMachinery) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a int)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Execute("SELECT count(*) FROM t").ok());
  }

  // ORDER BY + LIMIT (the README's slowest-queries example).
  auto r = session->Execute(
      "SELECT query, duration_us FROM hawq_stat_queries "
      "ORDER BY duration_us DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  EXPECT_GE(r->rows[0][1].as_int(), r->rows[1][1].as_int());

  // GROUP BY aggregation over a view.
  r = session->Execute(
      "SELECT kind, count(*) FROM hawq_stat_metrics GROUP BY kind");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->rows.size(), 3u);  // counters, gauges, histograms

  // EXPLAIN shows the VirtualScan operator without running the scan.
  r = session->Execute("EXPLAIN SELECT * FROM hawq_stat_metrics");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r->rows) text += row[0].as_str() + "\n";
  EXPECT_NE(text.find("VirtualScan hawq_stat_metrics"), std::string::npos)
      << text;

  // Joining a view against a catalog-backed table redistributes fine.
  r = session->Execute(
      "SELECT count(*) FROM hawq_stat_segments s, t WHERE s.segment = t.a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 0);
}

TEST(StatViewsTest, ViewsAreReadOnly) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  EXPECT_FALSE(
      session->Execute("INSERT INTO hawq_stat_metrics VALUES (1)").ok());
  EXPECT_FALSE(session->Execute("DROP TABLE hawq_stat_queries").ok());
  EXPECT_FALSE(session->Execute("TRUNCATE hawq_stat_events").ok());
}

// ----------------------------------------- live introspection & profiling

void LoadJoinTables(engine::Session* s, int fact_rows, int dim_rows) {
  ASSERT_TRUE(s->Execute("CREATE TABLE fact (k INT, v INT) "
                         "DISTRIBUTED BY (k)").ok());
  ASSERT_TRUE(s->Execute("CREATE TABLE dim (k INT, w INT) "
                         "DISTRIBUTED BY (k)").ok());
  for (int base = 0; base < fact_rows; base += 1000) {
    std::string vals;
    int hi = std::min(base + 1000, fact_rows);
    for (int i = base; i < hi; ++i) {
      vals += (i == base ? "(" : ", (") + std::to_string(i) + "," +
              std::to_string(i % 97) + ")";
    }
    ASSERT_TRUE(s->Execute("INSERT INTO fact VALUES " + vals).ok());
  }
  std::string vals;
  for (int i = 0; i < dim_rows; ++i) {
    vals += (i == 0 ? "(" : ", (") + std::to_string(i) + "," +
            std::to_string(i * 2) + ")";
  }
  ASSERT_TRUE(s->Execute("INSERT INTO dim VALUES " + vals).ok());
  ASSERT_TRUE(s->Execute("ANALYZE fact").ok());
  ASSERT_TRUE(s->Execute("ANALYZE dim").ok());
}

/// Chaos hook that parks every worker visiting a named point once a
/// visit threshold is reached, freezing the query mid-flight until
/// Release(). WaitParked() returns once a worker sits at the point, so a
/// test observes the frozen state as an event instead of polling for it.
class BlockAtVisit : public common::chaos::Injector {
 public:
  BlockAtVisit(const char* point, int after_visits)
      : point_(point), after_visits_(after_visits) {}

  void OnPoint(const char* point) override {
    if (std::strcmp(point, point_) != 0) return;
    MutexLock g(mu_);
    if (++visits_ < after_visits_) return;
    ++parked_;
    cv_.NotifyAll();
    cv_.Wait(g, [this] { return released_; });
  }

  /// True once a worker is parked at the point; false if none got there
  /// within `budget` (the query finished or failed without reaching it).
  bool WaitParked(std::chrono::seconds budget) {
    MutexLock g(mu_);
    return cv_.WaitFor(g, budget, [this] { return parked_ > 0; });
  }

  void Release() {
    MutexLock g(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  const char* point_;
  const int after_visits_;
  Mutex mu_{LockRank::kLeaf, "test.block_at_visit"};
  CondVar cv_;
  int visits_ HAWQ_GUARDED_BY(mu_) = 0;
  int parked_ HAWQ_GUARDED_BY(mu_) = 0;
  bool released_ HAWQ_GUARDED_BY(mu_) = false;
};

// The tentpole acceptance test: a statement blocked mid-query is visible
// from a concurrent session in hawq_stat_activity — with nonzero
// per-slice progress sampled from the live NodeStats and per-operator
// memory attribution — and disappears once it completes.
TEST(StatViewsTest, ActivityViewShowsBlockedQueryThenDrains) {
  engine::Cluster cluster(SmallCluster());
  auto admin = cluster.Connect();

  // Idle cluster: the monitoring statement excludes itself, so the view
  // is empty.
  auto idle = admin->Execute("SELECT count(*) FROM hawq_stat_activity");
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  EXPECT_EQ(idle->rows[0][0].as_int(), 0);

  LoadJoinTables(admin.get(), 8000, 400);

  // Park the QD's gather receiver on its second batch. Its first batch
  // held rows, and a sender counts a chunk's rows in its slice-root
  // stats before sending it, so the frozen query has provably made
  // per-slice progress. (The view's own plan is one QD slice with no
  // motion, so the monitoring session never reaches this point.)
  BlockAtVisit inj("motion.recv", /*after_visits=*/2);
  common::chaos::ScopedInjector guard(&inj);
  std::thread runner([&cluster] {
    auto s = cluster.Connect();
    auto r = s->Execute(
        "SELECT count(*), sum(f.v) FROM fact f, dim d WHERE f.k = d.k");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });

  const bool parked = inj.WaitParked(std::chrono::seconds(60));
  std::string diag = "query never reached motion.recv";
  bool seen = false;
  if (parked) {
    auto r = admin->Execute(
        "SELECT query, state, rows, mem_used_bytes, slices, mem_ops "
        "FROM hawq_stat_activity "
        "WHERE slices IS NOT NULL AND mem_ops IS NOT NULL");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    diag = "query not listed with slices and mem_ops";
    for (const Row& row : r.ok() ? r->rows : std::vector<Row>{}) {
      if (row[0].as_str().find("FROM fact f") == std::string::npos) continue;
      diag = row[1].as_str() + " rows=" + std::to_string(row[2].as_int()) +
             " mem=" + std::to_string(row[3].as_int()) +
             " slices=" + row[4].as_str() + " mem_ops=" + row[5].as_str();
      EXPECT_EQ(row[1].as_str(), "executing");
      seen = row[2].as_int() > 0 && row[3].as_int() > 0 &&
             !row[5].as_str().empty();
    }
  }
  inj.Release();
  runner.join();
  EXPECT_TRUE(seen) << "blocked query never showed progress; last: " << diag;

  // The finished statement has drained out of the view.
  auto after = admin->Execute("SELECT count(*) FROM hawq_stat_activity");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows[0][0].as_int(), 0) << "activity must drain";
}

TEST(StatViewsTest, ProfileViewAccumulatesSamples) {
  engine::ClusterOptions opts = SmallCluster();
  opts.profiler_period_us = 100;  // sample aggressively for the test
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  LoadJoinTables(session.get(), 6000, 400);

  // Keep queries in flight until the sampler has landed hits. Each run
  // is short, so several may be needed before a 100us tick overlaps one.
  bool sampled = false;
  for (int i = 0; i < 200 && !sampled; ++i) {
    ASSERT_TRUE(session
                    ->Execute("SELECT count(*), sum(f.v) FROM fact f, dim d "
                              "WHERE f.k = d.k")
                    .ok());
    auto r = session->Execute(
        "SELECT node_kind, phase, samples, self_us FROM hawq_stat_profile");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const Row& row : r->rows) {
      EXPECT_FALSE(row[0].as_str().empty());
      EXPECT_FALSE(row[1].as_str().empty());
      EXPECT_GT(row[2].as_int(), 0);
      EXPECT_GT(row[3].as_int(), 0);
      sampled = true;
    }
  }
  EXPECT_TRUE(sampled) << "profiler sampler never caught a live query";

  // The sampler's own bookkeeping is visible in the metrics view.
  auto m = session->Execute(
      "SELECT value FROM hawq_stat_metrics WHERE name = "
      "'obs.profiler_samples'");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m->rows[0][0].as_int(), 0);
}

TEST(StatViewsTest, ProfilerOffLeavesProfileEmpty) {
  engine::ClusterOptions opts = SmallCluster();
  opts.enable_profiler = false;
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(session->Execute("SELECT count(*) FROM t").ok());
  auto r = session->Execute("SELECT count(*) FROM hawq_stat_profile");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].as_int(), 0);
}

// ------------------------------------------------------- trace export

// Minimal structural validation of the Chrome trace-event JSON: the
// format is flat enough that substring checks pin the schema (a real
// JSON parser is not available in-tree, deliberately).
void ValidateChromeTraceJson(const std::string& json) {
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json.substr(0, 120);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"query_id\":"), std::string::npos);
  // Process metadata rows name the QD and at least one segment.
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"args\":{\"name\":\"QD\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"seg0\"}"), std::string::npos);
  // Complete ("X") duration events carry pid/tid/ts/dur.
  size_t x = json.find("\"ph\":\"X\"");
  ASSERT_NE(x, std::string::npos);
  size_t end = json.find('}', x);
  std::string evt = json.substr(x, end - x);
  EXPECT_NE(evt.find("\"pid\":"), std::string::npos) << evt;
  EXPECT_NE(evt.find("\"tid\":"), std::string::npos) << evt;
  EXPECT_NE(evt.find("\"ts\":"), std::string::npos) << evt;
  EXPECT_NE(evt.find("\"dur\":"), std::string::npos) << evt;
  // The span tree includes the dispatch root and per-slice spans.
  EXPECT_NE(json.find("\"name\":\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("slice"), std::string::npos);
  // Braces balance (cheap well-formedness proxy).
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces in trace JSON";
}

TEST(TraceExportTest, ExplainAnalyzeTraceWritesChromeJson) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  LoadJoinTables(session.get(), 2000, 200);

  auto r = session->Execute(
      "EXPLAIN (ANALYZE, TRACE) SELECT count(*) FROM fact f, dim d "
      "WHERE f.k = d.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r->rows) text += row[0].as_str() + "\n";
  size_t pos = text.find("Trace: ");
  ASSERT_NE(pos, std::string::npos) << text;
  std::string path = text.substr(pos + 7);
  path = path.substr(0, path.find('\n'));
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "exported trace missing: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  ValidateChromeTraceJson(buf.str());
  std::remove(path.c_str());

  // Export is journaled and counted.
  auto ev = session->Execute(
      "SELECT count(*) FROM hawq_stat_events WHERE event = 'trace_exported'");
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  EXPECT_GE(ev->rows[0][0].as_int(), 1);
}

TEST(TraceExportTest, TraceDirExportsEveryTracedQuery) {
  engine::ClusterOptions opts = SmallCluster();
  opts.trace_dir = "obs_test_traces";
  ::mkdir("obs_test_traces", 0755);
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
                  .ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(session->Execute("SELECT count(*) FROM t").ok());

  auto ev = session->Execute(
      "SELECT detail FROM hawq_stat_events WHERE event = 'trace_exported'");
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  ASSERT_GE(ev->rows.size(), 1u) << "trace_dir set, no export journaled";
  bool validated = false;
  for (const Row& row : ev->rows) {
    std::string path = row[0].as_str();
    ASSERT_EQ(path.rfind("obs_test_traces/hawq_trace_q", 0), 0u) << path;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    ValidateChromeTraceJson(buf.str());
    std::remove(path.c_str());
    validated = true;
  }
  EXPECT_TRUE(validated);
  ::rmdir("obs_test_traces");
}

// ------------------------------------- misestimates & failure capture

TEST(ExplainAnalyzeTest, ShowsEstimatesMemoryAndFlagsMisestimates) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a INT, b INT) "
                               "DISTRIBUTED BY (a)").ok());
  // Collect stats at 100 rows, then load 20x more: the planner still
  // believes 100 while the scan actually returns 2000 — a >10x
  // divergence EXPLAIN ANALYZE must flag.
  std::string vals;
  for (int i = 0; i < 100; ++i) {
    vals += (i == 0 ? "(" : ", (") + std::to_string(i) + "," +
            std::to_string(i % 7) + ")";
  }
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES " + vals).ok());
  ASSERT_TRUE(session->Execute("ANALYZE t").ok());
  vals.clear();
  for (int i = 100; i < 2000; ++i) {
    vals += (i == 100 ? "(" : ", (") + std::to_string(i) + "," +
            std::to_string(i % 7) + ")";
  }
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES " + vals).ok());

  auto r = session->Execute("EXPLAIN ANALYZE SELECT sum(b) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r->rows) text += row[0].as_str() + "\n";
  EXPECT_NE(text.find("est rows="), std::string::npos) << text;
  EXPECT_NE(text.find("mem_peak="), std::string::npos) << text;
  EXPECT_NE(text.find("MISESTIMATE("), std::string::npos) << text;

  // The divergence is journaled and counted for offline analysis.
  auto ev = session->Execute(
      "SELECT count(*) FROM hawq_stat_events "
      "WHERE event = 'plan_misestimate' AND component = 'planner'");
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  EXPECT_GE(ev->rows[0][0].as_int(), 1);
  auto m = session->Execute(
      "SELECT value FROM hawq_stat_metrics "
      "WHERE name = 'planner.misestimates'");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GE(m->rows[0][0].as_int(), 1);

  // With fresh stats the estimate converges and the flag goes away.
  ASSERT_TRUE(session->Execute("ANALYZE t").ok());
  r = session->Execute("EXPLAIN ANALYZE SELECT sum(b) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  text.clear();
  for (const Row& row : r->rows) text += row[0].as_str() + "\n";
  EXPECT_NE(text.find("est rows="), std::string::npos);
  EXPECT_EQ(text.find("MISESTIMATE("), std::string::npos) << text;
}

// Failed statements keep their partial EXPLAIN ANALYZE: the post-mortem
// shows how far each node got before the error.
TEST(StatViewsTest, FailedQueryKeepsPostMortemExplain) {
  engine::ClusterOptions opts = SmallCluster();
  opts.max_query_retries = 0;  // fail instead of failing over
  engine::Cluster cluster(opts);
  auto session = cluster.Connect();
  LoadJoinTables(session.get(), 4000, 200);

  class KillOnce : public common::chaos::Injector {
   public:
    explicit KillOnce(engine::Cluster* c) : c_(c) {}
    void OnPoint(const char* point) override {
      if (std::strcmp(point, "scan.batch") != 0) return;
      if (!fired_.exchange(true, std::memory_order_acq_rel)) {
        c_->FailSegment(1);
      }
    }
   private:
    engine::Cluster* c_;
    std::atomic<bool> fired_{false};
  };
  KillOnce inj(&cluster);
  {
    common::chaos::ScopedInjector guard(&inj);
    auto r = session->Execute(
        "SELECT count(*), sum(f.v) FROM fact f, dim d WHERE f.k = d.k");
    EXPECT_FALSE(r.ok()) << "retries=0: the kill must fail the statement";
  }

  bool captured = false;
  for (const obs::QueryRecord& rec : cluster.query_log()->Snapshot()) {
    if (rec.status != "error" || rec.text.find("FROM fact f") ==
                                     std::string::npos) {
      continue;
    }
    captured = true;
    EXPECT_NE(rec.slow_explain.find("Slice"), std::string::npos)
        << rec.slow_explain;
    EXPECT_NE(rec.slow_explain.find("actual"), std::string::npos)
        << rec.slow_explain;
  }
  EXPECT_TRUE(captured) << "failed statement missing post-mortem explain";
}

// Statement-level retries surface in the history view.
TEST(StatViewsTest, QueriesViewRecordsRetries) {
  engine::Cluster cluster(SmallCluster());
  auto session = cluster.Connect();
  LoadJoinTables(session.get(), 4000, 200);

  class KillOnce : public common::chaos::Injector {
   public:
    explicit KillOnce(engine::Cluster* c) : c_(c) {}
    void OnPoint(const char* point) override {
      if (std::strcmp(point, "scan.batch") != 0) return;
      if (!fired_.exchange(true, std::memory_order_acq_rel)) {
        c_->FailSegment(2);
      }
    }
   private:
    engine::Cluster* c_;
    std::atomic<bool> fired_{false};
  };
  KillOnce inj(&cluster);
  {
    common::chaos::ScopedInjector guard(&inj);
    auto r = session->Execute("SELECT count(*) FROM fact");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->retries, 1);
  }

  auto q = session->Execute(
      "SELECT retries FROM hawq_stat_queries "
      "WHERE query = 'SELECT count(*) FROM fact'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->rows.size(), 1u);
  EXPECT_GE(q->rows[0][0].as_int(), 1);
}

}  // namespace
}  // namespace hawq
