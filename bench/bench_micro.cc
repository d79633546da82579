// Microbenchmarks (google-benchmark): codec throughput, interconnect
// round trips under loss, expression evaluation, row hashing/serde —
// plus a vectorized-executor batch-size sweep (scan -> filter -> project)
// that writes BENCH_vectorized.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/serde.h"
#include "executor/exec_node.h"
#include "hdfs/hdfs.h"
#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "interconnect/sim_net.h"
#include "interconnect/udp_interconnect.h"
#include "planner/plan_node.h"
#include "sql/pexpr.h"
#include "storage/codec.h"
#include "storage/format.h"

namespace hawq {
namespace {

std::string MakePayload(size_t n) {
  Rng rng(11);
  std::string s;
  s.reserve(n);
  const char* words[] = {"BUILDING", "MACHINERY", "1994-02-03", "12.5"};
  while (s.size() < n) {
    s += words[rng.Uniform(0, 3)];
    s += std::to_string(rng.Uniform(0, 100000));
    s += '|';
  }
  return s;
}

void BM_CodecCompress(benchmark::State& state) {
  auto codec = static_cast<catalog::Codec>(state.range(0));
  int level = static_cast<int>(state.range(1));
  std::string payload = MakePayload(64 * 1024);
  for (auto _ : state) {
    auto c = storage::CodecCompress(codec, level, payload);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_CodecCompress)
    ->Args({static_cast<int>(catalog::Codec::kQuicklz), 1})
    ->Args({static_cast<int>(catalog::Codec::kZlib), 1})
    ->Args({static_cast<int>(catalog::Codec::kZlib), 5})
    ->Args({static_cast<int>(catalog::Codec::kZlib), 9});

void BM_CodecDecompress(benchmark::State& state) {
  auto codec = static_cast<catalog::Codec>(state.range(0));
  std::string payload = MakePayload(64 * 1024);
  auto comp = storage::CodecCompress(codec, 5, payload);
  for (auto _ : state) {
    auto d = storage::CodecDecompress(codec, *comp, payload.size());
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_CodecDecompress)
    ->Arg(static_cast<int>(catalog::Codec::kQuicklz))
    ->Arg(static_cast<int>(catalog::Codec::kZlib));

void BM_UdpInterconnectThroughput(benchmark::State& state) {
  double loss = state.range(0) / 100.0;
  net::NetOptions nopts;
  nopts.loss_prob = loss;
  nopts.reorder_prob = loss;
  net::SimNet net(2, nopts);
  net::UdpFabric fabric(&net);
  std::string chunk(8 * 1024, 'x');
  uint64_t query = 1;
  for (auto _ : state) {
    state.PauseTiming();
    ++query;
    std::thread receiver([&] {
      auto recv = fabric.OpenRecv(query, 1, 0, 1, 1);
      while (true) {
        auto c = (*recv)->Recv();
        if (!c.ok() || !c->has_value()) break;
      }
    });
    state.ResumeTiming();
    auto send = fabric.OpenSend(query, 1, 0, 0, {1});
    for (int i = 0; i < 64; ++i) {
      (void)(*send)->Send(0, chunk);
    }
    (void)(*send)->SendEos();
    state.PauseTiming();
    receiver.join();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * 64 * chunk.size());
}
BENCHMARK(BM_UdpInterconnectThroughput)->Arg(0)->Arg(2)->Arg(10);

void BM_PExprEval(benchmark::State& state) {
  using sql::PExpr;
  // l_extendedprice * (1 - l_discount) * (1 + l_tax)
  PExpr one = PExpr::Const(Datum::Double(1), TypeId::kDouble);
  PExpr expr = PExpr::Binary(
      PExpr::Op::kMul,
      PExpr::Binary(PExpr::Op::kMul, PExpr::Col(0, TypeId::kDouble),
                    PExpr::Binary(PExpr::Op::kSub, one,
                                  PExpr::Col(1, TypeId::kDouble),
                                  TypeId::kDouble),
                    TypeId::kDouble),
      PExpr::Binary(PExpr::Op::kAdd, one, PExpr::Col(2, TypeId::kDouble),
                    TypeId::kDouble),
      TypeId::kDouble);
  Row row = {Datum::Double(1000.5), Datum::Double(0.05), Datum::Double(0.08)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.Eval(row));
  }
}
BENCHMARK(BM_PExprEval);

void BM_RowSerde(benchmark::State& state) {
  Row row = {Datum::Int(123456), Datum::Str("BUILDING"),
             Datum::Double(1234.56), Datum::Int(9876),
             Datum::Str("1995-02-03 some comment text here")};
  for (auto _ : state) {
    BufferWriter w;
    SerializeRow(row, &w);
    BufferReader r(w.data().data(), w.size());
    auto back = DeserializeRow(&r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RowSerde);

void BM_HashRow(benchmark::State& state) {
  Row key = {Datum::Int(123456789), Datum::Str("somekey")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashRow(key));
  }
}
BENCHMARK(BM_HashRow);

// ------------------------------------------------- vectorized sweep
//
// Drives a real scan -> filter -> project pipeline over an AO table on
// MiniHdfs at batch sizes 1/64/256/1024/4096 and reports rows/sec per
// size plus the 1024-vs-1 speedup. Every size drains through NextBatch;
// size 1 means one-row batches, which pays the per-batch virtual call,
// expression dispatch and selection-vector bookkeeping once per row, so
// the sweep isolates what amortizing them over a batch buys.

double RunPipelineOnce(hdfs::MiniHdfs* fs, const plan::PlanNode& root,
                       size_t batch_size, int64_t* rows_out,
                       obs::QueryTrace* trace = nullptr) {
  exec::ExecContext ctx;
  ctx.segment = 0;
  ctx.fs = fs;
  ctx.batch_size = batch_size;
  ctx.trace = trace;
  auto node = exec::BuildExecNode(root, &ctx);
  if (!node.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 node.status().ToString().c_str());
    return 0;
  }
  auto t0 = std::chrono::steady_clock::now();
  Status st = (*node)->Open();
  int64_t rows = 0;
  RowBatch batch(batch_size);
  while (st.ok()) {
    auto more = (*node)->NextBatch(&batch);
    if (!more.ok()) {
      st = more.status();
      break;
    }
    if (!*more) break;
    rows += static_cast<int64_t>(batch.size());
  }
  if (st.ok()) st = (*node)->Close();
  auto t1 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", st.ToString().c_str());
    return 0;
  }
  *rows_out = rows;
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The sweep's table + plan: TPC-H Q6 shape, scan(k,v,p) ->
/// filter(three range quals, keeps half) -> project(k, p * 1.026).
struct SweepFixture {
  explicit SweepFixture(obs::MetricsRegistry* metrics = nullptr)
      : fs(4, {}, metrics) {
    using sql::PExpr;
    nrows = 100000;
    if (const char* e = std::getenv("HAWQ_BENCH_ROWS")) nrows = std::atoll(e);

    Schema schema;
    schema.AddField({"k", TypeId::kInt64, false});
    schema.AddField({"v", TypeId::kInt64, false});
    schema.AddField({"p", TypeId::kDouble, false});
    storage::StorageOptions opts;
    opts.kind = catalog::StorageKind::kAO;
    const std::string path = "/bench/vectorized/seg0";
    auto w = storage::OpenTableWriter(&fs, path, schema, opts);
    if (!w.ok()) {
      std::fprintf(stderr, "writer failed: %s\n",
                   w.status().ToString().c_str());
      return;
    }
    for (int64_t i = 0; i < nrows; ++i) {
      (void)(*w)->Append(
          {Datum::Int(i), Datum::Int(i % 100), Datum::Double(i * 0.25)});
    }
    (void)(*w)->Close();
    int64_t eof = (*w)->logical_eof();

    root.kind = plan::NodeKind::kProject;
    root.out_arity = 2;
    root.node_id = 0;
    root.exprs.push_back(PExpr::Col(0, TypeId::kInt64));
    PExpr one = PExpr::Const(Datum::Double(1), TypeId::kDouble);
    root.exprs.push_back(PExpr::Binary(
        PExpr::Op::kMul,
        PExpr::Binary(PExpr::Op::kMul, PExpr::Col(2, TypeId::kDouble),
                      PExpr::Binary(PExpr::Op::kSub, one,
                                    PExpr::Const(Datum::Double(0.05),
                                                 TypeId::kDouble),
                                    TypeId::kDouble),
                      TypeId::kDouble),
        PExpr::Binary(PExpr::Op::kAdd, one,
                      PExpr::Const(Datum::Double(0.08), TypeId::kDouble),
                      TypeId::kDouble),
        TypeId::kDouble));
    auto filter = std::make_unique<plan::PlanNode>();
    filter->kind = plan::NodeKind::kFilter;
    filter->out_arity = 3;
    filter->node_id = 1;
    filter->quals.push_back(PExpr::Binary(
        PExpr::Op::kLt, PExpr::Col(1, TypeId::kInt64),
        PExpr::Const(Datum::Int(50), TypeId::kInt64), TypeId::kBool));
    filter->quals.push_back(PExpr::Binary(
        PExpr::Op::kGe, PExpr::Col(2, TypeId::kDouble),
        PExpr::Const(Datum::Double(0), TypeId::kDouble), TypeId::kBool));
    filter->quals.push_back(PExpr::Binary(
        PExpr::Op::kGe, PExpr::Col(0, TypeId::kInt64),
        PExpr::Const(Datum::Int(0), TypeId::kInt64), TypeId::kBool));
    auto scan = std::make_unique<plan::PlanNode>();
    scan->kind = plan::NodeKind::kSeqScan;
    scan->out_arity = 3;
    scan->node_id = 2;
    scan->table_schema = schema;
    scan->storage = catalog::StorageKind::kAO;
    scan->files.push_back({0, path, eof});
    scan->projection = {0, 1, 2};
    filter->children.push_back(std::move(scan));
    root.children.push_back(std::move(filter));
    ok = true;
  }

  hdfs::MiniHdfs fs;
  plan::PlanNode root;
  int64_t nrows = 0;
  bool ok = false;
};

void RunVectorizedSweep() {
  obs::MetricsRegistry metrics;
  SweepFixture fx(&metrics);
  if (!fx.ok) return;
  hdfs::MiniHdfs& fs = fx.fs;
  plan::PlanNode& root = fx.root;
  int64_t nrows = fx.nrows;

  const size_t sizes[] = {1, 64, 256, 1024, 4096};
  double rows_per_sec[5] = {};
  std::printf("\nvectorized scan->filter->project sweep (%lld input rows)\n",
              static_cast<long long>(nrows));
  for (int s = 0; s < 5; ++s) {
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      int64_t out_rows = 0;
      double secs = RunPipelineOnce(&fs, root, sizes[s], &out_rows);
      if (secs <= 0) return;
      best = std::max(best, static_cast<double>(nrows) / secs);
    }
    rows_per_sec[s] = best;
    std::printf("  batch %4zu: %12.0f rows/sec\n", sizes[s], best);
  }
  double speedup = rows_per_sec[0] > 0 ? rows_per_sec[3] / rows_per_sec[0] : 0;
  std::printf("  speedup batch 1024 vs 1: %.2fx\n", speedup);

  FILE* f = std::fopen("BENCH_vectorized.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_vectorized.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scan_filter_project_batch_sweep\",\n");
  std::fprintf(f, "  \"input_rows\": %lld,\n", static_cast<long long>(nrows));
  std::fprintf(f, "  \"host_cores\": %u,\n  \"build_type\": \"%s\",\n",
               std::thread::hardware_concurrency(), HAWQ_BUILD_TYPE);
  std::fprintf(f, "  \"results\": [\n");
  for (int s = 0; s < 5; ++s) {
    std::fprintf(f, "    {\"batch_size\": %zu, \"rows_per_sec\": %.0f}%s\n",
                 sizes[s], rows_per_sec[s], s + 1 < 5 ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_1024_vs_1\": %.2f,\n", speedup);
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.ToJson().c_str());
  std::fclose(f);
  std::printf("  wrote BENCH_vectorized.json\n");
}

// ------------------------------------------------- obs overhead smoke
//
// HAWQ_OBS_SMOKE=1: compare the pipeline's throughput with tracing
// disabled (ExecContext::trace == nullptr, the production default) and
// enabled, and fail if tracing costs more than 5%. Guards the
// pointer-null-check design: instrumentation must be free when off and
// cheap enough when on that EXPLAIN ANALYZE numbers stay honest.
int RunObsOverheadSmoke() {
  SweepFixture fx;
  if (!fx.ok) return 1;
  const size_t kBatch = 1024;
  const int kReps = 9;
  auto one_rep = [&](obs::QueryTrace* trace) {
    int64_t rows = 0;
    double secs = RunPipelineOnce(&fx.fs, fx.root, kBatch, &rows, trace);
    return secs > 0 ? static_cast<double>(fx.nrows) / secs : 0.0;
  };
  {
    int64_t rows = 0;  // warm the MiniHdfs block cache before timing
    (void)RunPipelineOnce(&fx.fs, fx.root, kBatch, &rows, nullptr);
  }
  // Interleave off/on reps so clock drift and CPU throttling hit both
  // sides equally; compare best-of.
  obs::QueryTrace trace(1);
  double off = 0, on = 0;
  for (int i = 0; i < kReps; ++i) {
    off = std::max(off, one_rep(nullptr));
    on = std::max(on, one_rep(&trace));
  }
  if (off <= 0 || on <= 0) return 1;
  double regression = (off - on) / off;
  std::printf("obs overhead smoke (batch %zu, best of %d):\n"
              "  tracing off: %12.0f rows/sec\n"
              "  tracing on:  %12.0f rows/sec\n"
              "  regression:  %.1f%% (limit 5%%)\n",
              kBatch, kReps, off, on, 100.0 * regression);
  if (regression > 0.05) {
    std::fprintf(stderr, "FAIL: tracing overhead exceeds 5%%\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

// ---------------------------------------- lock-profiling overhead smoke
//
// HAWQ_LOCK_SMOKE=1: compare the pipeline's throughput with the lock
// acquire-wait profiler uninstalled (observer == nullptr, one relaxed
// atomic load per acquire) and installed, and fail if profiling costs
// more than 5%. Guards the try_lock-first design: uncontended acquires —
// the overwhelming majority — must stay on the fast path, and the timed
// slow path must only ever run on real contention.
int RunLockProfileOverheadSmoke() {
  SweepFixture fx;
  if (!fx.ok) return 1;
  const size_t kBatch = 1024;
  const int kReps = 9;
  auto one_rep = [&] {
    int64_t rows = 0;
    double secs = RunPipelineOnce(&fx.fs, fx.root, kBatch, &rows);
    return secs > 0 ? static_cast<double>(fx.nrows) / secs : 0.0;
  };
  {
    int64_t rows = 0;  // warm the MiniHdfs block cache before timing
    (void)RunPipelineOnce(&fx.fs, fx.root, kBatch, &rows);
  }
  // Interleave off/on reps so clock drift and CPU throttling hit both
  // sides equally; compare best-of.
  obs::MetricsRegistry profile_registry;
  double off = 0, on = 0;
  for (int i = 0; i < kReps; ++i) {
    obs::UninstallLockWaitProfiler();
    off = std::max(off, one_rep());
    obs::InstallLockWaitProfiler(&profile_registry);
    on = std::max(on, one_rep());
  }
  obs::UninstallLockWaitProfiler();
  if (off <= 0 || on <= 0) return 1;
  double regression = (off - on) / off;
  std::printf("lock profiling overhead smoke (batch %zu, best of %d):\n"
              "  profiler off: %12.0f rows/sec\n"
              "  profiler on:  %12.0f rows/sec\n"
              "  regression:   %.1f%% (limit 5%%)\n",
              kBatch, kReps, off, on, 100.0 * regression);
  if (regression > 0.05) {
    std::fprintf(stderr, "FAIL: lock profiling overhead exceeds 5%%\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

// ------------------------------------------------ data-skipping sweep
//
// Selective-scan and selective-join sweeps at selectivity 0.001 / 0.01 /
// 0.1 / 1.0, with the data-skipping layer (zone maps + join runtime
// filters) on vs off, writing BENCH_runtime_filters.json.
//
// fact(k, v) is loaded in ascending-k batches, so each storage block's
// zone map covers a tight key range; dim_<i> holds the first
// round(n * selectivity) keys. The scan query carries a range predicate
// (zone maps skip whole blocks); the join query probes fact against dim
// (the build-side bloom drops non-matching rows batch-wise at the scan).

struct RfFixture {
  RfFixture(bool skipping_on, int64_t nrows,
            const std::vector<int64_t>& cutoffs) {
    engine::ClusterOptions o;
    o.num_segments = bench::EnvInt("HAWQ_BENCH_SEGMENTS", 4);
    o.fault_detector_thread = false;
    o.enable_zone_maps = skipping_on;
    o.enable_runtime_filters = skipping_on;
    cluster = std::make_unique<engine::Cluster>(o);
    session = cluster->Connect();
    if (!Exec("CREATE TABLE fact (k INT8, v DOUBLE) DISTRIBUTED BY (k)")) {
      return;
    }
    for (int64_t base = 0; base < nrows; base += 1000) {
      std::string sql = "INSERT INTO fact VALUES ";
      int64_t end = std::min<int64_t>(base + 1000, nrows);
      for (int64_t k = base; k < end; ++k) {
        if (k != base) sql += ", ";
        sql += "(" + std::to_string(k) + ", " + std::to_string(k) + ".5)";
      }
      if (!Exec(sql)) return;
    }
    for (size_t i = 0; i < cutoffs.size(); ++i) {
      std::string dim = "dim_" + std::to_string(i);
      if (!Exec("CREATE TABLE " + dim + " (k INT8) DISTRIBUTED BY (k)") ||
          !Exec("INSERT INTO " + dim + " SELECT k FROM fact WHERE k < " +
                std::to_string(cutoffs[i])) ||
          !Exec("ANALYZE " + dim)) {
        return;
      }
    }
    ok = Exec("ANALYZE fact");
  }

  bool Exec(const std::string& sql) {
    auto r = session->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "rf bench: %.60s... -> %s\n", sql.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    return true;
  }

  /// Best-of-`reps` wall time; every run's answer is checked against the
  /// golden (count, sum) so a skipping bug can never "win" the bench.
  double BestMs(const std::string& sql, int reps, int64_t want_count,
                double want_sum) {
    double best = 1e30;
    for (int i = 0; i < reps; ++i) {
      engine::QueryResult res;
      double ms = bench::TimeMs([&] {
        auto r = session->Execute(sql);
        if (r.ok()) res = std::move(*r);
      });
      if (res.rows.size() != 1 || res.rows[0][0].as_int() != want_count ||
          std::abs(res.rows[0][1].as_double() - want_sum) > 1e-6) {
        std::fprintf(stderr, "rf bench: wrong answer for %s\n", sql.c_str());
        return -1;
      }
      best = std::min(best, ms);
    }
    return best;
  }

  std::unique_ptr<engine::Cluster> cluster;
  std::unique_ptr<engine::Session> session;
  bool ok = false;
};

/// Sum of v = k + 0.5 over k in [0, cutoff).
double RfGoldenSum(int64_t cutoff) {
  return static_cast<double>(cutoff) * (cutoff - 1) / 2.0 + 0.5 * cutoff;
}

int RunRuntimeFilterSweep(bool smoke) {
  const int64_t nrows =
      bench::EnvInt("HAWQ_RF_ROWS", smoke ? 40000 : 60000);
  const std::vector<double> sels =
      smoke ? std::vector<double>{0.001}
            : std::vector<double>{0.001, 0.01, 0.1, 1.0};
  std::vector<int64_t> cutoffs;
  for (double s : sels) {
    cutoffs.push_back(std::max<int64_t>(1, static_cast<int64_t>(nrows * s)));
  }
  const int reps = smoke ? 3 : 5;

  std::printf("data-skipping sweep: %lld rows, skipping on vs off\n",
              static_cast<long long>(nrows));
  RfFixture on(true, nrows, cutoffs), off(false, nrows, cutoffs);
  if (!on.ok || !off.ok) return 1;

  struct Cell {
    double sel;
    double scan_off, scan_on, join_off, join_on;
  };
  std::vector<Cell> cells;
  for (size_t i = 0; i < sels.size(); ++i) {
    int64_t cutoff = cutoffs[i];
    std::string scan_q = "SELECT count(*), sum(v) FROM fact WHERE k < " +
                         std::to_string(cutoff);
    std::string join_q = "SELECT count(*), sum(f.v) FROM fact f, dim_" +
                         std::to_string(i) + " d WHERE f.k = d.k";
    double want_sum = RfGoldenSum(cutoff);
    Cell c;
    c.sel = sels[i];
    // Warm both block caches, then interleave off/on best-of reps.
    if (off.BestMs(scan_q, 1, cutoff, want_sum) < 0 ||
        on.BestMs(scan_q, 1, cutoff, want_sum) < 0) {
      return 1;
    }
    c.scan_off = off.BestMs(scan_q, reps, cutoff, want_sum);
    c.scan_on = on.BestMs(scan_q, reps, cutoff, want_sum);
    c.join_off = off.BestMs(join_q, reps, cutoff, want_sum);
    c.join_on = on.BestMs(join_q, reps, cutoff, want_sum);
    if (c.scan_off < 0 || c.scan_on < 0 || c.join_off < 0 || c.join_on < 0) {
      return 1;
    }
    std::printf(
        "  sel %6.3f: scan %7.2fms -> %7.2fms (%4.1fx)   "
        "join %7.2fms -> %7.2fms (%4.1fx)\n",
        c.sel, c.scan_off, c.scan_on, c.scan_off / c.scan_on, c.join_off,
        c.join_on, c.join_off / c.join_on);
    cells.push_back(c);
  }

  auto counter = [&](const char* name) {
    return on.cluster->metrics()->GetCounter(name)->Get();
  };
  uint64_t blocks_skipped = counter("scan.blocks_skipped_zonemap");
  uint64_t rows_filtered = counter("scan.rows_filtered_bloom");
  std::printf("  on-cluster totals: blocks_skipped_zonemap=%llu "
              "rows_filtered_bloom=%llu\n",
              static_cast<unsigned long long>(blocks_skipped),
              static_cast<unsigned long long>(rows_filtered));

  if (smoke) {
    // check.sh acceptance: the 0.001-selectivity join must speed up >= 2x
    // with the skipping layer on, and both skip paths must have fired.
    double speedup = cells[0].join_off / cells[0].join_on;
    if (speedup < 2.0 || blocks_skipped == 0 || rows_filtered == 0) {
      std::fprintf(stderr,
                   "FAIL: selective-join speedup %.2fx < 2x (skipped=%llu "
                   "filtered=%llu)\n",
                   speedup, static_cast<unsigned long long>(blocks_skipped),
                   static_cast<unsigned long long>(rows_filtered));
      return 1;
    }
    std::printf("OK (join speedup %.2fx)\n", speedup);
    return 0;
  }

  FILE* f = std::fopen("BENCH_runtime_filters.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_runtime_filters.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"runtime_filters\",\n");
  std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(nrows));
  std::fprintf(f, "  \"segments\": %d,\n",
               bench::EnvInt("HAWQ_BENCH_SEGMENTS", 4));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"selectivity\": %g, \"scan_off_ms\": %.3f, \"scan_on_ms\": "
        "%.3f, \"scan_speedup\": %.2f, \"join_off_ms\": %.3f, "
        "\"join_on_ms\": %.3f, \"join_speedup\": %.2f}%s\n",
        c.sel, c.scan_off, c.scan_on, c.scan_off / c.scan_on, c.join_off,
        c.join_on, c.join_off / c.join_on,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"on_cluster\": {\"blocks_skipped_zonemap\": %llu, "
               "\"rows_skipped_zonemap\": %llu, \"bytes_skipped_zonemap\": "
               "%llu, \"rows_filtered_bloom\": %llu}\n}\n",
               static_cast<unsigned long long>(blocks_skipped),
               static_cast<unsigned long long>(
                   counter("scan.rows_skipped_zonemap")),
               static_cast<unsigned long long>(
                   counter("scan.bytes_skipped_zonemap")),
               static_cast<unsigned long long>(rows_filtered));
  std::fclose(f);
  std::printf("  wrote BENCH_runtime_filters.json\n");
  return 0;
}


// HAWQ_CONC_SWEEP=1: concurrency sweep over the resource manager
// (ISSUE 8) — N = 1/4/16/64 clients split across two resource queues
// ("interactive": roomy + high priority; "batch": a 1 MB quota that
// forces its join build sides to spill), writing BENCH_concurrency.json
// with throughput, p50/p99 latency, peak tracked memory, and spill
// volume per client count. A fresh cluster per N keeps the peak and
// spill figures per-point. Fails if 16 clients are not faster than 1 or
// if tracked memory ever overshoots the cluster budget.

struct ConcFixture {
  explicit ConcFixture(int64_t nrows) {
    engine::ClusterOptions o;
    o.num_segments = bench::EnvInt("HAWQ_BENCH_SEGMENTS", 4);
    o.fault_detector_thread = false;
    o.cluster_mem_budget = 256LL << 20;
    resource::QueueOptions interactive;
    interactive.name = "interactive";
    interactive.priority = 10;
    interactive.per_query_mem_bytes = 32LL << 20;
    interactive.max_active = 16;
    interactive.wait_timeout_us = 60'000'000;
    resource::QueueOptions batch;
    batch.name = "batch";
    batch.per_query_mem_bytes = 1 << 20;  // joins must spill
    batch.max_active = 8;
    batch.wait_timeout_us = 60'000'000;
    o.resource_queues = {interactive, batch};
    budget = o.cluster_mem_budget;
    cluster = std::make_unique<engine::Cluster>(o);
    auto s = cluster->Connect();
    auto exec = [&](const std::string& sql) {
      auto r = s->Execute(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "conc bench: %.60s... -> %s\n", sql.c_str(),
                     r.status().ToString().c_str());
        return false;
      }
      return true;
    };
    if (!exec("CREATE TABLE fact (k INT8, v DOUBLE) DISTRIBUTED BY (k)")) {
      return;
    }
    for (int64_t base = 0; base < nrows; base += 1000) {
      std::string sql = "INSERT INTO fact VALUES ";
      int64_t end = std::min<int64_t>(base + 1000, nrows);
      for (int64_t k = base; k < end; ++k) {
        if (k != base) sql += ", ";
        sql += "(" + std::to_string(k) + ", " + std::to_string(k) + ".5)";
      }
      if (!exec(sql)) return;
    }
    ok = exec("CREATE TABLE dim (k INT8) DISTRIBUTED BY (k)") &&
         exec("INSERT INTO dim SELECT k FROM fact WHERE k < 400") &&
         exec("ANALYZE fact") && exec("ANALYZE dim");
  }
  std::unique_ptr<engine::Cluster> cluster;
  int64_t budget = 0;
  bool ok = false;
};

int RunConcurrencySweep() {
  const int64_t nrows = bench::EnvInt("HAWQ_CONC_ROWS", 8000);
  const int kUnits = bench::EnvInt("HAWQ_CONC_UNITS", 64);
  const std::vector<int> kClients = {1, 4, 16, 64};
  // One work unit = a selective aggregate on the interactive queue plus
  // a spilling hash join on the batch queue.
  const std::string agg_q =
      "SELECT count(*), sum(v) FROM fact WHERE k < 1000";
  const std::string join_q =
      "SELECT count(*), sum(f.v) FROM fact f, dim d WHERE f.k = d.k";

  struct Point {
    int clients;
    double elapsed_ms, qps, p50_ms, p99_ms;
    int64_t peak_bytes;
    uint64_t spill_bytes, rejected;
    int failures;
  };
  std::vector<Point> points;

  std::printf("concurrency sweep: %lld rows, %d units per point\n",
              static_cast<long long>(nrows), kUnits);
  for (int n : kClients) {
    ConcFixture fx(nrows);
    if (!fx.ok) return 1;
    std::vector<std::vector<double>> lat(static_cast<size_t>(n));
    std::atomic<int> next_unit{0};
    std::atomic<int> failures{0};
    auto worker = [&](int id) {
      auto s = fx.cluster->Connect();
      for (int u = next_unit.fetch_add(1); u < kUnits;
           u = next_unit.fetch_add(1)) {
        for (const auto& [queue, sql] :
             {std::pair<const char*, const std::string&>{"interactive",
                                                         agg_q},
              std::pair<const char*, const std::string&>{"batch", join_q}}) {
          s->SetResourceQueue(queue);
          double ms = bench::TimeMs([&] {
            auto r = s->Execute(sql);
            if (!r.ok()) {
              std::fprintf(stderr, "conc bench [%s]: %s\n", queue,
                           r.status().ToString().c_str());
              failures.fetch_add(1);
            }
          });
          lat[static_cast<size_t>(id)].push_back(ms);
        }
      }
    };
    std::vector<std::thread> threads;
    double elapsed = bench::TimeMs([&] {
      for (int i = 0; i < n; ++i) threads.emplace_back(worker, i);
      for (auto& t : threads) t.join();
    });

    std::vector<double> all;
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    auto pct = [&](double q) {
      if (all.empty()) return 0.0;
      return all[static_cast<size_t>(q * (all.size() - 1))];
    };
    uint64_t rejected = 0;
    for (const auto& qs : fx.cluster->admission()->Snapshot()) {
      rejected += qs.rejected;
    }
    Point pt;
    pt.clients = n;
    pt.elapsed_ms = elapsed;
    pt.qps = all.empty() ? 0 : 1000.0 * static_cast<double>(all.size()) /
                                   elapsed;
    pt.p50_ms = pct(0.50);
    pt.p99_ms = pct(0.99);
    pt.peak_bytes = fx.cluster->mem_tracker()->peak();
    pt.spill_bytes = fx.cluster->TotalSpillBytes();
    pt.rejected = rejected;
    pt.failures = failures.load();
    std::printf(
        "  N=%-3d %8.1fms  %7.1f q/s  p50 %6.2fms  p99 %7.2fms  "
        "peak %6.2f MB  spill %6.2f MB\n",
        pt.clients, pt.elapsed_ms, pt.qps, pt.p50_ms, pt.p99_ms,
        static_cast<double>(pt.peak_bytes) / (1 << 20),
        static_cast<double>(pt.spill_bytes) / (1 << 20));
    if (pt.failures > 0) {
      std::fprintf(stderr, "FAIL: %d queries failed at N=%d\n", pt.failures,
                   n);
      return 1;
    }
    if (pt.peak_bytes > fx.budget) {
      std::fprintf(stderr,
                   "FAIL: peak tracked bytes %lld exceed the cluster "
                   "budget %lld at N=%d\n",
                   static_cast<long long>(pt.peak_bytes),
                   static_cast<long long>(fx.budget), n);
      return 1;
    }
    points.push_back(pt);
  }

  double qps1 = points[0].qps, qps16 = points[2].qps;
  if (qps16 <= qps1) {
    std::fprintf(stderr,
                 "FAIL: throughput does not scale: %.1f q/s at 1 client vs "
                 "%.1f q/s at 16\n",
                 qps1, qps16);
    return 1;
  }
  std::printf("  scaling 1 -> 16 clients: %.2fx\n", qps16 / qps1);

  FILE* f = std::fopen("BENCH_concurrency.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_concurrency.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"concurrency\",\n");
  std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(nrows));
  std::fprintf(f, "  \"units\": %d,\n", kUnits);
  std::fprintf(f, "  \"segments\": %d,\n",
               bench::EnvInt("HAWQ_BENCH_SEGMENTS", 4));
  std::fprintf(f, "  \"cluster_mem_budget\": %lld,\n", 256LL << 20);
  std::fprintf(f, "  \"queues\": [{\"name\": \"interactive\", "
                  "\"per_query_mem_bytes\": 33554432, \"priority\": 10}, "
                  "{\"name\": \"batch\", \"per_query_mem_bytes\": 1048576, "
                  "\"priority\": 0}],\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(
        f,
        "    {\"clients\": %d, \"elapsed_ms\": %.1f, \"throughput_qps\": "
        "%.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"peak_tracked_bytes\": "
        "%lld, \"spill_bytes\": %llu, \"rejected\": %llu}%s\n",
        p.clients, p.elapsed_ms, p.qps, p.p50_ms, p.p99_ms,
        static_cast<long long>(p.peak_bytes),
        static_cast<unsigned long long>(p.spill_bytes),
        static_cast<unsigned long long>(p.rejected),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"scaling_1_to_16\": %.2f\n}\n", qps16 / qps1);
  std::fclose(f);
  std::printf("  wrote BENCH_concurrency.json\n");
  return 0;
}

// --------------------------------------- live-introspection overhead
//
// HAWQ_OBS_OVERHEAD=1: whole-cluster overhead of the live-introspection
// stack (ISSUE 9) — activity registry + forced tracing + per-operator
// memory mirrors + the sampling profiler thread — measured end to end
// through Session::Execute against a cluster with all of it disabled.
// Unlike HAWQ_OBS_SMOKE (bare pipeline, tracing wrappers only), this
// pays the real costs: registry updates per statement, SetMirror
// atomics per reserve/release, ProfCell stamps per operator call, and
// the sampler thread competing for cores. Writes
// BENCH_obs_overhead.json and fails if the regression exceeds 5%.

struct ObsOverheadFixture {
  ObsOverheadFixture(bool obs_on, int64_t nrows) {
    engine::ClusterOptions o;
    o.num_segments = bench::EnvInt("HAWQ_BENCH_SEGMENTS", 4);
    o.fault_detector_thread = false;
    o.enable_activity = obs_on && bench::EnvInt("HAWQ_OBS_ACT", 1) != 0;
    o.enable_profiler = obs_on && bench::EnvInt("HAWQ_OBS_PROF", 1) != 0;
    cluster = std::make_unique<engine::Cluster>(o);
    session = cluster->Connect();
    auto exec = [&](const std::string& sql) {
      auto r = session->Execute(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "obs overhead bench: %.60s... -> %s\n",
                     sql.c_str(), r.status().ToString().c_str());
        return false;
      }
      return true;
    };
    if (!exec("CREATE TABLE fact (k INT8, v DOUBLE) DISTRIBUTED BY (k)")) {
      return;
    }
    for (int64_t base = 0; base < nrows; base += 1000) {
      std::string sql = "INSERT INTO fact VALUES ";
      int64_t end = std::min<int64_t>(base + 1000, nrows);
      for (int64_t k = base; k < end; ++k) {
        if (k != base) sql += ", ";
        sql += "(" + std::to_string(k) + ", " + std::to_string(k) + ".5)";
      }
      if (!exec(sql)) return;
    }
    ok = exec("CREATE TABLE dim (k INT8) DISTRIBUTED BY (k)") &&
         exec("INSERT INTO dim SELECT k FROM fact WHERE k < 400") &&
         exec("ANALYZE fact") && exec("ANALYZE dim");
  }
  std::unique_ptr<engine::Cluster> cluster;
  std::unique_ptr<engine::Session> session;
  bool ok = false;
};

int RunObsIntrospectionOverhead() {
  const int64_t nrows = bench::EnvInt("HAWQ_OBS_ROWS", 6000);
  // Queries here are ~2ms, so a rep must bundle enough of them that
  // scheduler noise does not swamp the per-query setup cost this bench
  // exists to measure: short bursts showed +-10% run-to-run swings,
  // ~0.3s reps bring the spread under 3%.
  const int kReps = bench::EnvInt("HAWQ_OBS_REPS", 5);
  const int kQueriesPerRep = bench::EnvInt("HAWQ_OBS_QUERIES", 120);
  const std::vector<std::string> queries = {
      "SELECT count(*), sum(v) FROM fact WHERE k < 1000",
      "SELECT count(*), sum(f.v) FROM fact f, dim d WHERE f.k = d.k",
  };

  std::printf("live-introspection overhead: %lld rows, best of %d reps "
              "(%d queries each)\n",
              static_cast<long long>(nrows), kReps, kQueriesPerRep);
  ObsOverheadFixture off_fx(false, nrows);
  ObsOverheadFixture on_fx(true, nrows);
  if (!off_fx.ok || !on_fx.ok) return 1;

  auto one_rep = [&](ObsOverheadFixture& fx) {
    int n = 0;
    double ms = bench::TimeMs([&] {
      for (int q = 0; q < kQueriesPerRep; ++q) {
        auto r = fx.session->Execute(queries[q % queries.size()]);
        if (r.ok()) ++n;
      }
    });
    return ms > 0 ? 1000.0 * n / ms : 0.0;
  };
  (void)one_rep(off_fx);  // warm caches on both clusters before timing
  (void)one_rep(on_fx);
  // Interleave off/on reps so clock drift and CPU throttling hit both
  // sides equally; compare best-of.
  double off = 0, on = 0;
  for (int i = 0; i < kReps; ++i) {
    off = std::max(off, one_rep(off_fx));
    on = std::max(on, one_rep(on_fx));
  }
  if (off <= 0 || on <= 0) return 1;
  double regression = (off - on) / off;
  std::printf("  introspection off: %8.1f q/s\n"
              "  introspection on:  %8.1f q/s\n"
              "  regression:        %.1f%% (limit 5%%)\n",
              off, on, 100.0 * regression);

  FILE* f = std::fopen("BENCH_obs_overhead.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_obs_overhead.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"obs_overhead\",\n");
  std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(nrows));
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"queries_per_rep\": %d,\n", kQueriesPerRep);
  std::fprintf(f, "  \"segments\": %d,\n",
               bench::EnvInt("HAWQ_BENCH_SEGMENTS", 4));
  std::fprintf(f, "  \"off_qps\": %.2f,\n", off);
  std::fprintf(f, "  \"on_qps\": %.2f,\n", on);
  std::fprintf(f, "  \"regression\": %.4f,\n", regression);
  std::fprintf(f, "  \"limit\": 0.05\n}\n");
  std::fclose(f);
  std::printf("  wrote BENCH_obs_overhead.json\n");

  if (regression > 0.05) {
    std::fprintf(stderr,
                 "FAIL: live-introspection overhead exceeds 5%%\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace hawq

int main(int argc, char** argv) {
  if (const char* e = std::getenv("HAWQ_OBS_SMOKE"); e && *e && *e != '0') {
    return hawq::RunObsOverheadSmoke();
  }
  if (const char* e = std::getenv("HAWQ_OBS_OVERHEAD"); e && *e && *e != '0') {
    return hawq::RunObsIntrospectionOverhead();
  }
  if (const char* e = std::getenv("HAWQ_LOCK_SMOKE"); e && *e && *e != '0') {
    return hawq::RunLockProfileOverheadSmoke();
  }
  if (const char* e = std::getenv("HAWQ_RF_SMOKE"); e && *e && *e != '0') {
    return hawq::RunRuntimeFilterSweep(/*smoke=*/true);
  }
  if (const char* e = std::getenv("HAWQ_RF_SWEEP"); e && *e && *e != '0') {
    return hawq::RunRuntimeFilterSweep(/*smoke=*/false);
  }
  if (const char* e = std::getenv("HAWQ_CONC_SWEEP"); e && *e && *e != '0') {
    return hawq::RunConcurrencySweep();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  hawq::RunVectorizedSweep();
  if (int rc = hawq::RunRuntimeFilterSweep(/*smoke=*/false); rc != 0) {
    return rc;
  }
  return hawq::RunConcurrencySweep();
}
