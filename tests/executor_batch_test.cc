// Vectorized-executor tests: batch-size invariance of every operator
// (the same plan drained at capacities 1, 3 and 1024 yields the same
// rows), selection-vector filtering under SQL 3VL (NULLs), EvalBatch vs.
// per-row Eval, and batch boundaries at 0 / 1 / capacity / capacity+1
// rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>

#include "common/serde.h"
#include "executor/exec_node.h"
#include "executor/runtime_filter.h"
#include "hdfs/hdfs.h"
#include "planner/plan_node.h"
#include "storage/format.h"

namespace hawq::exec {
namespace {

using plan::AggPhase;
using plan::NodeKind;
using plan::PlanNode;
using sql::AggSpec;
using sql::PExpr;

std::unique_ptr<PlanNode> RowsNode(std::vector<Row> rows, int arity) {
  auto n = std::make_unique<PlanNode>();
  n->kind = NodeKind::kResult;
  n->rows = std::move(rows);
  n->out_arity = arity;
  return n;
}

ExecContext MakeCtx(LocalDisk* disk, size_t batch_size = kDefaultBatchRows) {
  ExecContext ctx;
  ctx.segment = 0;
  ctx.local_disk = disk;
  ctx.batch_size = batch_size;
  return ctx;
}

/// Drain through the batch interface.
std::vector<Row> DrainBatches(ExecNode* node, size_t batch_size) {
  std::vector<Row> out;
  EXPECT_TRUE(node->Open().ok());
  RowBatch batch(batch_size);
  while (true) {
    auto more = node->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    EXPECT_GT(batch.size(), 0u) << "NextBatch returned true with empty batch";
    EXPECT_LE(batch.num_rows(), batch.capacity());
    for (size_t i = 0; i < batch.size(); ++i) {
      out.push_back(batch.selected(i));
    }
  }
  EXPECT_TRUE(node->Close().ok());
  return out;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].is_null() != b[i][c].is_null()) return false;
      if (Datum::Compare(a[i][c], b[i][c]) != 0) return false;
    }
  }
  return true;
}

/// Build a fresh copy of the plan per batch capacity and drain it; every
/// capacity must yield exactly the same rows in the same order, so no
/// operator's output depends on where batch boundaries fall. With
/// `mem_limit` > 0 each drain runs under a query budget of that many
/// bytes, and `*spilled` gets the fewest spill bytes any drain wrote;
/// spill scratch must be drained afterwards either way.
template <typename MakeFn>
std::vector<Row> ExpectBatchSizeInvariant(MakeFn make, int64_t mem_limit = 0,
                                          uint64_t* spilled = nullptr) {
  std::vector<Row> first;
  if (spilled != nullptr) *spilled = UINT64_MAX;
  for (size_t cap : {size_t{1}, size_t{3}, size_t{1024}}) {
    LocalDisk disk;
    ExecContext ctx = MakeCtx(&disk, cap);
    std::unique_ptr<resource::MemoryTracker> budget;
    if (mem_limit > 0) {
      budget = std::make_unique<resource::MemoryTracker>("test", mem_limit);
      ctx.mem = budget.get();
    }
    auto plan = make();
    auto e = BuildExecNode(*plan, &ctx);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    if (!e.ok()) return {};
    std::vector<Row> rows = DrainBatches(e->get(), cap);
    e->reset();
    EXPECT_EQ(disk.file_count(), 0u) << "spill files leaked at cap " << cap;
    if (spilled != nullptr) {
      *spilled = std::min(*spilled, disk.bytes_written());
    }
    if (cap == 1) {
      first = std::move(rows);
    } else {
      EXPECT_TRUE(SameRows(first, rows))
          << "cap 1: " << first.size() << " rows, cap " << cap << ": "
          << rows.size() << " rows";
    }
  }
  return first;
}

std::vector<Row> MixedInput(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Datum v = (i % 7 == 3) ? Datum::Null() : Datum::Int(i);
    rows.push_back({Datum::Int(i % 5), v, Datum::Double(i * 0.5)});
  }
  return rows;
}

PExpr GtConst(int col, int64_t c) {
  return PExpr::Binary(PExpr::Op::kGt, PExpr::Col(col, TypeId::kInt64),
                       PExpr::Const(Datum::Int(c), TypeId::kInt64),
                       TypeId::kBool);
}

// ---------------------------------------------------- batch-size invariance

TEST(BatchSizeInvarianceTest, Filter) {
  auto rows = ExpectBatchSizeInvariant([] {
    auto n = std::make_unique<PlanNode>();
    n->kind = NodeKind::kFilter;
    n->out_arity = 3;
    n->quals.push_back(GtConst(1, 30));
    n->children.push_back(RowsNode(MixedInput(100), 3));
    return n;
  });
  EXPECT_EQ(rows.size(), 59u);  // 31..99 minus the NULLs at i % 7 == 3
}

TEST(BatchSizeInvarianceTest, Project) {
  auto rows = ExpectBatchSizeInvariant([] {
    auto n = std::make_unique<PlanNode>();
    n->kind = NodeKind::kProject;
    n->out_arity = 2;
    n->exprs.push_back(PExpr::Binary(
        PExpr::Op::kMul, PExpr::Col(1, TypeId::kInt64),
        PExpr::Const(Datum::Int(3), TypeId::kInt64), TypeId::kInt64));
    n->exprs.push_back(PExpr::Col(2, TypeId::kDouble));
    n->children.push_back(RowsNode(MixedInput(100), 3));
    return n;
  });
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[11][0].as_int(), 33);
  EXPECT_TRUE(rows[3][0].is_null());
}

TEST(BatchSizeInvarianceTest, HashAgg) {
  auto rows = ExpectBatchSizeInvariant([] {
    auto n = std::make_unique<PlanNode>();
    n->kind = NodeKind::kHashAgg;
    n->phase = AggPhase::kSingle;
    n->group_exprs = {PExpr::Col(0, TypeId::kInt64)};
    AggSpec sum;
    sum.kind = AggSpec::Kind::kSum;
    sum.arg = PExpr::Col(1, TypeId::kInt64);
    AggSpec cnt;
    cnt.kind = AggSpec::Kind::kCount;
    cnt.count_star = true;
    n->aggs = {sum, cnt};
    n->out_arity = 3;
    n->children.push_back(RowsNode(MixedInput(100), 3));
    return n;
  });
  ASSERT_EQ(rows.size(), 5u);
  for (const Row& r : rows) EXPECT_EQ(r[2].as_int(), 20);
}

TEST(BatchSizeInvarianceTest, SortAndLimit) {
  auto rows = ExpectBatchSizeInvariant([] {
    auto limit = std::make_unique<PlanNode>();
    limit->kind = NodeKind::kLimit;
    limit->limit = 17;
    limit->out_arity = 3;
    auto sort = std::make_unique<PlanNode>();
    sort->kind = NodeKind::kSort;
    sort->sort_keys = {{1, true}};
    sort->out_arity = 3;
    sort->children.push_back(RowsNode(MixedInput(60), 3));
    limit->children.push_back(std::move(sort));
    return limit;
  });
  ASSERT_EQ(rows.size(), 17u);
}

/// Limit over a filter: the cut lands inside a batch whose selection
/// vector is already sparse, so only the selection may be trimmed.
std::unique_ptr<PlanNode> LimitOverFilter(int64_t limit) {
  auto filter = std::make_unique<PlanNode>();
  filter->kind = NodeKind::kFilter;
  filter->out_arity = 3;
  filter->quals.push_back(GtConst(1, 30));
  filter->children.push_back(RowsNode(MixedInput(100), 3));
  auto n = std::make_unique<PlanNode>();
  n->kind = NodeKind::kLimit;
  n->limit = limit;
  n->out_arity = 3;
  n->children.push_back(std::move(filter));
  return n;
}

TEST(BatchSizeInvarianceTest, LimitCutsInsideABatch) {
  auto rows = ExpectBatchSizeInvariant([] { return LimitOverFilter(5); });
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1].as_int(), 32);  // 31 is a NULL (31 % 7 == 3)
  EXPECT_EQ(rows[4][1].as_int(), 36);
}

TEST(BatchSizeInvarianceTest, LimitZero) {
  auto rows = ExpectBatchSizeInvariant([] { return LimitOverFilter(0); });
  EXPECT_TRUE(rows.empty());
}

// Wide join layout: [probe_key, probe_val, build_key, build_val]. Key 7
// has kHotBuildRows build rows, more than the largest capacity, so its
// matches straddle output batches. NULL keys appear on both sides.
constexpr int kHotBuildRows = 1500;

std::unique_ptr<PlanNode> JoinPlan(plan::JoinType type) {
  std::vector<Row> probe, build;
  for (int i = 0; i < 40; ++i) {
    Datum k = (i % 9 == 4) ? Datum::Null() : Datum::Int(i % 13);
    probe.push_back({k, Datum::Int(i), Datum::Null(), Datum::Null()});
  }
  for (int i = 0; i < kHotBuildRows; ++i) {
    build.push_back(
        {Datum::Null(), Datum::Null(), Datum::Int(7), Datum::Int(i)});
  }
  for (int k = 0; k < 13; k += 3) {
    build.push_back(
        {Datum::Null(), Datum::Null(), Datum::Int(k), Datum::Int(-k)});
  }
  build.push_back({Datum::Null(), Datum::Null(), Datum::Null(),
                   Datum::Int(99)});
  auto n = std::make_unique<PlanNode>();
  n->kind = NodeKind::kHashJoin;
  n->join_type = type;
  n->out_arity = 4;
  n->probe_keys = {PExpr::Col(0, TypeId::kInt64)};
  n->build_keys = {PExpr::Col(2, TypeId::kInt64)};
  n->build_cols = {2, 3};
  n->children.push_back(RowsNode(std::move(probe), 4));
  n->children.push_back(RowsNode(std::move(build), 4));
  return n;
}

// Probe rows (i in 0..39): key NULL when i % 9 == 4 (i = 4, 13, 22, 31),
// otherwise i % 13. Build keys: 0, 3, 6, 9, 12 once each and 7 hot.
// Key 7 comes from i = 7, 20, 33; the once-matching keys from
// i % 13 in {0, 3, 6, 9, 12} minus the NULL rows: 0, 3, 6, 9, 12, 16,
// 19, 25, 26, 29, 32, 35, 38, 39 (14 rows).
constexpr size_t kHotProbeRows = 3;
constexpr size_t kOnceProbeRows = 14;
constexpr size_t kProbeRows = 40;

struct JoinCase {
  plan::JoinType type;
  size_t expect_rows;
};

const JoinCase kJoinCases[] = {
    {plan::JoinType::kInner, kHotProbeRows * kHotBuildRows + kOnceProbeRows},
    {plan::JoinType::kLeft, kHotProbeRows * kHotBuildRows + kProbeRows -
                                kHotProbeRows},
    {plan::JoinType::kSemi, kHotProbeRows + kOnceProbeRows},
    {plan::JoinType::kAnti, kProbeRows - kHotProbeRows - kOnceProbeRows},
};

TEST(BatchSizeInvarianceTest, HashJoinMatchesStraddleBatches) {
  for (const JoinCase& c : kJoinCases) {
    SCOPED_TRACE(static_cast<int>(c.type));
    auto rows = ExpectBatchSizeInvariant([&] { return JoinPlan(c.type); });
    EXPECT_EQ(rows.size(), c.expect_rows);
  }
}

TEST(BatchSizeInvarianceTest, GraceSpilledHashJoin) {
  // A budget of a few build rows forces the grace path: the build side
  // spills to partitions, the probe side is partitioned after it, and
  // the hot key's partition recurses to the terminal depth.
  for (const JoinCase& c : kJoinCases) {
    if (c.type == plan::JoinType::kSemi) continue;
    SCOPED_TRACE(static_cast<int>(c.type));
    uint64_t spilled = 0;
    auto rows = ExpectBatchSizeInvariant([&] { return JoinPlan(c.type); },
                                         /*mem_limit=*/4096, &spilled);
    EXPECT_EQ(rows.size(), c.expect_rows);
    EXPECT_GT(spilled, 0u) << "a drain never spilled";
  }
}

// ---------------------------------------------------- 3VL selection vector

TEST(SelectionVectorTest, NullPredicateFiltersRow) {
  // col1 > 30 over inputs with NULL col1: NULL comparisons are NULL,
  // which must behave as false in WHERE (the row is dropped).
  std::vector<Row> input = {{Datum::Int(0), Datum::Int(50)},
                            {Datum::Int(1), Datum::Null()},
                            {Datum::Int(2), Datum::Int(10)},
                            {Datum::Int(3), Datum::Int(31)}};
  auto n = std::make_unique<PlanNode>();
  n->kind = NodeKind::kFilter;
  n->out_arity = 2;
  n->quals.push_back(GtConst(1, 30));
  n->children.push_back(RowsNode(std::move(input), 2));
  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk, 4);
  auto e = BuildExecNode(*n, &ctx);
  ASSERT_TRUE(e.ok());
  auto rows = DrainBatches(e->get(), 4);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].as_int(), 0);
  EXPECT_EQ(rows[1][0].as_int(), 3);
}

TEST(SelectionVectorTest, FilterBatchMatchesEvalBool) {
  // FilterBatch must drop exactly the rows EvalBool drops, for predicates
  // exercising every 3VL combination of AND/OR/NOT/IS NULL.
  std::vector<PExpr> preds;
  PExpr a = GtConst(0, 2);
  PExpr b = GtConst(1, 5);
  preds.push_back(PExpr::Binary(PExpr::Op::kAnd, a, b, TypeId::kBool));
  preds.push_back(PExpr::Binary(PExpr::Op::kOr, a, b, TypeId::kBool));
  {
    PExpr n;
    n.op = PExpr::Op::kNot;
    n.out_type = TypeId::kBool;
    n.children.push_back(a);
    preds.push_back(std::move(n));
  }
  {
    PExpr isn;
    isn.op = PExpr::Op::kIsNull;
    isn.out_type = TypeId::kBool;
    isn.children.push_back(PExpr::Col(1, TypeId::kInt64));
    preds.push_back(std::move(isn));
  }
  std::vector<Row> input;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      Datum x = (i == 5) ? Datum::Null() : Datum::Int(i);
      Datum y = (j == 5) ? Datum::Null() : Datum::Int(j * 2);
      input.push_back({x, y});
    }
  }
  for (const PExpr& p : preds) {
    RowBatch batch(input.size());
    for (const Row& r : input) batch.PushRow(r);
    p.FilterBatch(&batch);
    std::vector<Row> expect;
    for (const Row& r : input) {
      if (p.EvalBool(r)) expect.push_back(r);
    }
    ASSERT_EQ(batch.size(), expect.size()) << p.ToString();
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_TRUE(SameRows({batch.selected(i)}, {expect[i]})) << p.ToString();
    }
  }
}

TEST(SelectionVectorTest, EvalBatchMatchesEvalPerRow) {
  // Arithmetic, comparison, CASE, IN, negation, concat — batch results
  // must equal per-row Eval, including NULL propagation.
  std::vector<PExpr> exprs;
  exprs.push_back(PExpr::Binary(PExpr::Op::kAdd, PExpr::Col(0, TypeId::kInt64),
                                PExpr::Col(1, TypeId::kInt64), TypeId::kInt64));
  exprs.push_back(PExpr::Binary(PExpr::Op::kDiv, PExpr::Col(1, TypeId::kInt64),
                                PExpr::Col(0, TypeId::kInt64), TypeId::kInt64));
  exprs.push_back(GtConst(0, 2));
  {
    PExpr neg;
    neg.op = PExpr::Op::kNeg;
    neg.out_type = TypeId::kInt64;
    neg.children.push_back(PExpr::Col(1, TypeId::kInt64));
    exprs.push_back(std::move(neg));
  }
  {
    // CASE WHEN col0 > 2 THEN col1 ELSE 0 END (per-row fallback path).
    PExpr c;
    c.op = PExpr::Op::kCase;
    c.out_type = TypeId::kInt64;
    c.children.push_back(GtConst(0, 2));
    c.children.push_back(PExpr::Col(1, TypeId::kInt64));
    c.children.push_back(PExpr::Const(Datum::Int(0), TypeId::kInt64));
    exprs.push_back(std::move(c));
  }
  {
    PExpr in;
    in.op = PExpr::Op::kIn;
    in.out_type = TypeId::kBool;
    in.children.push_back(PExpr::Col(0, TypeId::kInt64));
    in.children.push_back(PExpr::Const(Datum::Int(1), TypeId::kInt64));
    in.children.push_back(PExpr::Const(Datum::Int(4), TypeId::kInt64));
    exprs.push_back(std::move(in));
  }
  RowBatch batch(16);
  for (int i = 0; i < 6; ++i) {
    Datum x = (i == 5) ? Datum::Null() : Datum::Int(i);
    Datum y = (i == 2) ? Datum::Null() : Datum::Int(10 - i);
    batch.PushRow({x, y});
  }
  // Also exercise a non-identity selection: drop every other row.
  std::vector<uint32_t>* sel = batch.mutable_sel();
  std::vector<uint32_t> odd;
  for (size_t i = 0; i < sel->size(); i += 2) odd.push_back((*sel)[i]);
  *sel = odd;
  for (const PExpr& e : exprs) {
    std::vector<Datum> out;
    e.EvalBatch(batch, &out);
    ASSERT_EQ(out.size(), batch.size()) << e.ToString();
    for (size_t i = 0; i < batch.size(); ++i) {
      Datum expect = e.Eval(batch.selected(i));
      EXPECT_EQ(out[i].is_null(), expect.is_null()) << e.ToString();
      EXPECT_EQ(Datum::Compare(out[i], expect), 0) << e.ToString();
    }
  }
}

// ---------------------------------------------------- batch boundaries

TEST(BatchBoundaryTest, ZeroOneCapacityCapacityPlusOne) {
  const size_t cap = 8;
  for (size_t n : {size_t{0}, size_t{1}, cap, cap + 1}) {
    // filter (keep all) -> project (identity-ish) pipeline.
    auto proj = std::make_unique<PlanNode>();
    proj->kind = NodeKind::kProject;
    proj->out_arity = 1;
    proj->exprs.push_back(PExpr::Binary(
        PExpr::Op::kAdd, PExpr::Col(0, TypeId::kInt64),
        PExpr::Const(Datum::Int(1), TypeId::kInt64), TypeId::kInt64));
    auto filter = std::make_unique<PlanNode>();
    filter->kind = NodeKind::kFilter;
    filter->out_arity = 1;
    filter->quals.push_back(GtConst(0, -1));
    std::vector<Row> input;
    for (size_t i = 0; i < n; ++i) {
      input.push_back({Datum::Int(static_cast<int64_t>(i))});
    }
    filter->children.push_back(RowsNode(std::move(input), 1));
    proj->children.push_back(std::move(filter));

    LocalDisk disk;
    ExecContext ctx = MakeCtx(&disk, cap);
    auto e = BuildExecNode(*proj, &ctx);
    ASSERT_TRUE(e.ok());
    auto rows = DrainBatches(e->get(), cap);
    ASSERT_EQ(rows.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(rows[i][0].as_int(), static_cast<int64_t>(i) + 1);
    }
  }
}

TEST(BatchBoundaryTest, EmptySelectionBatchesAreSkipped) {
  // A filter that rejects whole batches must keep pulling until it finds
  // selected rows (NextBatch contract: true => at least one selected row).
  const size_t cap = 4;
  auto filter = std::make_unique<PlanNode>();
  filter->kind = NodeKind::kFilter;
  filter->out_arity = 1;
  filter->quals.push_back(GtConst(0, 93));
  std::vector<Row> input;
  for (int i = 0; i < 100; ++i) input.push_back({Datum::Int(i)});
  filter->children.push_back(RowsNode(std::move(input), 1));
  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk, cap);
  auto e = BuildExecNode(*filter, &ctx);
  ASSERT_TRUE(e.ok());
  auto rows = DrainBatches(e->get(), cap);
  ASSERT_EQ(rows.size(), 6u);  // 94..99
  EXPECT_EQ(rows[0][0].as_int(), 94);
}

// ---------------------------------------------------- runtime filters

TEST(BloomFilterTest, NeverFalseNegative) {
  BloomFilter f;
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 5000; ++i) {
    uint64_t h = HashRow({Datum::Int(i * 977 + 3)});
    f.Insert(h);
    inserted.push_back(h);
  }
  for (uint64_t h : inserted) {
    ASSERT_TRUE(f.MayContain(h)) << "bloom filters must never drop a "
                                    "key that was inserted";
  }
}

TEST(BloomFilterTest, FalsePositiveRateIsSmall) {
  BloomFilter f;
  for (int i = 0; i < 5000; ++i) f.Insert(HashRow({Datum::Int(i)}));
  int fp = 0;
  const int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    // Disjoint key space: any hit is a false positive.
    if (f.MayContain(HashRow({Datum::Int(1000000 + i)}))) ++fp;
  }
  // 5000 keys * 4 probes in 2^17 bits gives a theoretical FPR well
  // under 1%; allow slack for hash quality.
  EXPECT_LT(static_cast<double>(fp) / kProbes, 0.02)
      << fp << " false positives out of " << kProbes;
}

TEST(BloomFilterTest, MergeIsUnion) {
  BloomFilter a, b;
  uint64_t h1 = HashRow({Datum::Int(1)});
  uint64_t h2 = HashRow({Datum::Int(2)});
  a.Insert(h1);
  b.Insert(h2);
  a.Merge(b);
  EXPECT_TRUE(a.MayContain(h1));
  EXPECT_TRUE(a.MayContain(h2));
}

TEST(BloomFilterTest, SerializeRoundTrips) {
  BloomFilter f;
  for (int i = 0; i < 100; ++i) f.Insert(HashRow({Datum::Int(i * 7)}));
  BufferWriter w;
  f.Serialize(&w);
  std::string bytes = w.Release();
  BufferReader r(bytes);
  auto back = BloomFilter::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->PopCount(), f.PopCount());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(back->MayContain(HashRow({Datum::Int(i * 7)})));
  }
}

TEST(BloomFilterTest, MinMaxTracksUnionAcrossMerge) {
  BloomFilter a, b, empty;
  EXPECT_FALSE(a.has_minmax());
  a.ObserveKey(5);
  a.ObserveKey(9);
  b.ObserveKey(-3);
  b.ObserveKey(7);
  a.Merge(b);
  EXPECT_TRUE(a.has_minmax());
  EXPECT_EQ(a.min_key(), -3);
  EXPECT_EQ(a.max_key(), 9);
  // A part that saw no build keys contributes nothing to the range.
  a.Merge(empty);
  EXPECT_EQ(a.min_key(), -3);
  EXPECT_EQ(a.max_key(), 9);
  // Merging into an empty filter adopts the other side's range.
  empty.Merge(a);
  EXPECT_TRUE(empty.has_minmax());
  EXPECT_EQ(empty.min_key(), -3);
  EXPECT_EQ(empty.max_key(), 9);
}

TEST(BloomFilterTest, MinMaxSurvivesSerialization) {
  BloomFilter f;
  f.Insert(HashRow({Datum::Int(4)}));
  f.ObserveKey(4);
  f.ObserveKey(-100);
  BufferWriter w;
  f.Serialize(&w);
  std::string bytes = w.Release();
  BufferReader r(bytes);
  auto back = BloomFilter::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->has_minmax());
  EXPECT_EQ(back->min_key(), -100);
  EXPECT_EQ(back->max_key(), 4);
  // A filter without a range stays without one across the wire.
  BloomFilter g;
  BufferWriter w2;
  g.Serialize(&w2);
  std::string bytes2 = w2.Release();
  BufferReader r2(bytes2);
  auto back2 = BloomFilter::Deserialize(&r2);
  ASSERT_TRUE(back2.ok()) << back2.status().ToString();
  EXPECT_FALSE(back2->has_minmax());
}

TEST(RuntimeFilterHubTest, PartsMergeAndComplete) {
  RuntimeFilterHub hub;
  BloomFilter p0, p1;
  uint64_t h0 = HashRow({Datum::Int(10)});
  uint64_t h1 = HashRow({Datum::Int(20)});
  p0.Insert(h0);
  p1.Insert(h1);
  hub.Publish(1, 0, RuntimeFilterHub::kGlobalScope, 0, 2, p0);
  // One of two parts: not complete, consumers must not see a partial
  // filter (it would cause false negatives).
  EXPECT_EQ(hub.TryGet(1, 0, RuntimeFilterHub::kGlobalScope), nullptr);
  // Duplicate part (interconnect loopback / dup datagram) is a no-op.
  hub.Publish(1, 0, RuntimeFilterHub::kGlobalScope, 0, 2, p0);
  EXPECT_EQ(hub.TryGet(1, 0, RuntimeFilterHub::kGlobalScope), nullptr);
  hub.Publish(1, 0, RuntimeFilterHub::kGlobalScope, 1, 2, p1);
  auto f = hub.TryGet(1, 0, RuntimeFilterHub::kGlobalScope);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->MayContain(h0));
  EXPECT_TRUE(f->MayContain(h1));
}

TEST(RuntimeFilterHubTest, WaitBudgetExpiresWithoutFilter) {
  RuntimeFilterHub hub;
  auto t0 = std::chrono::steady_clock::now();
  auto f = hub.WaitFor(1, 0, RuntimeFilterHub::kGlobalScope,
                       /*budget_us=*/2000);
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(f, nullptr) << "a scan whose filter never arrives must start "
                           "unfiltered, not block";
  EXPECT_LT(waited.count(), 2000) << "wait budget is microseconds, not a "
                                     "hang";
}

TEST(RuntimeFilterHubTest, WaitReturnsEarlyWhenPublished) {
  RuntimeFilterHub hub;
  BloomFilter f;
  uint64_t h = HashRow({Datum::Int(5)});
  f.Insert(h);
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    hub.Publish(7, 3, RuntimeFilterHub::kGlobalScope, 0, 1, f);
  });
  auto got = hub.WaitFor(7, 3, RuntimeFilterHub::kGlobalScope,
                         /*budget_us=*/2000000);
  publisher.join();
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->MayContain(h));
}

TEST(RuntimeFilterHubTest, SerializedPayloadRoundTripsAndScopes) {
  RuntimeFilterHub hub;
  BloomFilter f;
  uint64_t h = HashRow({Datum::Str("abc"), Datum::Int(1)});
  f.Insert(h);
  std::string payload = RuntimeFilterHub::EncodePayload(2, 0, 1, f);
  hub.PublishSerialized(9, payload);
  // Serialized publishes land in the global (cross-slice) scope only.
  auto got = hub.TryGet(9, 2, RuntimeFilterHub::kGlobalScope);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->MayContain(h));
  EXPECT_EQ(hub.TryGet(9, 2, /*scope=*/0), nullptr);
  // Garbage payloads are dropped, never crash the rx path.
  hub.PublishSerialized(9, "\x01\x02");
  hub.PublishSerialized(9, "");
  // ClearQuery removes every filter of the query.
  hub.ClearQuery(9);
  EXPECT_EQ(hub.TryGet(9, 2, RuntimeFilterHub::kGlobalScope), nullptr);
}

TEST(RuntimeFilterScanTest, LocalFilterPrunesProbeRows) {
  // A SeqScan annotated with a published local filter must drop rows
  // whose key is not in the bloom before they leave the scan.
  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk);
  RuntimeFilterHub hub;
  ctx.rf_hub = &hub;
  ctx.query_id = 42;

  // Write a tiny AO table: k = 0..99.
  hdfs::MiniHdfs fs(1);
  ctx.fs = &fs;
  Schema schema({{"k", TypeId::kInt64, true}});
  storage::StorageOptions sopts;
  int64_t eof = 0;
  {
    auto w = storage::OpenTableWriter(&fs, "/rf_scan", schema, sopts);
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*w)->Append({Datum::Int(i)}).ok());
    }
    ASSERT_TRUE((*w)->Close().ok());
    eof = (*w)->logical_eof();
  }

  auto scan = std::make_unique<PlanNode>();
  scan->kind = NodeKind::kSeqScan;
  scan->out_arity = 1;
  scan->table_schema = schema;
  scan->projection = {0};
  scan->files.push_back({0, "/rf_scan", eof});
  scan->rf_id = 5;
  scan->rf_local = true;
  scan->rf_exprs = {PExpr::Col(0, TypeId::kInt64)};

  // Build side published {10, 20, 30} before the scan opens.
  BloomFilter bloom;
  for (int k : {10, 20, 30}) bloom.Insert(HashRow({Datum::Int(k)}));
  hub.Publish(42, 5, ctx.segment, 0, 1, bloom);

  auto e = BuildExecNode(*scan, &ctx);
  ASSERT_TRUE(e.ok());
  auto rows = DrainBatches(e->get(), kDefaultBatchRows);
  // Never-false-negative: 10/20/30 all present; bloom may keep a few
  // false positives but must have dropped the bulk.
  std::set<int64_t> got;
  for (const Row& r : rows) got.insert(r[0].as_int());
  EXPECT_TRUE(got.count(10) && got.count(20) && got.count(30));
  EXPECT_LT(rows.size(), 20u) << "scan must prune most non-matching rows";
}

TEST(RuntimeFilterScanTest, MinMaxRangeSkipsWholeBlocks) {
  // When the filter carries a single-int-column key range, the scan turns
  // it into zone-map predicates: blocks entirely outside [min,max] are
  // skipped before read/decode, and the bloom only judges the survivors.
  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk);
  RuntimeFilterHub hub;
  obs::MetricsRegistry metrics;
  ctx.rf_hub = &hub;
  ctx.metrics = &metrics;
  ctx.query_id = 43;

  hdfs::MiniHdfs fs(1);
  ctx.fs = &fs;
  Schema schema({{"k", TypeId::kInt64, true}});
  storage::StorageOptions sopts;
  sopts.stripe_rows = 10;  // 100 ascending keys -> 10 tight blocks
  int64_t eof = 0;
  {
    auto w = storage::OpenTableWriter(&fs, "/rf_minmax", schema, sopts);
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*w)->Append({Datum::Int(i)}).ok());
    }
    ASSERT_TRUE((*w)->Close().ok());
    eof = (*w)->logical_eof();
  }

  auto scan = std::make_unique<PlanNode>();
  scan->kind = NodeKind::kSeqScan;
  scan->out_arity = 1;
  scan->table_schema = schema;
  scan->projection = {0};
  scan->files.push_back({0, "/rf_minmax", eof});
  scan->rf_id = 6;
  scan->rf_local = true;
  scan->rf_exprs = {PExpr::Col(0, TypeId::kInt64)};

  BloomFilter bloom;
  for (int k : {42, 47}) {
    bloom.Insert(HashRow({Datum::Int(k)}));
    bloom.ObserveKey(k);
  }
  hub.Publish(43, 6, ctx.segment, 0, 1, bloom);

  auto e = BuildExecNode(*scan, &ctx);
  ASSERT_TRUE(e.ok());
  auto rows = DrainBatches(e->get(), kDefaultBatchRows);
  std::set<int64_t> got;
  for (const Row& r : rows) got.insert(r[0].as_int());
  EXPECT_TRUE(got.count(42) && got.count(47));
  for (int64_t k : got) {
    EXPECT_GE(k, 40);  // survivors can only come from block [40,49]
    EXPECT_LE(k, 49);
  }
  // 9 of the 10 blocks lie entirely outside [42,47].
  EXPECT_EQ(metrics.GetCounter("scan.blocks_skipped_zonemap")->Get(), 9u);
  EXPECT_EQ(metrics.GetCounter("scan.rows_skipped_zonemap")->Get(), 90u);
}

}  // namespace
}  // namespace hawq::exec
