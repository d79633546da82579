// Operator-level executor tests: join semantics, aggregate state
// machines (partial/final), external sort with spill, limit, filters —
// exercised directly on hand-built plan nodes.
#include <gtest/gtest.h>

#include "executor/exec_node.h"
#include "planner/plan_node.h"

namespace hawq::exec {
namespace {

using plan::AggPhase;
using plan::JoinType;
using plan::NodeKind;
using plan::PlanNode;
using sql::AggSpec;
using sql::PExpr;

/// A Result node wrapped as a child for operator tests.
std::unique_ptr<PlanNode> RowsNode(std::vector<Row> rows, int arity) {
  auto n = std::make_unique<PlanNode>();
  n->kind = NodeKind::kResult;
  n->rows = std::move(rows);
  n->out_arity = arity;
  return n;
}

std::vector<Row> Drain(ExecNode* node) {
  std::vector<Row> out;
  EXPECT_TRUE(node->Open().ok());
  RowBatch batch;
  while (true) {
    auto more = node->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    for (size_t i = 0; i < batch.size(); ++i) out.push_back(batch.selected(i));
  }
  EXPECT_TRUE(node->Close().ok());
  return out;
}

ExecContext MakeCtx(LocalDisk* disk) {
  ExecContext ctx;
  ctx.segment = 0;
  ctx.local_disk = disk;
  return ctx;
}

// ------------------------------------------------------------- joins

class JoinExecTest : public ::testing::Test {
 protected:
  // Wide layout: [probe_key, probe_val, build_key, build_val].
  std::unique_ptr<PlanNode> MakeJoin(JoinType type,
                                     std::vector<Row> probe_rows,
                                     std::vector<Row> build_rows,
                                     std::vector<PExpr> quals = {}) {
    auto n = std::make_unique<PlanNode>();
    n->kind = NodeKind::kHashJoin;
    n->join_type = type;
    n->out_arity = 4;
    n->probe_keys = {PExpr::Col(0, TypeId::kInt64)};
    n->build_keys = {PExpr::Col(2, TypeId::kInt64)};
    n->build_cols = {2, 3};
    n->quals = std::move(quals);
    n->children.push_back(RowsNode(std::move(probe_rows), 4));
    n->children.push_back(RowsNode(std::move(build_rows), 4));
    return n;
  }

  static Row P(int64_t k, int64_t v) {
    return {Datum::Int(k), Datum::Int(v), Datum::Null(), Datum::Null()};
  }
  static Row B(int64_t k, int64_t v) {
    return {Datum::Null(), Datum::Null(), Datum::Int(k), Datum::Int(v)};
  }

  LocalDisk disk_;
};

TEST_F(JoinExecTest, InnerJoinMatches) {
  auto node = MakeJoin(JoinType::kInner, {P(1, 10), P(2, 20), P(3, 30)},
                       {B(1, 100), B(3, 300), B(3, 301), B(9, 900)});
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 3u);  // 1 match for key 1, 2 for key 3
}

TEST_F(JoinExecTest, LeftJoinNullExtends) {
  auto node = MakeJoin(JoinType::kLeft, {P(1, 10), P(2, 20)}, {B(1, 100)});
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 2u);
  // Row for key 2 has NULL build side.
  bool saw_null_extended = false;
  for (const Row& r : rows) {
    if (r[0].as_int() == 2) {
      EXPECT_TRUE(r[3].is_null());
      saw_null_extended = true;
    }
  }
  EXPECT_TRUE(saw_null_extended);
}

TEST_F(JoinExecTest, SemiJoinEmitsProbeOnce) {
  auto node = MakeJoin(JoinType::kSemi, {P(1, 10), P(2, 20)},
                       {B(1, 100), B(1, 101), B(1, 102)});
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 1u);  // probe row 1, exactly once
  EXPECT_EQ(rows[0][0].as_int(), 1);
}

TEST_F(JoinExecTest, AntiJoinEmitsNonMatching) {
  auto node = MakeJoin(JoinType::kAnti, {P(1, 10), P(2, 20), P(3, 30)},
                       {B(1, 100), B(3, 300)});
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].as_int(), 2);
}

TEST_F(JoinExecTest, ResidualQualFiltersMatches) {
  // Join with residual: build_val > 100.
  std::vector<PExpr> quals;
  quals.push_back(PExpr::Binary(PExpr::Op::kGt, PExpr::Col(3, TypeId::kInt64),
                                PExpr::Const(Datum::Int(100), TypeId::kInt64),
                                TypeId::kBool));
  auto node = MakeJoin(JoinType::kAnti, {P(1, 10), P(2, 20)},
                       {B(1, 50), B(2, 200)}, std::move(quals));
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  // Key 1's only candidate fails the residual -> anti join emits it.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].as_int(), 1);
}

TEST_F(JoinExecTest, NullKeysNeverMatch) {
  std::vector<Row> probe = {
      {Datum::Null(), Datum::Int(1), Datum::Null(), Datum::Null()}};
  std::vector<Row> build = {
      {Datum::Null(), Datum::Null(), Datum::Null(), Datum::Int(9)}};
  auto node = MakeJoin(JoinType::kInner, std::move(probe), std::move(build));
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(Drain(exec->get()).size(), 0u);
}

// ------------------------------------------------------------- aggregates

class AggExecTest : public ::testing::Test {
 protected:
  std::unique_ptr<PlanNode> MakeAgg(AggPhase phase, std::vector<Row> input,
                                    int in_arity,
                                    std::vector<AggSpec> aggs,
                                    bool with_group = true) {
    auto n = std::make_unique<PlanNode>();
    n->kind = NodeKind::kHashAgg;
    n->phase = phase;
    if (with_group) n->group_exprs = {PExpr::Col(0, TypeId::kInt64)};
    n->aggs = std::move(aggs);
    int state = 0;
    for (const AggSpec& a : n->aggs) {
      state += a.kind == AggSpec::Kind::kAvg ? 2 : 1;
    }
    n->out_arity = static_cast<int>(n->group_exprs.size()) +
                   (phase == AggPhase::kPartial
                        ? state
                        : static_cast<int>(n->aggs.size()));
    n->children.push_back(RowsNode(std::move(input), in_arity));
    return n;
  }

  static AggSpec Spec(AggSpec::Kind kind, int col, bool star = false) {
    AggSpec s;
    s.kind = kind;
    s.count_star = star;
    if (!star) s.arg = PExpr::Col(col, TypeId::kDouble);
    return s;
  }

  LocalDisk disk_;
};

TEST_F(AggExecTest, SinglePhaseAllAggKinds) {
  std::vector<Row> input = {{Datum::Int(1), Datum::Double(10)},
                            {Datum::Int(1), Datum::Double(20)},
                            {Datum::Int(2), Datum::Double(5)},
                            {Datum::Int(1), Datum::Null()}};
  auto node = MakeAgg(AggPhase::kSingle, input, 2,
                      {Spec(AggSpec::Kind::kCount, 0, true),
                       Spec(AggSpec::Kind::kCount, 1),
                       Spec(AggSpec::Kind::kSum, 1),
                       Spec(AggSpec::Kind::kMin, 1),
                       Spec(AggSpec::Kind::kMax, 1),
                       Spec(AggSpec::Kind::kAvg, 1)});
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& r : rows) {
    if (r[0].as_int() == 1) {
      EXPECT_EQ(r[1].as_int(), 3);   // count(*) includes the NULL row
      EXPECT_EQ(r[2].as_int(), 2);   // count(v) skips NULL
      EXPECT_DOUBLE_EQ(r[3].as_double(), 30);
      EXPECT_DOUBLE_EQ(r[4].as_double(), 10);
      EXPECT_DOUBLE_EQ(r[5].as_double(), 20);
      EXPECT_DOUBLE_EQ(r[6].as_double(), 15);
    }
  }
}

TEST_F(AggExecTest, PartialThenFinalEqualsSinglePass) {
  // Two "segments" produce partial states; a final phase merges them.
  std::vector<Row> seg1 = {{Datum::Int(1), Datum::Double(10)},
                           {Datum::Int(2), Datum::Double(7)}};
  std::vector<Row> seg2 = {{Datum::Int(1), Datum::Double(30)}};
  auto partial_specs = [&] {
    return std::vector<AggSpec>{Spec(AggSpec::Kind::kSum, 1),
                                Spec(AggSpec::Kind::kAvg, 1),
                                Spec(AggSpec::Kind::kCount, 0, true)};
  };
  ExecContext ctx = MakeCtx(&disk_);
  std::vector<Row> states;
  for (auto& seg : {seg1, seg2}) {
    auto p = MakeAgg(AggPhase::kPartial, seg, 2, partial_specs());
    auto exec = BuildExecNode(*p, &ctx);
    ASSERT_TRUE(exec.ok());
    for (Row& r : Drain(exec->get())) states.push_back(std::move(r));
  }
  // Partial layout: [group, sum, avg_sum, avg_count, count].
  ASSERT_EQ(states.size(), 3u);
  ASSERT_EQ(states[0].size(), 5u);
  auto f = MakeAgg(AggPhase::kFinal, states, 5, partial_specs());
  auto exec = BuildExecNode(*f, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& r : rows) {
    if (r[0].as_int() == 1) {
      EXPECT_DOUBLE_EQ(r[1].as_double(), 40);
      EXPECT_DOUBLE_EQ(r[2].as_double(), 20);
      EXPECT_EQ(r[3].as_int(), 2);
    } else {
      EXPECT_DOUBLE_EQ(r[1].as_double(), 7);
      EXPECT_EQ(r[3].as_int(), 1);
    }
  }
}

TEST_F(AggExecTest, GrandAggregateEmptyInputEmitsRow) {
  auto node = MakeAgg(AggPhase::kSingle, {}, 2,
                      {Spec(AggSpec::Kind::kCount, 0, true),
                       Spec(AggSpec::Kind::kSum, 1)},
                      /*with_group=*/false);
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].as_int(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(AggExecTest, DistinctAggDeduplicates) {
  AggSpec s = Spec(AggSpec::Kind::kCount, 1);
  s.distinct = true;
  std::vector<Row> input = {{Datum::Int(1), Datum::Double(5)},
                            {Datum::Int(1), Datum::Double(5)},
                            {Datum::Int(1), Datum::Double(7)}};
  auto node = MakeAgg(AggPhase::kSingle, input, 2, {s});
  ExecContext ctx = MakeCtx(&disk_);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].as_int(), 2);
}

// ------------------------------------------------------------- sort spill

TEST(SortExecTest, ExternalSortSpillsAndMerges) {
  std::vector<Row> input;
  for (int i = 999; i >= 0; --i) input.push_back({Datum::Int(i)});
  auto node = std::make_unique<PlanNode>();
  node->kind = NodeKind::kSort;
  node->sort_keys = {{0, false}};
  node->out_arity = 1;
  node->children.push_back(RowsNode(std::move(input), 1));

  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk);
  // A budget barely above the operator's fixed batch-pool charge forces
  // small in-memory runs (spill-under-budget, many spilled runs).
  resource::MemoryTracker budget("test", ctx.batch_size * kRowSlotBytes +
                                             10'000);
  ctx.mem = &budget;
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rows[i][0].as_int(), i);
  EXPECT_EQ(disk.file_count(), 0u);  // runs cleaned up after merge
}

TEST(SortExecTest, SpillDiskFailureFailsQuery) {
  std::vector<Row> input;
  for (int i = 0; i < 500; ++i) input.push_back({Datum::Int(i)});
  auto node = std::make_unique<PlanNode>();
  node->kind = NodeKind::kSort;
  node->sort_keys = {{0, true}};
  node->out_arity = 1;
  node->children.push_back(RowsNode(std::move(input), 1));

  LocalDisk disk;
  disk.Fail();  // paper §2.6: intermediate-data disk failure
  ExecContext ctx = MakeCtx(&disk);
  resource::MemoryTracker budget("test", ctx.batch_size * kRowSlotBytes +
                                             5'000);
  ctx.mem = &budget;
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  Status st = (*exec)->Open();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(SortExecTest, MultiKeyDescAsc) {
  std::vector<Row> input = {{Datum::Int(1), Datum::Str("b")},
                            {Datum::Int(2), Datum::Str("a")},
                            {Datum::Int(1), Datum::Str("a")}};
  auto node = std::make_unique<PlanNode>();
  node->kind = NodeKind::kSort;
  node->sort_keys = {{0, true}, {1, false}};
  node->out_arity = 2;
  node->children.push_back(RowsNode(std::move(input), 2));
  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  auto rows = Drain(exec->get());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].as_int(), 2);
  EXPECT_EQ(rows[1][1].as_str(), "a");
  EXPECT_EQ(rows[2][1].as_str(), "b");
}

TEST(LimitExecTest, CutsAtN) {
  std::vector<Row> input;
  for (int i = 0; i < 10; ++i) input.push_back({Datum::Int(i)});
  auto node = std::make_unique<PlanNode>();
  node->kind = NodeKind::kLimit;
  node->limit = 3;
  node->out_arity = 1;
  node->children.push_back(RowsNode(std::move(input), 1));
  LocalDisk disk;
  ExecContext ctx = MakeCtx(&disk);
  auto exec = BuildExecNode(*node, &ctx);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(Drain(exec->get()).size(), 3u);
}

}  // namespace
}  // namespace hawq::exec
