#include "executor/exec_node.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <unordered_map>

#include "common/chaos.h"
#include "common/serde.h"
#include "executor/runtime_filter.h"
#include "obs/trace.h"
#include "storage/format.h"

namespace hawq::exec {

namespace {

using plan::NodeKind;
using plan::PlanNode;
using sql::AggSpec;
using sql::PExpr;

std::string KeyOf(const Row& key) {
  BufferWriter w;
  SerializeRow(key, &w);
  return w.Release();
}

Row EvalAll(const std::vector<PExpr>& exprs, const Row& in) {
  Row out;
  out.reserve(exprs.size());
  for (const PExpr& e : exprs) out.push_back(e.Eval(in));
  return out;
}

bool PassesAll(const std::vector<PExpr>& quals, const Row& row) {
  for (const PExpr& q : quals) {
    if (!q.EvalBool(row)) return false;
  }
  return true;
}

uint64_t UsSince(obs::TraceClock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          obs::TraceClock::now() - t0)
          .count());
}

// ---------------------------------------------------- memory accounting
//
// Build-side operators charge estimated retained bytes against the
// query's MemoryTracker (ExecContext::mem). A refused charge either
// spills (default) or kills the query (queue kill_on_exceed policy).
// Estimates, not malloc hooks: the budget needs consistency, not
// heap-exact numbers.

/// Estimated retained bytes of one row (vector header + datum slots +
/// string payloads).
int64_t ApproxRowBytes(const Row& row) {
  int64_t b = 32 + static_cast<int64_t>(row.size() * sizeof(Datum));
  for (const Datum& d : row) {
    if (d.kind == Datum::Kind::kStr) b += static_cast<int64_t>(d.str.size());
  }
  return b;
}

/// Spill partition for a key hash. HashRow already routed the row to
/// this segment (hash % num_segments), so partitioning must not reuse
/// those bits directly: splitmix64 with a per-depth salt decorrelates,
/// and deeper recursion re-splits what one level hashed together.
size_t SpillPartition(uint64_t key_hash, int depth, size_t fanout) {
  uint64_t x =
      key_hash + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(depth + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % fanout);
}

constexpr size_t kSpillFanout = 8;
constexpr int kMaxSpillDepth = 3;  // past this, charge past the budget

Status BudgetExceeded(const ExecContext* ctx, const char* op) {
  return Status::OutOfMemory(
      std::string(op) + " exceeded the per-query memory budget (" +
      std::to_string(ctx->mem != nullptr ? ctx->mem->limit() : 0) +
      " bytes; resource queue policy kill_on_exceed)");
}

/// Account one spill write in the PR-3 trace stats and the resource
/// metrics (cluster-wide spill volume for the stats views / bench).
void NoteSpill(const ExecContext* ctx, obs::NodeStats* stats, size_t bytes) {
  if (stats != nullptr) {
    stats->spill_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (ctx->metrics != nullptr) {
    ctx->metrics->GetCounter("resource.spill_bytes")->Add(bytes);
  }
}

/// Child tracker giving one memory-hungry operator its own node in the
/// accounting hierarchy (query -> operator), so EXPLAIN ANALYZE and
/// hawq_stat_activity can attribute bytes to hash build vs sort vs slot
/// pool. Unlimited itself — the query-level budget still gates every
/// charge through the parent chain. Null when the query is untracked.
std::unique_ptr<resource::MemoryTracker> MakeOpTracker(const char* kind,
                                                       const PlanNode& node,
                                                       ExecContext* ctx) {
  if (ctx->mem == nullptr) return nullptr;
  return std::make_unique<resource::MemoryTracker>(
      std::string(kind) + "#" + std::to_string(node.node_id),
      resource::MemoryTracker::kUnlimited, ctx->mem);
}

/// Mirror the operator tracker's balance into the node's trace stats so
/// live activity snapshots read per-operator bytes from relaxed atomics
/// instead of chasing tracker pointers.
void AttachMemMirror(resource::MemoryTracker* op_mem, obs::NodeStats* stats) {
  if (op_mem != nullptr && stats != nullptr) {
    op_mem->SetMirror(&stats->mem_used_bytes, &stats->mem_peak_bytes);
  }
}

// --------------------------------------------------- instrumentation
//
// EXPLAIN ANALYZE decorator: wraps an operator and accumulates rows /
// batches / inclusive time into the query trace's per-(node, segment)
// counters. NextBatch is its only data-path method, so the clock reads
// and profiler stamps are paid once per batch, never once per row.
// BuildExecNode inserts one per plan node ONLY when tracing is
// on (ctx->trace != nullptr), so the untraced pipeline carries zero
// instrumentation cost — not even a branch per batch.
class InstrumentedExec : public ExecNode {
 public:
  InstrumentedExec(std::unique_ptr<ExecNode> inner, obs::NodeStats* stats,
                   obs::ProfCell* cell, int node_id, int kind)
      : inner_(std::move(inner)),
        stats_(stats),
        cell_(cell),
        node_id_(node_id),
        kind_(kind) {}

  Status Open() override {
    uint64_t prev = Stamp(obs::kProfOpen);
    auto t0 = obs::TraceClock::now();
    Status st = inner_->Open();
    stats_->open_us.fetch_add(UsSince(t0), std::memory_order_relaxed);
    Unstamp(prev);
    return st;
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    uint64_t prev = Stamp(obs::kProfNext);
    auto t0 = obs::TraceClock::now();
    auto r = inner_->NextBatch(batch);
    stats_->next_us.fetch_add(UsSince(t0), std::memory_order_relaxed);
    if (r.ok() && r.value()) {
      stats_->rows.fetch_add(batch->size(), std::memory_order_relaxed);
      stats_->batches.fetch_add(1, std::memory_order_relaxed);
    }
    Unstamp(prev);
    return r;
  }

  Status Close() override {
    uint64_t prev = Stamp(obs::kProfClose);
    auto t0 = obs::TraceClock::now();
    Status st = inner_->Close();
    stats_->close_us.fetch_add(UsSince(t0), std::memory_order_relaxed);
    Unstamp(prev);
    return st;
  }

 private:
  // Profiler marker: stamp this node as the worker's innermost running
  // operator on entry, restore the caller's marker on exit. A child's
  // wrapper overwrites the parent's stamp for the duration of the child
  // call, which is what turns sampled hits into *self* time.
  uint64_t Stamp(int phase) {
    if (cell_ == nullptr) return 0;
    return cell_->state.exchange(obs::ProfCell::Encode(node_id_, kind_, phase),
                                 std::memory_order_relaxed);
  }
  void Unstamp(uint64_t prev) {
    if (cell_ != nullptr) cell_->state.store(prev, std::memory_order_relaxed);
  }

  std::unique_ptr<ExecNode> inner_;
  obs::NodeStats* stats_;
  obs::ProfCell* cell_;
  const int node_id_;
  const int kind_;
};

// ------------------------------------------------------------- SeqScan

class SeqScanExec : public BatchExecNode {
 public:
  SeqScanExec(const PlanNode& node, ExecContext* ctx)
      : BatchExecNode(node, ctx),
        node_(node),
        ctx_(ctx),
        scratch_(ctx->batch_size) {}

  Status Open() override {
    for (const plan::ScanFile& f : node_.files) {
      if (f.segment == ctx_->segment) my_files_.push_back(&f);
    }
    // Scanner rows keep table-local column positions (projected-out
    // columns come back as NULL placeholders), so when this relation's
    // columns start at slot 0 and the wide layout has no extra slots the
    // scanner row *is* the output row and the widening copy is skipped.
    identity_layout_ = node_.col_start == 0 &&
                       node_.out_arity ==
                           static_cast<int>(node_.table_schema.num_fields());
    // Zone-map predicates travel in table-local column positions, which is
    // exactly what the storage scanner expects; the op enums share their
    // numbering by construction.
    for (const plan::ScanPred& p : node_.scan_preds) {
      storage::ScanPredicate sp;
      sp.col = p.col;
      sp.op = static_cast<storage::ScanPredicate::Op>(p.op);
      sp.value = p.value;
      preds_.push_back(std::move(sp));
    }
    if (ctx_->trace != nullptr) {
      stats_ = ctx_->trace->StatsFor(node_.node_id, ctx_->segment);
    }
    if (ctx_->metrics != nullptr) {
      c_blocks_skipped_ =
          ctx_->metrics->GetCounter("scan.blocks_skipped_zonemap");
      c_rows_skipped_ = ctx_->metrics->GetCounter("scan.rows_skipped_zonemap");
      c_bytes_skipped_ =
          ctx_->metrics->GetCounter("scan.bytes_skipped_zonemap");
      c_rows_filtered_ = ctx_->metrics->GetCounter("scan.rows_filtered_bloom");
      h_rf_wait_ = ctx_->metrics->GetHistogram("scan.rf_wait_us");
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    common::chaos::Point("scan.batch");
    HAWQ_RETURN_IF_ERROR(ctx_->CheckCancel());
    if (!rf_checked_) AcquireRuntimeFilter();
    while (true) {
      out->Clear();
      if (!scanner_) {
        if (file_idx_ >= my_files_.size()) return false;
        const plan::ScanFile* f = my_files_[file_idx_++];
        storage::StorageOptions opts;
        opts.kind = node_.storage;
        opts.codec = node_.codec;
        opts.codec_level = node_.codec_level;
        opts.reader_host = ctx_->host;  // hdfs locality accounting
        HAWQ_ASSIGN_OR_RETURN(
            scanner_, storage::OpenTableScanner(ctx_->fs, f->path,
                                                node_.table_schema, opts,
                                                f->eof, node_.projection,
                                                preds_));
      }
      // The scanner decodes a whole storage block at a time. With an
      // identity layout it decodes straight into the output batch
      // (recycling its row slots); otherwise each table-local row is
      // widened into the plan's wide layout via the scratch batch.
      if (identity_layout_) {
        HAWQ_ASSIGN_OR_RETURN(bool more, scanner_->NextBatch(out));
        if (!more) {
          FinishScanner();
          continue;
        }
      } else {
        HAWQ_ASSIGN_OR_RETURN(bool more, scanner_->NextBatch(&scratch_));
        if (!more) {
          FinishScanner();
          continue;
        }
        for (size_t i = 0; i < scratch_.size(); ++i) {
          Row& inner = scratch_.selected(i);
          Row wide(node_.out_arity);
          for (int local : node_.projection) {
            wide[node_.col_start + local] = std::move(inner[local]);
          }
          out->PushRow(std::move(wide));
        }
      }
      if (bloom_ != nullptr) ApplyBloom(out);
      if (!out->empty()) return true;
    }
  }

  Status Close() override {
    if (scanner_) FinishScanner();  // early stop (e.g. LIMIT) mid-file
    return Status::OK();
  }

 private:
  /// One-shot runtime-filter lookup at first batch. A local filter was
  /// published by a join in this very worker before the scan opened, so
  /// TryGet always hits; a remote one races ahead of us, so we wait up to
  /// the planner's budget and start unfiltered if it loses.
  void AcquireRuntimeFilter() {
    rf_checked_ = true;
    if (node_.rf_id < 0 || ctx_->rf_hub == nullptr) return;
    if (node_.rf_local) {
      bloom_ =
          ctx_->rf_hub->TryGet(ctx_->query_id, node_.rf_id, ctx_->segment);
      MaybeAddMinMaxPreds();
      return;
    }
    auto t0 = obs::TraceClock::now();
    bloom_ = ctx_->rf_hub->WaitFor(ctx_->query_id, node_.rf_id,
                                   RuntimeFilterHub::kGlobalScope,
                                   node_.rf_wait_us);
    if (h_rf_wait_ != nullptr) h_rf_wait_->Observe(UsSince(t0));
    MaybeAddMinMaxPreds();
  }

  /// If the filter carries an exact build-key [min,max] and the probe key
  /// is this scan's own bare integer column, the range bounds the column
  /// itself: add it as zone-map predicates so whole blocks outside the
  /// build side's key range are skipped before they are read or decoded.
  /// Runs before the first scanner opens, so every file sees the preds.
  void MaybeAddMinMaxPreds() {
    if (bloom_ == nullptr || !bloom_->has_minmax()) return;
    if (node_.rf_exprs.size() != 1) return;
    const PExpr& e = node_.rf_exprs[0];
    if (e.op != PExpr::Op::kCol) return;
    int local = e.col - node_.col_start;
    if (local < 0 ||
        local >= static_cast<int>(node_.table_schema.num_fields())) {
      return;
    }
    TypeId t = node_.table_schema.field(local).type;
    if (t != TypeId::kInt32 && t != TypeId::kInt64) return;
    storage::ScanPredicate ge, le;
    ge.col = local;
    ge.op = storage::ScanPredicate::Op::kGe;
    ge.value = Datum::Int(bloom_->min_key());
    le.col = local;
    le.op = storage::ScanPredicate::Op::kLe;
    le.value = Datum::Int(bloom_->max_key());
    preds_.push_back(std::move(ge));
    preds_.push_back(std::move(le));
  }

  /// Narrow the batch's selection vector to rows whose join key may exist
  /// on the build side. NULL keys never match an inner/semi join, so
  /// dropping them here is as correct as dropping them at the join.
  void ApplyBloom(RowBatch* b) {
    std::vector<uint32_t>* sel = b->mutable_sel();
    const size_t in = sel->size();
    size_t kept = 0;
    for (size_t i = 0; i < in; ++i) {
      const Row& r = b->row((*sel)[i]);
      Row key = EvalAll(node_.rf_exprs, r);
      bool has_null = false;
      for (const Datum& d : key) has_null |= d.is_null();
      if (!has_null && bloom_->MayContain(HashRow(key))) {
        (*sel)[kept++] = (*sel)[i];
      }
    }
    sel->resize(kept);
    const uint64_t dropped = in - kept;
    if (dropped > 0) {
      if (c_rows_filtered_ != nullptr) c_rows_filtered_->Add(dropped);
      if (stats_ != nullptr) {
        stats_->rows_filtered.fetch_add(dropped, std::memory_order_relaxed);
      }
    }
  }

  /// Harvest the finished scanner's skip accounting before dropping it.
  void FinishScanner() {
    const storage::ScanStats& s = scanner_->stats();
    if (s.blocks_skipped > 0) {
      if (c_blocks_skipped_ != nullptr) c_blocks_skipped_->Add(s.blocks_skipped);
      if (c_rows_skipped_ != nullptr) c_rows_skipped_->Add(s.rows_skipped);
      if (c_bytes_skipped_ != nullptr) c_bytes_skipped_->Add(s.bytes_skipped);
      if (stats_ != nullptr) {
        stats_->blocks_skipped.fetch_add(s.blocks_skipped,
                                         std::memory_order_relaxed);
      }
    }
    scanner_.reset();
  }

  const PlanNode& node_;
  ExecContext* ctx_;
  std::vector<const plan::ScanFile*> my_files_;
  size_t file_idx_ = 0;
  bool identity_layout_ = false;
  std::unique_ptr<storage::TableScanner> scanner_;
  RowBatch scratch_;  // table-local rows from the scanner
  std::vector<storage::ScanPredicate> preds_;
  bool rf_checked_ = false;
  std::shared_ptr<const BloomFilter> bloom_;
  obs::NodeStats* stats_ = nullptr;
  obs::Counter* c_blocks_skipped_ = nullptr;
  obs::Counter* c_rows_skipped_ = nullptr;
  obs::Counter* c_bytes_skipped_ = nullptr;
  obs::Counter* c_rows_filtered_ = nullptr;
  obs::Histogram* h_rf_wait_ = nullptr;
};

// ------------------------------------------------------------- Filter

class FilterExec : public BatchExecNode {
 public:
  FilterExec(const PlanNode& node, std::unique_ptr<ExecNode> child,
             ExecContext* ctx)
      : BatchExecNode(node, ctx),
        node_(node),
        child_(std::move(child)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    // Each qual narrows the selection vector in place; rows are never
    // copied or compacted here.
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, child_->NextBatch(batch));
      if (!more) return false;
      for (const PExpr& q : node_.quals) {
        q.FilterBatch(batch);
        if (batch->empty()) break;
      }
      if (!batch->empty()) return true;
    }
  }
  Status Close() override { return child_->Close(); }

 private:
  const PlanNode& node_;
  std::unique_ptr<ExecNode> child_;
};

// ------------------------------------------------------------- Project

class ProjectExec : public BatchExecNode {
 public:
  ProjectExec(const PlanNode& node, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : BatchExecNode(node, ctx),
        node_(node),
        child_(std::move(child)),
        in_(ctx->batch_size) {}
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* out) override {
    HAWQ_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    if (!more) return false;
    // Evaluate expression-at-a-time over the whole batch, then zip the
    // result columns into compacted output rows.
    const size_t n = in_.size();
    cols_.resize(node_.exprs.size());
    for (size_t j = 0; j < node_.exprs.size(); ++j) {
      node_.exprs[j].EvalBatch(in_, &cols_[j]);
    }
    out->Clear();
    for (size_t i = 0; i < n; ++i) {
      Row* r = out->EmplaceRow();
      r->resize(cols_.size());
      for (size_t j = 0; j < cols_.size(); ++j) {
        (*r)[j] = std::move(cols_[j][i]);
      }
    }
    return true;
  }
  Status Close() override { return child_->Close(); }

 private:
  const PlanNode& node_;
  std::unique_ptr<ExecNode> child_;
  RowBatch in_;
  std::vector<std::vector<Datum>> cols_;
};

// ------------------------------------------------------------- HashJoin

class HashJoinExec : public ExecNode {
 public:
  HashJoinExec(const PlanNode& node, std::unique_ptr<ExecNode> probe,
               std::unique_ptr<ExecNode> build, ExecContext* ctx)
      : node_(node), probe_(std::move(probe)), build_(std::move(build)),
        ctx_(ctx), op_mem_(MakeOpTracker("HashJoin", node, ctx)),
        mem_(op_mem_ != nullptr ? op_mem_.get() : ctx->mem),
        in_(ctx->batch_size) {}

  Status Open() override {
    if (ctx_->trace != nullptr) {
      stats_ = ctx_->trace->StatsFor(node_.node_id, ctx_->segment);
      AttachMemMirror(op_mem_.get(), stats_);
    }
    HAWQ_RETURN_IF_ERROR(build_->Open());
    const bool build_filter = node_.rf_id >= 0 && ctx_->rf_hub != nullptr;
    BloomFilter bloom;
    auto t0 = obs::TraceClock::now();
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, build_->NextBatch(&in_));
      if (!more) break;
      for (size_t i = 0; i < in_.size(); ++i) {
        Row& row = in_.selected(i);
        Row key = EvalAll(node_.build_keys, row);
        bool has_null = false;
        for (const Datum& d : key) has_null |= d.is_null();
        if (has_null) continue;  // NULL keys never match
        // The join matches on serialized key bytes, so equal keys hash
        // equal: the bloom can never produce a false negative at the scan.
        if (build_filter) {
          bloom.Insert(HashRow(key));
          if (key.size() == 1 && key[0].kind == Datum::Kind::kInt) {
            bloom.ObserveKey(key[0].i64);
          }
        }
        HAWQ_RETURN_IF_ERROR(PlaceBuildRow(std::move(key), std::move(row)));
      }
    }
    in_.Clear();  // the probe loop starts from an empty input batch
    HAWQ_RETURN_IF_ERROR(build_->Close());
    if (spilling_) HAWQ_RETURN_IF_ERROR(FlushBuildPartitions());
    // The bloom covers every build key, resident or spilled, so the
    // probe-side scan filter stays exact-superset either way.
    if (build_filter) PublishFilter(bloom, t0);
    HAWQ_RETURN_IF_ERROR(probe_->Open());
    if (spilling_) {
      // Grace join: the probe side is fully partitioned to scratch disk
      // with the same hash, then partition pairs are joined one at a
      // time, each small enough (possibly after recursive re-splits) to
      // hold its build half in memory.
      HAWQ_RETURN_IF_ERROR(PartitionProbeSide());
      HAWQ_RETURN_IF_ERROR(probe_->Close());
      probe_closed_ = true;
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (!out->full()) {
      // Emit remaining matches of the current probe row (inner/left);
      // they may straddle output batches.
      if (match_iter_ < matches_.size()) {
        MergeInto(in_.selected(probe_pos_ - 1), *matches_[match_iter_++],
                  out->EmplaceRow());
        continue;
      }
      if (probe_pos_ >= in_.size()) {
        if (probe_done_) break;
        bool more = false;
        if (!spilling_) {
          HAWQ_ASSIGN_OR_RETURN(more, probe_->NextBatch(&in_));
        } else {
          HAWQ_ASSIGN_OR_RETURN(more, NextSpilledProbe());
        }
        probe_pos_ = 0;
        if (!more) {
          probe_done_ = true;
          in_.Clear();
          break;
        }
      }
      const Row& probe = in_.selected(probe_pos_++);
      Row key = EvalAll(node_.probe_keys, probe);
      bool has_null = false;
      for (const Datum& d : key) has_null |= d.is_null();
      matches_.clear();
      match_iter_ = 0;
      if (!has_null) {
        auto it = table_.find(KeyOf(key));
        if (it != table_.end()) {
          for (const Row& cand : it->second) {
            if (node_.quals.empty() ||
                PassesAll(node_.quals, Merge(probe, cand))) {
              matches_.push_back(&cand);
            }
          }
        }
      }
      switch (node_.join_type) {
        case plan::JoinType::kInner:
          break;  // loop emits matches (or none)
        case plan::JoinType::kLeft:
          if (matches_.empty()) {
            *out->EmplaceRow() = probe;  // null-extended build side
          }
          break;
        case plan::JoinType::kSemi:
          if (!matches_.empty()) {
            matches_.clear();
            *out->EmplaceRow() = probe;
          }
          break;
        case plan::JoinType::kAnti:
          if (matches_.empty()) *out->EmplaceRow() = probe;
          matches_.clear();
          break;
      }
    }
    return out->size() > 0;
  }

  Status Close() override {
    // Drop spill partitions left over from an early abort (cancel, error)
    // so the scratch disk drains with the query.
    for (const SpillPart& p : parts_) {
      if (!p.build_name.empty()) ctx_->local_disk->Remove(p.build_name);
      if (!p.probe_name.empty()) ctx_->local_disk->Remove(p.probe_name);
    }
    parts_.clear();
    return probe_closed_ ? Status::OK() : probe_->Close();
  }

 private:
  /// One build/probe partition pair awaiting processing. Either file name
  /// may be empty (no rows hashed there); probe-only partitions survive
  /// for left/anti joins, which must still stream their probe rows.
  struct SpillPart {
    std::string build_name;
    std::string probe_name;
    int depth = 0;
  };

  Row Merge(const Row& probe, const Row& build) const {
    Row out;
    MergeInto(probe, build, &out);
    return out;
  }

  /// Merge into a recycled output slot (keeps the slot's capacity).
  void MergeInto(const Row& probe, const Row& build, Row* out) const {
    *out = probe;
    for (int c : node_.build_cols) (*out)[c] = build[c];
  }

  std::string SpillName(const char* side) {
    return std::string("hj_") + side + "_" + std::to_string(ctx_->query_id) +
           "_" + std::to_string(ctx_->segment) + "_" +
           std::to_string(node_.node_id) + "_" + std::to_string(ctx_->worker) +
           "_" + std::to_string(part_seq_++);
  }

  /// Insert one build row: into the resident table while the budget
  /// holds, into partition buffers once it does not.
  Status PlaceBuildRow(Row key, Row row) {
    if (!spilling_) {
      const int64_t bytes = ApproxRowBytes(row) + ApproxRowBytes(key) + 48;
      if (mem_.Charge(bytes)) {
        table_[KeyOf(key)].push_back(std::move(row));
        return Status::OK();
      }
      if (ctx_->kill_on_exceed) return BudgetExceeded(ctx_, "hash join build");
      StartSpill();
    }
    const size_t p = SpillPartition(HashRow(key), /*depth=*/0, kSpillFanout);
    SerializeRow(row, &build_out_[p]);
    build_rows_[p]++;
    return Status::OK();
  }

  /// Flip to spill mode: evict the resident table into partition buffers
  /// and release its reservation; later build rows go straight there.
  void StartSpill() {
    spilling_ = true;
    build_out_ = std::vector<BufferWriter>(kSpillFanout);
    build_rows_.assign(kSpillFanout, 0);
    for (auto& [kb, rows] : table_) {
      for (Row& r : rows) {
        Row key = EvalAll(node_.build_keys, r);
        const size_t p = SpillPartition(HashRow(key), /*depth=*/0,
                                        kSpillFanout);
        SerializeRow(r, &build_out_[p]);
        build_rows_[p]++;
      }
    }
    table_.clear();
    mem_.ReleaseAll();
  }

  Status FlushBuildPartitions() {
    parts_.assign(kSpillFanout, SpillPart{});
    for (size_t p = 0; p < kSpillFanout; ++p) {
      if (build_rows_[p] == 0) continue;
      std::string data = build_out_[p].Release();
      std::string name = SpillName("b");
      NoteSpill(ctx_, stats_, data.size());
      HAWQ_RETURN_IF_ERROR(ctx_->local_disk->Write(name, std::move(data)));
      parts_[p].build_name = std::move(name);
    }
    build_out_.clear();
    build_rows_.clear();
    return Status::OK();
  }

  Status PartitionProbeSide() {
    std::vector<BufferWriter> out(kSpillFanout);
    std::vector<size_t> nrows(kSpillFanout, 0);
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, probe_->NextBatch(&in_));
      if (!more) break;
      for (size_t i = 0; i < in_.size(); ++i) {
        const Row& row = in_.selected(i);
        // NULL probe keys hash somewhere deterministic; their partition
        // has no matching build rows (build NULLs were dropped), so
        // left/anti semantics fall out of the normal per-partition probe.
        Row key = EvalAll(node_.probe_keys, row);
        const size_t p = SpillPartition(HashRow(key), /*depth=*/0,
                                        kSpillFanout);
        SerializeRow(row, &out[p]);
        nrows[p]++;
      }
    }
    for (size_t p = 0; p < kSpillFanout; ++p) {
      if (nrows[p] == 0) continue;
      std::string data = out[p].Release();
      std::string name = SpillName("p");
      NoteSpill(ctx_, stats_, data.size());
      HAWQ_RETURN_IF_ERROR(ctx_->local_disk->Write(name, std::move(data)));
      parts_[p].probe_name = std::move(name);
    }
    PruneDeadParts(&parts_);
    return Status::OK();
  }

  /// Drop partition pairs that can never emit: no probe rows, or (for
  /// inner/semi) no build rows either.
  void PruneDeadParts(std::vector<SpillPart>* parts) {
    std::vector<SpillPart> keep;
    for (SpillPart& sp : *parts) {
      const bool probe_only_emits = node_.join_type == plan::JoinType::kLeft ||
                                    node_.join_type == plan::JoinType::kAnti;
      const bool emits = !sp.probe_name.empty() &&
                         (probe_only_emits || !sp.build_name.empty());
      if (emits) {
        keep.push_back(std::move(sp));
      } else {
        if (!sp.build_name.empty()) ctx_->local_disk->Remove(sp.build_name);
        if (!sp.probe_name.empty()) ctx_->local_disk->Remove(sp.probe_name);
      }
    }
    *parts = std::move(keep);
  }

  /// Refill in_ with probe rows of the current spilled partition. A
  /// batch never spans two partitions: each is probed against its own
  /// resident build half, loaded only once the previous one is drained.
  Result<bool> NextSpilledProbe() {
    in_.Clear();
    while (true) {
      while (!in_.full() && probe_reader_.remaining() > 0) {
        HAWQ_RETURN_IF_ERROR(
            DeserializeRowInto(&probe_reader_, in_.EmplaceRow()));
      }
      if (!in_.empty()) return true;
      HAWQ_ASSIGN_OR_RETURN(bool loaded, LoadNextPartition());
      if (!loaded) return false;
    }
  }

  /// Pop the next partition pair, make its build half resident (re-split
  /// one level deeper if it still exceeds the budget), and point the
  /// probe reader at its probe rows.
  Result<bool> LoadNextPartition() {
    table_.clear();
    mem_.ReleaseAll();
    while (!parts_.empty()) {
      HAWQ_RETURN_IF_ERROR(ctx_->CheckCancel());
      SpillPart part = std::move(parts_.back());
      parts_.pop_back();
      std::string bdata;
      if (!part.build_name.empty()) {
        HAWQ_ASSIGN_OR_RETURN(bdata, ctx_->local_disk->Read(part.build_name));
      }
      bool fits = true;
      BufferReader r(bdata);
      while (r.remaining() > 0) {
        HAWQ_ASSIGN_OR_RETURN(Row brow, DeserializeRow(&r));
        Row key = EvalAll(node_.build_keys, brow);
        const int64_t bytes = ApproxRowBytes(brow) + ApproxRowBytes(key) + 48;
        if (!mem_.Charge(bytes)) {
          if (part.depth >= kMaxSpillDepth) {
            // Duplicate-heavy key cluster that re-splitting cannot break
            // up: run past the budget rather than loop forever.
            mem_.ChargeUnchecked(bytes);
          } else {
            fits = false;
            break;
          }
        }
        table_[KeyOf(key)].push_back(std::move(brow));
      }
      if (!fits) {
        HAWQ_RETURN_IF_ERROR(Repartition(part, bdata));
        table_.clear();
        mem_.ReleaseAll();
        continue;
      }
      if (!part.build_name.empty()) ctx_->local_disk->Remove(part.build_name);
      probe_data_.clear();
      if (!part.probe_name.empty()) {
        HAWQ_ASSIGN_OR_RETURN(probe_data_,
                              ctx_->local_disk->Read(part.probe_name));
        ctx_->local_disk->Remove(part.probe_name);
      }
      probe_reader_ = BufferReader(probe_data_);
      return true;
    }
    return false;
  }

  /// Split an oversized partition pair one level deeper. The per-depth
  /// salt in SpillPartition re-scatters keys that collided at this depth.
  Status Repartition(const SpillPart& part, const std::string& bdata) {
    const int depth = part.depth + 1;
    std::vector<SpillPart> kids(kSpillFanout);
    for (SpillPart& k : kids) k.depth = depth;
    HAWQ_RETURN_IF_ERROR(
        SplitFile(bdata, node_.build_keys, depth, "b", &kids));
    if (!part.build_name.empty()) ctx_->local_disk->Remove(part.build_name);
    if (!part.probe_name.empty()) {
      HAWQ_ASSIGN_OR_RETURN(std::string pdata,
                            ctx_->local_disk->Read(part.probe_name));
      ctx_->local_disk->Remove(part.probe_name);
      HAWQ_RETURN_IF_ERROR(
          SplitFile(pdata, node_.probe_keys, depth, "p", &kids));
    }
    PruneDeadParts(&kids);
    for (SpillPart& k : kids) parts_.push_back(std::move(k));
    return Status::OK();
  }

  Status SplitFile(const std::string& data, const std::vector<PExpr>& keys,
                   int depth, const char* side, std::vector<SpillPart>* kids) {
    std::vector<BufferWriter> out(kSpillFanout);
    std::vector<size_t> nrows(kSpillFanout, 0);
    BufferReader r(data);
    while (r.remaining() > 0) {
      HAWQ_ASSIGN_OR_RETURN(Row row, DeserializeRow(&r));
      Row key = EvalAll(keys, row);
      const size_t p = SpillPartition(HashRow(key), depth, kSpillFanout);
      SerializeRow(row, &out[p]);
      nrows[p]++;
    }
    const bool build = side[0] == 'b';
    for (size_t p = 0; p < kSpillFanout; ++p) {
      if (nrows[p] == 0) continue;
      std::string chunk = out[p].Release();
      std::string name = SpillName(side);
      NoteSpill(ctx_, stats_, chunk.size());
      HAWQ_RETURN_IF_ERROR(ctx_->local_disk->Write(name, std::move(chunk)));
      (build ? (*kids)[p].build_name : (*kids)[p].probe_name) =
          std::move(name);
    }
    return Status::OK();
  }

  /// Ship the bloom built over the drained build side. A local filter
  /// (join and scan share this worker) goes straight into the hub under
  /// the segment scope — the probe-side scan has not opened yet, so it is
  /// guaranteed to find it. A remote filter publishes this worker's
  /// partial part into the global scope AND broadcasts it over the
  /// interconnect, which models the wire; the hub dedups by part index so
  /// the loopback copy is harmless.
  void PublishFilter(const BloomFilter& bloom, obs::TraceClock::time_point t0) {
    // hawq-lint: allow(cancel-poll): runs once per build side, after the
    // build loop (whose child scan polls) has already drained; publish is
    // fire-and-forget and cannot block on a dead peer.
    common::chaos::Point("rf.publish");
    obs::MetricsRegistry* m = ctx_->metrics;
    if (m != nullptr) m->GetHistogram("rf.build_us")->Observe(UsSince(t0));
    auto p0 = obs::TraceClock::now();
    if (!node_.rf_remote) {
      ctx_->rf_hub->Publish(ctx_->query_id, node_.rf_id, ctx_->segment,
                            /*part=*/0, /*nparts=*/1, bloom);
    } else {
      ctx_->rf_hub->Publish(ctx_->query_id, node_.rf_id,
                            RuntimeFilterHub::kGlobalScope, ctx_->worker,
                            node_.rf_parts, bloom);
      if (ctx_->net != nullptr) {
        ctx_->net->PublishFilter(
            ctx_->query_id,
            RuntimeFilterHub::EncodePayload(node_.rf_id, ctx_->worker,
                                            node_.rf_parts, bloom));
      }
    }
    if (m != nullptr) m->GetHistogram("rf.publish_us")->Observe(UsSince(p0));
  }

  const PlanNode& node_;
  std::unique_ptr<ExecNode> probe_;
  std::unique_ptr<ExecNode> build_;
  ExecContext* ctx_;
  obs::NodeStats* stats_ = nullptr;
  // Declared before mem_: the reservation must drain back through the
  // operator tracker before the tracker is destroyed.
  std::unique_ptr<resource::MemoryTracker> op_mem_;
  resource::ScopedReservation mem_;
  std::unordered_map<std::string, std::vector<Row>> table_;
  // Input batch: build rows while the build side drains, then probe rows.
  // The probe row at probe_pos_ - 1 stays put while its matches_ are
  // still being emitted, across as many output batches as they fill.
  RowBatch in_;
  size_t probe_pos_ = 0;
  bool probe_done_ = false;
  std::vector<const Row*> matches_;
  size_t match_iter_ = 0;
  // Spill state (grace hash join). Once spilling_ flips it stays set;
  // the resident table_ then holds one partition at a time.
  bool spilling_ = false;
  bool probe_closed_ = false;
  uint64_t part_seq_ = 0;
  std::vector<BufferWriter> build_out_;
  std::vector<size_t> build_rows_;
  std::vector<SpillPart> parts_;
  std::string probe_data_;
  BufferReader probe_reader_{nullptr, 0};
};

// ------------------------------------------------------------- HashAgg

struct AggState {
  int64_t count = 0;
  Datum sum;
  Datum minmax;
  double avg_sum = 0;
  int64_t avg_count = 0;
  std::set<std::string> seen;  // DISTINCT

  /// Fold one input value (already evaluated; Null for COUNT(*)).
  void Update(const AggSpec& spec, const Datum& v) {
    if (spec.distinct) {
      if (v.is_null()) return;
      std::string k = KeyOf({v});
      if (!seen.insert(std::move(k)).second) return;
    }
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        if (spec.count_star || !v.is_null()) ++count;
        break;
      case AggSpec::Kind::kSum:
        if (!v.is_null()) AddTo(&sum, v);
        break;
      case AggSpec::Kind::kMin:
        if (!v.is_null() &&
            (minmax.is_null() || Datum::Compare(v, minmax) < 0)) {
          minmax = v;
        }
        break;
      case AggSpec::Kind::kMax:
        if (!v.is_null() &&
            (minmax.is_null() || Datum::Compare(v, minmax) > 0)) {
          minmax = v;
        }
        break;
      case AggSpec::Kind::kAvg:
        if (!v.is_null()) {
          avg_sum += v.as_double();
          ++avg_count;
        }
        break;
    }
  }

  static void AddTo(Datum* acc, const Datum& v) {
    if (acc->is_null()) {
      *acc = v;
      return;
    }
    if (acc->kind == Datum::Kind::kDouble || v.kind == Datum::Kind::kDouble) {
      *acc = Datum::Double(acc->as_double() + v.as_double());
    } else {
      *acc = Datum::Int(acc->as_int() + v.as_int());
    }
  }

  /// Width of one agg's partial state (columns).
  static int StateWidth(const AggSpec& spec) {
    return spec.kind == AggSpec::Kind::kAvg ? 2 : 1;
  }

  void EmitPartial(const AggSpec& spec, Row* out) const {
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        out->push_back(Datum::Int(count));
        break;
      case AggSpec::Kind::kSum:
        out->push_back(sum);
        break;
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax:
        out->push_back(minmax);
        break;
      case AggSpec::Kind::kAvg:
        out->push_back(Datum::Double(avg_sum));
        out->push_back(Datum::Int(avg_count));
        break;
    }
  }

  /// Merge a partial state starting at `col` of `in`.
  void MergePartial(const AggSpec& spec, const Row& in, int col) {
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        count += in[col].is_null() ? 0 : in[col].as_int();
        break;
      case AggSpec::Kind::kSum:
        if (!in[col].is_null()) AddTo(&sum, in[col]);
        break;
      case AggSpec::Kind::kMin:
        if (!in[col].is_null() &&
            (minmax.is_null() || Datum::Compare(in[col], minmax) < 0)) {
          minmax = in[col];
        }
        break;
      case AggSpec::Kind::kMax:
        if (!in[col].is_null() &&
            (minmax.is_null() || Datum::Compare(in[col], minmax) > 0)) {
          minmax = in[col];
        }
        break;
      case AggSpec::Kind::kAvg:
        if (!in[col].is_null()) avg_sum += in[col].as_double();
        if (!in[col + 1].is_null()) avg_count += in[col + 1].as_int();
        break;
    }
  }

  void EmitFinal(const AggSpec& spec, Row* out) const {
    switch (spec.kind) {
      case AggSpec::Kind::kCount:
        out->push_back(Datum::Int(count));
        break;
      case AggSpec::Kind::kSum:
        out->push_back(sum);
        break;
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax:
        out->push_back(minmax);
        break;
      case AggSpec::Kind::kAvg:
        out->push_back(avg_count == 0 ? Datum::Null()
                                      : Datum::Double(avg_sum / avg_count));
        break;
    }
  }
};

class HashAggExec : public ExecNode {
 public:
  HashAggExec(const PlanNode& node, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx),
        batch_size_(ctx->batch_size),
        op_mem_(MakeOpTracker("HashAgg", node, ctx)),
        mem_(op_mem_ != nullptr ? op_mem_.get() : ctx->mem),
        key_cols_(node.group_exprs.size()), arg_cols_(node.aggs.size()) {
    mem_.ChargeUnchecked(
        static_cast<int64_t>(batch_size_) * kRowSlotBytes);
  }

  Status Open() override {
    if (ctx_->trace != nullptr) {
      stats_ = ctx_->trace->StatsFor(node_.node_id, ctx_->segment);
      AttachMemMirror(op_mem_.get(), stats_);
    }
    HAWQ_RETURN_IF_ERROR(child_->Open());
    RowBatch batch(batch_size_);
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
      if (!more) break;
      HAWQ_RETURN_IF_ERROR(FoldBatch(batch));
    }
    HAWQ_RETURN_IF_ERROR(child_->Close());
    if (spilling_) HAWQ_RETURN_IF_ERROR(FlushSpill());
    // A grand aggregate (no groups) emits a row even for empty input —
    // but only in one place: the QD-side (single/final) phase. Partial
    // workers also emit so that states always flow.
    if (groups_.empty() && parts_.empty() && node_.group_exprs.empty()) {
      Entry e;
      e.states.resize(node_.aggs.size());
      // hawq-lint: allow(tracker-charge): single fixed-size entry, not
      // input-proportional growth.
      groups_[""] = std::move(e);
    }
    iter_ = groups_.begin();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    batch->Clear();
    while (!batch->full()) {
      if (iter_ == groups_.end()) {
        if (parts_.empty()) break;
        HAWQ_RETURN_IF_ERROR(ReplayNextPartition());
        continue;
      }
      const Entry& e = iter_->second;
      Row* out = batch->EmplaceRow();
      *out = e.key;
      for (size_t i = 0; i < node_.aggs.size(); ++i) {
        if (node_.phase == plan::AggPhase::kPartial) {
          e.states[i].EmitPartial(node_.aggs[i], out);
        } else {
          e.states[i].EmitFinal(node_.aggs[i], out);
        }
      }
      ++iter_;
    }
    return batch->size() > 0;
  }

 private:
  struct Entry {
    Row key;
    std::vector<AggState> states;
  };
  struct SpillPart {
    std::string name;
    int depth = 0;
  };

  /// Fold one batch of input rows into the group table. While the budget
  /// holds every key is resident. Once a new group fails its charge the
  /// operator freezes the resident set: rows for resident keys keep
  /// folding in place, rows for new keys spill raw (serialized input
  /// rows, partitioned by key hash) and are replayed per partition after
  /// the input drains. Each key folds in exactly one table instance, so
  /// DISTINCT and final-phase merges stay exact. Past kMaxSpillDepth the
  /// replay charges every new key unchecked and never spills: a
  /// pathological key stream can defeat the partition hash only so many
  /// times before completion wins over the budget.
  Status FoldBatch(RowBatch& batch) {
    const size_t n = batch.size();
    for (size_t g = 0; g < node_.group_exprs.size(); ++g) {
      node_.group_exprs[g].EvalBatch(batch, &key_cols_[g]);
    }
    if (node_.phase != plan::AggPhase::kFinal) {
      for (size_t a = 0; a < node_.aggs.size(); ++a) {
        if (!node_.aggs[a].count_star) {
          node_.aggs[a].arg.EvalBatch(batch, &arg_cols_[a]);
        }
      }
    }
    const Datum no_arg;  // COUNT(*) has no argument
    for (size_t i = 0; i < n; ++i) {
      Row key(node_.group_exprs.size());
      for (size_t g = 0; g < key.size(); ++g) {
        key[g] = std::move(key_cols_[g][i]);
      }
      std::string kb = KeyOf(key);
      auto it = groups_.find(kb);
      if (it == groups_.end()) {
        if (spilling_) {
          SpillInputRow(batch.selected(i), HashRow(key));
          continue;
        }
        const int64_t bytes =
            2 * ApproxRowBytes(key) +
            static_cast<int64_t>(node_.aggs.size() * sizeof(AggState)) + 64;
        if (out_depth_ > kMaxSpillDepth) {
          mem_.ChargeUnchecked(bytes);
        } else if (!mem_.Charge(bytes)) {
          if (ctx_->kill_on_exceed) {
            return BudgetExceeded(ctx_, "hash aggregate");
          }
          spilling_ = true;
          SpillInputRow(batch.selected(i), HashRow(key));
          continue;
        }
        it = groups_.emplace(std::move(kb), Entry{}).first;
        it->second.key = std::move(key);
        it->second.states.resize(node_.aggs.size());
      }
      Entry& entry = it->second;
      if (node_.phase == plan::AggPhase::kFinal) {
        const Row& in = batch.selected(i);
        int col = static_cast<int>(node_.group_exprs.size());
        for (size_t a = 0; a < node_.aggs.size(); ++a) {
          entry.states[a].MergePartial(node_.aggs[a], in, col);
          col += AggState::StateWidth(node_.aggs[a]);
        }
      } else {
        for (size_t a = 0; a < node_.aggs.size(); ++a) {
          entry.states[a].Update(
              node_.aggs[a],
              node_.aggs[a].count_star ? no_arg : arg_cols_[a][i]);
        }
      }
    }
    return Status::OK();
  }

  void SpillInputRow(const Row& in, uint64_t key_hash) {
    if (spill_out_.empty()) {
      spill_out_ = std::vector<BufferWriter>(kSpillFanout);
      spill_rows_.assign(kSpillFanout, 0);
    }
    const size_t p = SpillPartition(key_hash, out_depth_, kSpillFanout);
    SerializeRow(in, &spill_out_[p]);
    spill_rows_[p]++;
  }

  /// Write the buffered spill partitions to scratch disk and queue them
  /// for replay.
  Status FlushSpill() {
    for (size_t p = 0; p < spill_out_.size(); ++p) {
      if (spill_rows_[p] == 0) continue;
      std::string data = spill_out_[p].Release();
      std::string name = "agg_" + std::to_string(ctx_->query_id) + "_" +
                         std::to_string(ctx_->segment) + "_" +
                         std::to_string(node_.node_id) + "_" +
                         std::to_string(ctx_->worker) + "_" +
                         std::to_string(part_seq_++);
      NoteSpill(ctx_, stats_, data.size());
      HAWQ_RETURN_IF_ERROR(ctx_->local_disk->Write(name, std::move(data)));
      parts_.push_back({std::move(name), out_depth_});
    }
    spill_out_.clear();
    spill_rows_.clear();
    return Status::OK();
  }

  /// Re-aggregate one spilled partition with a fresh table. A partition
  /// whose distinct keys still exceed the budget spills again one depth
  /// deeper (new salt → new split); at kMaxSpillDepth it charges past
  /// the budget instead of recursing forever.
  Status ReplayNextPartition() {
    HAWQ_RETURN_IF_ERROR(ctx_->CheckCancel());
    groups_.clear();
    mem_.ReleaseAll();
    mem_.ChargeUnchecked(static_cast<int64_t>(batch_size_) * kRowSlotBytes);
    SpillPart part = std::move(parts_.back());
    parts_.pop_back();
    spilling_ = false;
    out_depth_ = part.depth + 1;
    HAWQ_ASSIGN_OR_RETURN(std::string data,
                          ctx_->local_disk->Read(part.name));
    ctx_->local_disk->Remove(part.name);
    BufferReader r(data);
    RowBatch batch(batch_size_);
    while (r.remaining() > 0) {
      batch.Clear();
      while (!batch.full() && r.remaining() > 0) {
        HAWQ_ASSIGN_OR_RETURN(Row row, DeserializeRow(&r));
        batch.PushRow(std::move(row));
      }
      HAWQ_RETURN_IF_ERROR(FoldBatch(batch));
    }
    if (spilling_) HAWQ_RETURN_IF_ERROR(FlushSpill());
    iter_ = groups_.begin();
    return Status::OK();
  }

  const PlanNode& node_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  size_t batch_size_;
  obs::NodeStats* stats_ = nullptr;
  // Declared before mem_: the reservation must drain back through the
  // operator tracker before the tracker is destroyed.
  std::unique_ptr<resource::MemoryTracker> op_mem_;
  resource::ScopedReservation mem_;
  // Batch-at-a-time scratch: group keys and aggregate arguments are
  // evaluated per column; only the table probe and fold stay per-row.
  std::vector<std::vector<Datum>> key_cols_;
  std::vector<std::vector<Datum>> arg_cols_;
  std::unordered_map<std::string, Entry> groups_;
  std::unordered_map<std::string, Entry>::iterator iter_ = groups_.end();
  // Spill state: raw input rows for non-resident keys, partitioned by
  // key hash, replayed per partition after the input drains.
  bool spilling_ = false;
  int out_depth_ = 0;
  uint64_t part_seq_ = 0;
  std::vector<BufferWriter> spill_out_;
  std::vector<size_t> spill_rows_;
  std::vector<SpillPart> parts_;
};

// ------------------------------------------------------------- Sort

class SortExec : public ExecNode {
 public:
  SortExec(const PlanNode& node, std::unique_ptr<ExecNode> child,
           ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx),
        op_mem_(MakeOpTracker("Sort", node, ctx)),
        mem_(op_mem_ != nullptr ? op_mem_.get() : ctx->mem) {
    mem_.ChargeUnchecked(
        static_cast<int64_t>(ctx->batch_size) * kRowSlotBytes);
  }

  Status Open() override {
    if (ctx_->trace != nullptr) {
      stats_ = ctx_->trace->StatsFor(node_.node_id, ctx_->segment);
      AttachMemMirror(op_mem_.get(), stats_);
    }
    HAWQ_RETURN_IF_ERROR(child_->Open());
    RowBatch batch(ctx_->batch_size);
    const int64_t slot_bytes =
        static_cast<int64_t>(ctx_->batch_size) * kRowSlotBytes;
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
      if (!more) break;
      rows_.reserve(rows_.size() + batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const int64_t bytes = ApproxRowBytes(batch.selected(i));
        if (!mem_.Charge(bytes)) {
          // Budget exhausted: spill the resident rows as one sorted run
          // (or fail, on a kill_on_exceed queue) and keep going.
          if (ctx_->kill_on_exceed) return BudgetExceeded(ctx_, "sort");
          HAWQ_RETURN_IF_ERROR(SpillRun());
          mem_.ReleaseAll();
          mem_.ChargeUnchecked(slot_bytes);
          mem_.ChargeUnchecked(bytes);
        }
        rows_.push_back(std::move(batch.selected(i)));
      }
    }
    HAWQ_RETURN_IF_ERROR(child_->Close());
    SortRows(&rows_);
    if (!runs_.empty()) {
      HAWQ_RETURN_IF_ERROR(MergeRuns());
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    batch->Clear();
    while (!batch->full() && pos_ < rows_.size()) {
      *batch->EmplaceRow() = std::move(rows_[pos_++]);
    }
    return batch->size() > 0;
  }

 private:
  bool Less(const Row& a, const Row& b) const {
    for (const plan::SortKey& k : node_.sort_keys) {
      int c = Datum::Compare(a[k.col], b[k.col]);
      if (c != 0) return k.desc ? c > 0 : c < 0;
    }
    return false;
  }

  void SortRows(std::vector<Row>* rows) const {
    std::stable_sort(rows->begin(), rows->end(),
                     [this](const Row& a, const Row& b) { return Less(a, b); });
  }

  Status SpillRun() {
    // External sort: sort the in-memory rows and spill them as one run to
    // the local scratch disk (paper §2.6's second disk-failure class).
    SortRows(&rows_);
    BufferWriter w;
    w.PutVarint(rows_.size());
    for (const Row& r : rows_) SerializeRow(r, &w);
    std::string name = "sort_run_" + std::to_string(ctx_->query_id) + "_" +
                       std::to_string(ctx_->segment) + "_" +
                       std::to_string(runs_.size());
    std::string data = w.Release();
    NoteSpill(ctx_, stats_, data.size());
    HAWQ_RETURN_IF_ERROR(ctx_->local_disk->Write(name, std::move(data)));
    runs_.push_back(name);
    rows_.clear();
    return Status::OK();
  }

  Status MergeRuns() {
    // Merge spilled runs with the resident rows (all sorted).
    std::vector<std::vector<Row>> all;
    all.push_back(std::move(rows_));
    for (const std::string& name : runs_) {
      HAWQ_ASSIGN_OR_RETURN(std::string data, ctx_->local_disk->Read(name));
      BufferReader r(data);
      HAWQ_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      std::vector<Row> run;
      run.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        HAWQ_ASSIGN_OR_RETURN(Row row, DeserializeRow(&r));
        run.push_back(std::move(row));
      }
      all.push_back(std::move(run));
      ctx_->local_disk->Remove(name);
    }
    std::vector<size_t> idx(all.size(), 0);
    std::vector<Row> merged;
    while (true) {
      int best = -1;
      for (size_t i = 0; i < all.size(); ++i) {
        if (idx[i] >= all[i].size()) continue;
        if (best < 0 || Less(all[i][idx[i]], all[best][idx[best]])) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;
      merged.push_back(std::move(all[best][idx[best]++]));
    }
    rows_ = std::move(merged);
    return Status::OK();
  }

  const PlanNode& node_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  // Declared before mem_: the reservation must drain back through the
  // operator tracker before the tracker is destroyed.
  std::unique_ptr<resource::MemoryTracker> op_mem_;
  resource::ScopedReservation mem_;
  std::vector<Row> rows_;
  std::vector<std::string> runs_;
  size_t pos_ = 0;
  obs::NodeStats* stats_ = nullptr;
};

// ------------------------------------------------------------- Limit

class LimitExec : public ExecNode {
 public:
  LimitExec(const PlanNode& node, std::unique_ptr<ExecNode> child)
      : node_(node), child_(std::move(child)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    if (emitted_ >= node_.limit) {
      batch->Clear();
      return false;
    }
    HAWQ_ASSIGN_OR_RETURN(bool more, child_->NextBatch(batch));
    if (!more) return false;
    // Cut the selection at the limit; rows past it stay unselected.
    const auto left = static_cast<size_t>(node_.limit - emitted_);
    if (batch->size() > left) batch->mutable_sel()->resize(left);
    emitted_ += static_cast<int64_t>(batch->size());
    return true;
  }
  Status Close() override { return child_->Close(); }

 private:
  const PlanNode& node_;
  std::unique_ptr<ExecNode> child_;
  int64_t emitted_ = 0;
};

// ------------------------------------------------------------- Result

class ResultExec : public ExecNode {
 public:
  explicit ResultExec(const PlanNode& node) : node_(node) {}
  Status Open() override { return Status::OK(); }
  Result<bool> NextBatch(RowBatch* batch) override {
    batch->Clear();
    while (!batch->full() && pos_ < node_.rows.size()) {
      *batch->EmplaceRow() = node_.rows[pos_++];
    }
    return batch->size() > 0;
  }

 private:
  const PlanNode& node_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- MotionRecv

class MotionRecvExec : public BatchExecNode {
 public:
  MotionRecvExec(const PlanNode& node, ExecContext* ctx)
      : BatchExecNode(node, ctx), node_(node), ctx_(ctx) {}

  Status Open() override {
    const MotionWiring& w = ctx_->wiring->at(node_.motion_id);
    HAWQ_ASSIGN_OR_RETURN(
        stream_, ctx_->net->OpenRecv(ctx_->query_id, node_.motion_id,
                                     ctx_->worker, ctx_->host,
                                     static_cast<int>(w.sender_hosts.size())));
    stream_->SetCancelToken(ctx_->cancel);
    if (ctx_->trace != nullptr) {
      stats_ = ctx_->trace->StatsFor(node_.node_id, ctx_->segment);
      span_ = ctx_->trace->StartSpan("motion.recv", ctx_->span,
                                     ctx_->slice_id, ctx_->segment,
                                     ctx_->worker, node_.motion_id);
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    common::chaos::Point("motion.recv");
    HAWQ_RETURN_IF_ERROR(ctx_->CheckCancel());
    batch->Clear();
    while (!batch->full()) {
      if (chunk_rows_left_ > 0) {
        HAWQ_RETURN_IF_ERROR(DeserializeRowInto(&reader_, batch->EmplaceRow()));
        --chunk_rows_left_;
        continue;
      }
      // A chunk may hold several count-prefixed groups (the MapReduce
      // fabric concatenates them when materializing shuffle files).
      if (reader_.remaining() > 0) {
        HAWQ_ASSIGN_OR_RETURN(chunk_rows_left_, reader_.GetVarint());
        continue;
      }
      // Only block on the interconnect when the batch is still empty;
      // otherwise hand what we have downstream and come back.
      if (batch->size() > 0) break;
      HAWQ_ASSIGN_OR_RETURN(auto chunk, stream_->Recv());
      if (!chunk.has_value()) return false;
      chunk_ = std::move(*chunk);
      if (stats_ != nullptr) {
        stats_->bytes.fetch_add(chunk_.size(), std::memory_order_relaxed);
      }
      reader_ = BufferReader(chunk_.data(), chunk_.size());
    }
    return batch->size() > 0;
  }

  Status Close() override {
    // Early close (LIMIT satisfied): tell senders to stop.
    if (stream_) stream_->Stop();
    if (ctx_->trace != nullptr) ctx_->trace->EndSpan(span_);
    return Status::OK();
  }

 private:
  const PlanNode& node_;
  ExecContext* ctx_;
  std::unique_ptr<net::RecvStream> stream_;
  std::string chunk_;
  BufferReader reader_{nullptr, 0};
  uint64_t chunk_rows_left_ = 0;
  obs::NodeStats* stats_ = nullptr;
  obs::Span* span_ = nullptr;
};

// ------------------------------------------------------------- Insert

class InsertExec : public ExecNode {
 public:
  InsertExec(const PlanNode& node, std::unique_ptr<ExecNode> child,
             ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override { return child_->Open(); }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (done_) return false;
    done_ = true;
    // One (lazily opened) writer per partition this segment receives
    // rows for; part_col routes each row to its range partition.
    std::vector<std::unique_ptr<storage::TableWriter>> writers(
        node_.insert_parts.size());
    std::vector<int64_t> counts(node_.insert_parts.size(), 0);
    storage::StorageOptions opts;
    opts.kind = node_.storage;
    opts.codec = node_.codec;
    opts.codec_level = node_.codec_level;
    int64_t total = 0;
    RowBatch batch(ctx_->batch_size);
    while (true) {
      HAWQ_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
      if (!more) break;
      for (size_t bi = 0; bi < batch.size(); ++bi) {
        const Row& in = batch.selected(bi);
        int part = 0;
        if (node_.insert_part_col >= 0) {
          part = -1;
          int64_t v = in[node_.insert_part_col].as_int();
          for (size_t i = 0; i < node_.insert_parts.size(); ++i) {
            if (v >= node_.insert_parts[i].lo && v < node_.insert_parts[i].hi) {
              part = static_cast<int>(i);
              break;
            }
          }
          if (part < 0) {
            return Status::InvalidArgument(
                "row does not match any partition of " + node_.table_name);
          }
        }
        if (!writers[part]) {
          const std::string& path =
              node_.insert_parts[part].files[ctx_->segment];
          HAWQ_ASSIGN_OR_RETURN(
              writers[part],
              storage::OpenTableWriter(ctx_->fs, path, node_.table_schema,
                                       opts, ctx_->segment));
        }
        HAWQ_RETURN_IF_ERROR(writers[part]->Append(in));
        ++counts[part];
        ++total;
      }
    }
    HAWQ_RETURN_IF_ERROR(child_->Close());
    for (size_t i = 0; i < writers.size(); ++i) {
      if (!writers[i]) continue;
      HAWQ_RETURN_IF_ERROR(writers[i]->Close());
      MutexLock g(*ctx_->side_mu);
      ctx_->insert_results->push_back(
          {node_.insert_parts[i].oid, ctx_->segment,
           node_.insert_parts[i].files[ctx_->segment],
           writers[i]->logical_eof(), counts[i],
           writers[i]->uncompressed_bytes()});
    }
    *out->EmplaceRow() = {Datum::Int(total)};
    return true;
  }

 private:
  const PlanNode& node_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  bool done_ = false;
};

ExternalScanFactory g_external_scan_factory;
VirtualScanFactory g_virtual_scan_factory;

}  // namespace

void SetExternalScanFactory(ExternalScanFactory factory) {
  g_external_scan_factory = std::move(factory);
}

void SetVirtualScanFactory(VirtualScanFactory factory) {
  g_virtual_scan_factory = std::move(factory);
}

namespace {
Result<std::unique_ptr<ExecNode>> BuildExecNodeImpl(const PlanNode& node,
                                                    ExecContext* ctx) {
  switch (node.kind) {
    case NodeKind::kSeqScan:
      return std::unique_ptr<ExecNode>(new SeqScanExec(node, ctx));
    case NodeKind::kExternalScan:
      if (!g_external_scan_factory) {
        return Status::NotSupported("no external scan factory registered");
      }
      return g_external_scan_factory(node, ctx);
    case NodeKind::kVirtualScan:
      if (!g_virtual_scan_factory) {
        return Status::NotSupported("no virtual scan factory registered");
      }
      return g_virtual_scan_factory(node, ctx);
    case NodeKind::kFilter: {
      HAWQ_ASSIGN_OR_RETURN(auto child, BuildExecNode(*node.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new FilterExec(node, std::move(child), ctx));
    }
    case NodeKind::kProject: {
      HAWQ_ASSIGN_OR_RETURN(auto child, BuildExecNode(*node.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new ProjectExec(node, std::move(child), ctx));
    }
    case NodeKind::kHashJoin: {
      HAWQ_ASSIGN_OR_RETURN(auto probe, BuildExecNode(*node.children[0], ctx));
      HAWQ_ASSIGN_OR_RETURN(auto build, BuildExecNode(*node.children[1], ctx));
      return std::unique_ptr<ExecNode>(
          new HashJoinExec(node, std::move(probe), std::move(build), ctx));
    }
    case NodeKind::kHashAgg: {
      HAWQ_ASSIGN_OR_RETURN(auto child, BuildExecNode(*node.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new HashAggExec(node, std::move(child), ctx));
    }
    case NodeKind::kSort: {
      HAWQ_ASSIGN_OR_RETURN(auto child, BuildExecNode(*node.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new SortExec(node, std::move(child), ctx));
    }
    case NodeKind::kLimit: {
      HAWQ_ASSIGN_OR_RETURN(auto child, BuildExecNode(*node.children[0], ctx));
      return std::unique_ptr<ExecNode>(new LimitExec(node, std::move(child)));
    }
    case NodeKind::kMotionRecv:
      return std::unique_ptr<ExecNode>(new MotionRecvExec(node, ctx));
    case NodeKind::kResult:
      return std::unique_ptr<ExecNode>(new ResultExec(node));
    case NodeKind::kInsert: {
      HAWQ_ASSIGN_OR_RETURN(auto child, BuildExecNode(*node.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new InsertExec(node, std::move(child), ctx));
    }
    case NodeKind::kMotionSend:
      return Status::Internal("MotionSend is a slice root, not an operator");
  }
  return Status::Internal("unknown plan node");
}
}  // namespace

Result<std::unique_ptr<ExecNode>> BuildExecNode(const PlanNode& node,
                                                ExecContext* ctx) {
  HAWQ_ASSIGN_OR_RETURN(auto built, BuildExecNodeImpl(node, ctx));
  if (ctx->trace != nullptr && node.node_id >= 0) {
    return std::unique_ptr<ExecNode>(new InstrumentedExec(
        std::move(built), ctx->trace->StatsFor(node.node_id, ctx->segment),
        ctx->prof_cell, node.node_id, static_cast<int>(node.kind)));
  }
  return built;
}

namespace {
Status RunSendSliceInner(const plan::PlanNode& send_root, ExecContext* ctx,
                         net::SendStream* stream);
}  // namespace

Status RunSendSlice(const plan::PlanNode& send_root, ExecContext* ctx) {
  if (send_root.kind != NodeKind::kMotionSend) {
    return Status::Internal("sender slice root must be MotionSend");
  }
  const MotionWiring& w = ctx->wiring->at(send_root.motion_id);
  HAWQ_ASSIGN_OR_RETURN(
      auto stream, ctx->net->OpenSend(ctx->query_id, send_root.motion_id,
                                      ctx->worker, ctx->host,
                                      w.receiver_hosts));
  stream->SetCancelToken(ctx->cancel);
  obs::Span* span = nullptr;
  if (ctx->trace != nullptr) {
    span = ctx->trace->StartSpan("motion.send", ctx->span, ctx->slice_id,
                                 ctx->segment, ctx->worker,
                                 send_root.motion_id);
  }
  Status st = RunSendSliceInner(send_root, ctx, stream.get());
  if (ctx->trace != nullptr) ctx->trace->EndSpan(span);
  if (!st.ok()) {
    // Deliver EoS anyway so downstream receivers terminate instead of
    // waiting forever for a failed sender.
    stream->SendEos();
  }
  return st;
}

namespace {
Status RunSendSliceInner(const plan::PlanNode& send_root, ExecContext* ctx,
                         net::SendStream* stream_ptr) {
  const MotionWiring& w = ctx->wiring->at(send_root.motion_id);
  int num_recv = static_cast<int>(w.receiver_hosts.size());
  net::SendStream* stream = stream_ptr;
  HAWQ_ASSIGN_OR_RETURN(auto child,
                        BuildExecNode(*send_root.children[0], ctx));
  HAWQ_RETURN_IF_ERROR(child->Open());

  struct Buf {
    BufferWriter w;
    uint64_t rows = 0;
  };
  std::vector<Buf> bufs(num_recv);
  obs::NodeStats* stats =
      ctx->trace != nullptr
          ? ctx->trace->StatsFor(send_root.node_id, ctx->segment)
          : nullptr;
  auto flush = [&](int r) -> Status {
    if (bufs[r].rows == 0) return Status::OK();
    BufferWriter chunk;
    chunk.PutVarint(bufs[r].rows);
    chunk.PutRaw(bufs[r].w.data().data(), bufs[r].w.size());
    if (stats != nullptr) {
      stats->rows.fetch_add(bufs[r].rows, std::memory_order_relaxed);
      stats->batches.fetch_add(1, std::memory_order_relaxed);
      stats->bytes.fetch_add(chunk.size(), std::memory_order_relaxed);
    }
    HAWQ_RETURN_IF_ERROR(stream->Send(r, chunk.Release()));
    bufs[r] = Buf();
    return Status::OK();
  };
  auto maybe_flush = [&](int r) -> Status {
    if (bufs[r].rows >= 128 || bufs[r].w.size() >= 32 * 1024) {
      return flush(r);
    }
    return Status::OK();
  };
  auto append = [&](int r, const Row& row) -> Status {
    SerializeRow(row, &bufs[r].w);
    ++bufs[r].rows;
    return maybe_flush(r);
  };

  // Pull whole batches from the slice and serialize a batch per chunk:
  // the per-chunk interconnect cost (framing, ack bookkeeping) is paid
  // once per batch instead of once per 128 rows.
  uint64_t rr = 0;
  RowBatch batch(ctx->batch_size);
  std::vector<std::vector<Datum>> hash_cols(send_root.hash_exprs.size());
  while (true) {
    common::chaos::Point("motion.send");
    HAWQ_RETURN_IF_ERROR(ctx->CheckCancel());
    if (stream->AllStopped()) break;  // LIMIT satisfied downstream
    HAWQ_ASSIGN_OR_RETURN(bool more, child->NextBatch(&batch));
    if (!more) break;
    const size_t n = batch.size();
    switch (send_root.motion) {
      case plan::MotionType::kGather:
        for (size_t i = 0; i < n; ++i) {
          SerializeRow(batch.selected(i), &bufs[0].w);
        }
        bufs[0].rows += n;
        HAWQ_RETURN_IF_ERROR(maybe_flush(0));
        break;
      case plan::MotionType::kBroadcast: {
        // Serialize the batch once, then splice the bytes into every
        // receiver's buffer.
        BufferWriter once;
        for (size_t i = 0; i < n; ++i) SerializeRow(batch.selected(i), &once);
        for (int r = 0; r < num_recv; ++r) {
          bufs[r].w.PutRaw(once.data().data(), once.size());
          bufs[r].rows += n;
          HAWQ_RETURN_IF_ERROR(maybe_flush(r));
        }
        break;
      }
      case plan::MotionType::kRedistribute: {
        if (send_root.hash_exprs.empty()) {
          for (size_t i = 0; i < n; ++i) {
            HAWQ_RETURN_IF_ERROR(append(
                static_cast<int>(rr++ % num_recv), batch.selected(i)));
          }
        } else {
          for (size_t e = 0; e < send_root.hash_exprs.size(); ++e) {
            send_root.hash_exprs[e].EvalBatch(batch, &hash_cols[e]);
          }
          Row key(send_root.hash_exprs.size());
          for (size_t i = 0; i < n; ++i) {
            for (size_t e = 0; e < key.size(); ++e) {
              key[e] = std::move(hash_cols[e][i]);
            }
            int r = static_cast<int>(HashRow(key) % num_recv);
            HAWQ_RETURN_IF_ERROR(append(r, batch.selected(i)));
          }
        }
        break;
      }
    }
  }
  for (int r = 0; r < num_recv; ++r) HAWQ_RETURN_IF_ERROR(flush(r));
  HAWQ_RETURN_IF_ERROR(stream->SendEos());
  HAWQ_RETURN_IF_ERROR(child->Close());
  return Status::OK();
}
}  // namespace

}  // namespace hawq::exec
