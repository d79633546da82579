#include "engine/stat_views.h"

#include <utility>

#include "engine/cluster.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace hawq::engine {

namespace {

catalog::TableDesc MakeViewDesc(std::string name,
                                std::vector<catalog::ColumnDesc> cols) {
  catalog::TableDesc d;
  d.name = std::move(name);
  d.columns = std::move(cols);
  d.storage = catalog::StorageKind::kVirtual;
  d.dist = catalog::DistPolicy::kRandom;
  d.reltuples = 128;  // planner hint; rings are bounded at this order
  return d;
}

Datum U64(uint64_t v) { return Datum::Int(static_cast<int64_t>(v)); }

// Builders share one signature so stat_view_names.inc can generate the
// dispatch; most views ignore the scanner's own query id.
std::vector<Row> MetricsRows(Cluster* c, uint64_t /*self_qid*/) {
  obs::MetricsRegistry* reg = c->metrics();
  std::vector<Row> rows;
  for (const auto& [name, v] : reg->SnapshotCounters()) {
    rows.push_back({Datum::Str(name), Datum::Str("counter"), U64(v),
                    Datum::Null(), Datum::Null(), Datum::Null(), Datum::Null(),
                    Datum::Null()});
  }
  for (const auto& [name, v] : reg->SnapshotGauges()) {
    rows.push_back({Datum::Str(name), Datum::Str("gauge"), Datum::Int(v),
                    Datum::Null(), Datum::Null(), Datum::Null(), Datum::Null(),
                    Datum::Null()});
  }
  for (const auto& [name, h] : reg->SnapshotHistograms()) {
    rows.push_back({Datum::Str(name), Datum::Str("histogram"), Datum::Null(),
                    U64(h.count), U64(h.sum), U64(h.p50), U64(h.p95),
                    U64(h.p99)});
  }
  return rows;
}

std::vector<Row> QueryRows(Cluster* c, uint64_t /*self_qid*/) {
  std::vector<Row> rows;
  for (obs::QueryRecord& q : c->query_log()->Snapshot()) {
    rows.push_back({U64(q.query_id), Datum::Str(std::move(q.text)),
                    Datum::Str(std::move(q.status)),
                    q.error.empty() ? Datum::Null()
                                    : Datum::Str(std::move(q.error)),
                    U64(q.duration_us), Datum::Int(q.rows),
                    Datum::Int(q.spill_bytes), Datum::Int(q.retransmits),
                    q.slow_explain.empty()
                        ? Datum::Null()
                        : Datum::Str(std::move(q.slow_explain)),
                    Datum::Str(std::move(q.queue)),
                    Datum::Int(q.peak_mem_bytes), Datum::Int(q.retries)});
  }
  return rows;
}

std::vector<Row> ResourceQueueRows(Cluster* c, uint64_t /*self_qid*/) {
  std::vector<Row> rows;
  for (const resource::QueueStats& q : c->admission()->Snapshot()) {
    rows.push_back({Datum::Str(q.name), Datum::Int(q.priority),
                    Datum::Int(q.max_active), Datum::Int(q.active),
                    Datum::Int(q.queued), U64(q.admitted),
                    U64(q.rejected), U64(q.killed),
                    Datum::Int(q.mem_used_bytes), Datum::Int(q.mem_quota_bytes),
                    Datum::Int(q.per_query_mem_bytes),
                    Datum::Str(q.kill_on_exceed ? "kill" : "spill")});
  }
  return rows;
}

std::vector<Row> SegmentRows(Cluster* c, uint64_t /*self_qid*/) {
  const auto& loads = c->dispatcher()->segment_loads();
  const auto& health = c->dispatcher()->segment_health();
  std::vector<Row> rows;
  for (const catalog::SegmentInfo& seg : c->catalog()->GetSegments()) {
    uint64_t busy = 0, nq = 0;
    if (seg.id >= 0 && seg.id < static_cast<int>(loads.size())) {
      busy = loads[seg.id].busy_us.load(std::memory_order_relaxed);
      nq = loads[seg.id].queries.load(std::memory_order_relaxed);
    }
    uint64_t last_hb = 0, restarts = 0;
    if (seg.id >= 0 && seg.id < static_cast<int>(health.size())) {
      last_hb = health[seg.id].last_heartbeat_us.load(std::memory_order_relaxed);
      restarts = health[seg.id].restarts.load(std::memory_order_relaxed);
    }
    hdfs::MiniHdfs::DataNodeIo io = c->hdfs()->DataNodeIoStats(seg.id);
    uint64_t spill = 0;
    if (seg.id >= 0 && seg.id < c->num_segments()) {
      spill = c->local_disk(seg.id)->bytes_written();
    }
    rows.push_back({Datum::Int(seg.id), Datum::Str(seg.host),
                    Datum::Str(seg.up ? "up" : "down"), U64(nq), U64(busy),
                    U64(io.bytes_read), U64(io.locality_hits),
                    U64(io.locality_misses), U64(spill), U64(last_hb),
                    U64(restarts)});
  }
  return rows;
}

std::vector<Row> EventRows(Cluster* c, uint64_t /*self_qid*/) {
  std::vector<Row> rows;
  for (obs::Event& e : c->events()->Snapshot()) {
    rows.push_back({U64(e.seq), U64(e.ts_us),
                    Datum::Str(obs::SeverityName(e.severity)),
                    Datum::Str(std::move(e.component)),
                    Datum::Str(std::move(e.event)),
                    Datum::Str(std::move(e.detail)),
                    e.query_id == 0 ? Datum::Null() : U64(e.query_id)});
  }
  return rows;
}

std::vector<Row> ActivityRows(Cluster* c, uint64_t self_qid) {
  std::vector<Row> rows;
  for (const obs::ActivitySnapshot& a : c->activity()->Snapshot(self_qid)) {
    // Per-slice progress ("s0:MotionRecv rows=12k" style, one clause per
    // slice root) and per-operator memory ("HashJoin#3=512000/812000"
    // used/peak) as compact strings: the view stays one row per query
    // while still exposing where the work and the bytes are.
    uint64_t rows_done = 0, batches = 0, bytes = 0;
    std::string slices, mem_ops;
    for (const obs::ActivityNodeProgress& n : a.nodes) {
      if (n.slice_root) {
        rows_done += n.rows;
        batches += n.batches;
        bytes += n.bytes;
        if (!slices.empty()) slices += " ";
        slices += "s" + std::to_string(n.slice_id) + ":" + n.label +
                  " rows=" + std::to_string(n.rows);
      }
      if (n.mem_used_bytes > 0 || n.mem_peak_bytes > 0) {
        if (!mem_ops.empty()) mem_ops += " ";
        mem_ops += n.label + "#" + std::to_string(n.node_id) + "=" +
                   std::to_string(n.mem_used_bytes) + "/" +
                   std::to_string(n.mem_peak_bytes);
      }
    }
    rows.push_back({a.query_id == 0 ? Datum::Null() : U64(a.query_id),
                    Datum::Str(a.text),
                    Datum::Str(obs::QueryStateName(a.state)),
                    Datum::Str(a.queue), U64(a.elapsed_us),
                    Datum::Int(a.retries), U64(rows_done), U64(batches),
                    U64(bytes),
                    slices.empty() ? Datum::Null() : Datum::Str(slices),
                    Datum::Int(a.mem_used_bytes),
                    Datum::Int(a.mem_peak_bytes),
                    mem_ops.empty() ? Datum::Null() : Datum::Str(mem_ops)});
  }
  return rows;
}

std::vector<Row> ProfileRows(Cluster* c, uint64_t /*self_qid*/) {
  std::vector<Row> rows;
  for (const obs::ProfileTable::Entry& e : c->profile()->Snapshot()) {
    rows.push_back({Datum::Str(plan::NodeKindName(
                        static_cast<plan::NodeKind>(e.kind))),
                    Datum::Str(obs::ProfPhaseName(e.phase)), U64(e.samples),
                    U64(e.self_us)});
  }
  return rows;
}

/// VirtualScan operator: synthesizes the view's rows from live engine
/// state at Open() (one consistent-enough snapshot per scan) and widens
/// them into the query's flat layout, mirroring ExternalScanExec.
// hawq-lint: allow(exec-source-cancel): rows are snapshotted at Open()
// into a bounded in-memory vector (ring sizes cap every view); NextBatch()
// does no I/O and cannot stall a cancelled query.
class VirtualScanExec : public exec::ExecNode {
 public:
  VirtualScanExec(const plan::PlanNode& node, exec::ExecContext* ctx,
                  Cluster* cluster)
      : node_(node), ctx_(ctx), cluster_(cluster) {}

  Status Open() override {
    // Rows exist only on the QD. A segment worker scanning the view (e.g.
    // after a redistribute for a join) produces nothing, so totals are
    // never multiplied by the segment count.
    if (ctx_->segment >= 0) return Status::OK();
    HAWQ_ASSIGN_OR_RETURN(rows_, BuildStatViewRows(cluster_, node_.table_name,
                                                   ctx_->query_id));
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    batch->Clear();
    while (!batch->full() && idx_ < rows_.size()) {
      Row& inner = rows_[idx_++];
      Row* out = batch->EmplaceRow();
      out->assign(node_.out_arity, Datum());
      for (size_t i = 0; i < inner.size(); ++i) {
        (*out)[node_.col_start + static_cast<int>(i)] = std::move(inner[i]);
      }
    }
    return batch->size() > 0;
  }

 private:
  const plan::PlanNode& node_;
  exec::ExecContext* ctx_;
  Cluster* cluster_;
  std::vector<Row> rows_;
  size_t idx_ = 0;
};

}  // namespace

std::vector<catalog::TableDesc> StatViewDefs() {
  using catalog::ColumnDesc;
  std::vector<catalog::TableDesc> defs;
  defs.push_back(MakeViewDesc(
      "hawq_stat_metrics",
      {ColumnDesc{"name", TypeId::kString, false},
       ColumnDesc{"kind", TypeId::kString, false},
       ColumnDesc{"value", TypeId::kInt64, true},
       ColumnDesc{"count", TypeId::kInt64, true},
       ColumnDesc{"sum", TypeId::kInt64, true},
       ColumnDesc{"p50", TypeId::kInt64, true},
       ColumnDesc{"p95", TypeId::kInt64, true},
       ColumnDesc{"p99", TypeId::kInt64, true}}));
  defs.push_back(MakeViewDesc(
      "hawq_stat_queries",
      {ColumnDesc{"query_id", TypeId::kInt64, false},
       ColumnDesc{"query", TypeId::kString, false},
       ColumnDesc{"status", TypeId::kString, false},
       ColumnDesc{"error", TypeId::kString, true},
       ColumnDesc{"duration_us", TypeId::kInt64, false},
       ColumnDesc{"rows", TypeId::kInt64, false},
       ColumnDesc{"spill_bytes", TypeId::kInt64, false},
       ColumnDesc{"retransmits", TypeId::kInt64, false},
       ColumnDesc{"slow_explain", TypeId::kString, true},
       ColumnDesc{"queue", TypeId::kString, false},
       ColumnDesc{"peak_mem_bytes", TypeId::kInt64, false},
       ColumnDesc{"retries", TypeId::kInt64, false}}));
  defs.push_back(MakeViewDesc(
      "hawq_stat_resource_queues",
      {ColumnDesc{"queue", TypeId::kString, false},
       ColumnDesc{"priority", TypeId::kInt64, false},
       ColumnDesc{"max_active", TypeId::kInt64, false},
       ColumnDesc{"active", TypeId::kInt64, false},
       ColumnDesc{"queued", TypeId::kInt64, false},
       ColumnDesc{"admitted", TypeId::kInt64, false},
       ColumnDesc{"rejected", TypeId::kInt64, false},
       ColumnDesc{"killed", TypeId::kInt64, false},
       ColumnDesc{"mem_used_bytes", TypeId::kInt64, false},
       ColumnDesc{"mem_quota_bytes", TypeId::kInt64, false},
       ColumnDesc{"per_query_mem_bytes", TypeId::kInt64, false},
       ColumnDesc{"overcommit_policy", TypeId::kString, false}}));
  defs.push_back(MakeViewDesc(
      "hawq_stat_segments",
      {ColumnDesc{"segment", TypeId::kInt64, false},
       ColumnDesc{"host", TypeId::kString, false},
       ColumnDesc{"status", TypeId::kString, false},
       ColumnDesc{"queries", TypeId::kInt64, false},
       ColumnDesc{"busy_us", TypeId::kInt64, false},
       ColumnDesc{"hdfs_bytes_read", TypeId::kInt64, false},
       ColumnDesc{"locality_hits", TypeId::kInt64, false},
       ColumnDesc{"locality_misses", TypeId::kInt64, false},
       ColumnDesc{"spill_bytes", TypeId::kInt64, false},
       ColumnDesc{"last_heartbeat_us", TypeId::kInt64, false},
       ColumnDesc{"restarts", TypeId::kInt64, false}}));
  defs.push_back(MakeViewDesc(
      "hawq_stat_events",
      {ColumnDesc{"seq", TypeId::kInt64, false},
       ColumnDesc{"ts_us", TypeId::kInt64, false},
       ColumnDesc{"severity", TypeId::kString, false},
       ColumnDesc{"component", TypeId::kString, false},
       ColumnDesc{"event", TypeId::kString, false},
       ColumnDesc{"detail", TypeId::kString, false},
       ColumnDesc{"query_id", TypeId::kInt64, true}}));
  defs.push_back(MakeViewDesc(
      "hawq_stat_activity",
      {ColumnDesc{"query_id", TypeId::kInt64, true},
       ColumnDesc{"query", TypeId::kString, false},
       ColumnDesc{"state", TypeId::kString, false},
       ColumnDesc{"queue", TypeId::kString, false},
       ColumnDesc{"elapsed_us", TypeId::kInt64, false},
       ColumnDesc{"retries", TypeId::kInt64, false},
       ColumnDesc{"rows", TypeId::kInt64, false},
       ColumnDesc{"batches", TypeId::kInt64, false},
       ColumnDesc{"bytes", TypeId::kInt64, false},
       ColumnDesc{"slices", TypeId::kString, true},
       ColumnDesc{"mem_used_bytes", TypeId::kInt64, false},
       ColumnDesc{"mem_peak_bytes", TypeId::kInt64, false},
       ColumnDesc{"mem_ops", TypeId::kString, true}}));
  defs.push_back(MakeViewDesc(
      "hawq_stat_profile",
      {ColumnDesc{"node_kind", TypeId::kString, false},
       ColumnDesc{"phase", TypeId::kString, false},
       ColumnDesc{"samples", TypeId::kInt64, false},
       ColumnDesc{"self_us", TypeId::kInt64, false}}));
  return defs;
}

Result<std::vector<Row>> BuildStatViewRows(Cluster* cluster,
                                           const std::string& view_name,
                                           uint64_t self_query_id) {
#define HAWQ_STAT_VIEW(name, builder) \
  if (view_name == name) return builder(cluster, self_query_id);
#include "engine/stat_view_names.inc"  // NOLINT
#undef HAWQ_STAT_VIEW
  return Status::NotFound("unknown system view: " + view_name);
}

Result<std::unique_ptr<exec::ExecNode>> MakeVirtualScanExec(
    const plan::PlanNode& node, exec::ExecContext* ctx, Cluster* cluster) {
  return std::unique_ptr<exec::ExecNode>(
      new VirtualScanExec(node, ctx, cluster));
}

}  // namespace hawq::engine
