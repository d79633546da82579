#include "engine/cluster.h"

#include <cstdio>
#include <cstdlib>

#include "common/durable.h"
#include "engine/session.h"
#include "engine/stat_views.h"
#include "executor/exec_node.h"
#include "obs/lock_profile.h"

namespace hawq::engine {

namespace {

/// Assign PXF fragments to segments: honour locality hints when the
/// preferred host is a live segment, round-robin otherwise (paper §6.3).
std::vector<plan::ScanFile> AssignFragments(
    const std::vector<pxf::Fragment>& frags, int num_segments) {
  std::vector<plan::ScanFile> out;
  int rr = 0;
  for (const pxf::Fragment& f : frags) {
    plan::ScanFile sf;
    sf.path = f.source;
    sf.segment = (f.preferred_host >= 0 && f.preferred_host < num_segments)
                     ? f.preferred_host
                     : (rr++ % num_segments);
    out.push_back(std::move(sf));
  }
  return out;
}

/// ExternalScan operator: runs the PXF connector for this segment's
/// fragments and widens rows into the query's flat layout.
class ExternalScanExec : public exec::ExecNode {
 public:
  ExternalScanExec(const plan::PlanNode& node, exec::ExecContext* ctx,
                   pxf::Registry* registry)
      : node_(node), ctx_(ctx), registry_(registry) {}

  Status Open() override {
    auto loc = pxf::ParseLocation(node_.ext_location);
    if (!loc.ok()) return loc.status();
    location_ = loc->first;
    HAWQ_ASSIGN_OR_RETURN(connector_, registry_->Get(loc->second));
    for (const plan::ScanFile& f : node_.files) {
      if (f.segment == ctx_->segment) fragments_.push_back(&f);
    }
    // Remap pushdown predicates from the wide layout to the external
    // schema's local column indices.
    std::map<int, int> remap;
    for (size_t i = 0; i < node_.table_schema.num_fields(); ++i) {
      remap[node_.col_start + static_cast<int>(i)] = static_cast<int>(i);
    }
    for (sql::PExpr q : node_.quals) {
      q.RemapCols(remap);
      pushdown_.push_back(std::move(q));
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    batch->Clear();
    while (!batch->full()) {
      // External connectors can stall or stream unboundedly; poll the
      // query's cancel token per row so teardown reaches this scan too.
      HAWQ_RETURN_IF_ERROR(ctx_->CheckCancel());
      if (!reader_) {
        if (frag_idx_ >= fragments_.size()) break;
        pxf::Fragment frag;
        frag.source = fragments_[frag_idx_++]->path;
        HAWQ_ASSIGN_OR_RETURN(
            reader_, connector_->Open(frag, node_.table_schema, pushdown_));
      }
      HAWQ_ASSIGN_OR_RETURN(bool more, reader_->Next(&inner_));
      if (!more) {
        reader_.reset();
        continue;
      }
      Row* out = batch->EmplaceRow();
      out->assign(node_.out_arity, Datum());
      for (size_t i = 0; i < inner_.size(); ++i) {
        (*out)[node_.col_start + static_cast<int>(i)] = std::move(inner_[i]);
      }
    }
    return batch->size() > 0;
  }

 private:
  const plan::PlanNode& node_;
  exec::ExecContext* ctx_;
  pxf::Registry* registry_;
  pxf::Connector* connector_ = nullptr;
  std::string location_;
  std::vector<const plan::ScanFile*> fragments_;
  std::vector<sql::PExpr> pushdown_;
  std::unique_ptr<pxf::RecordReader> reader_;
  Row inner_;  // connector row, recycled across calls
  size_t frag_idx_ = 0;
};

/// Construction-time durability failures leave no safe way to proceed: a
/// cluster that cannot recover or attach its WAL would silently serve
/// stale or unprotected data. Panic, as PostgreSQL does.
void DieUnlessOk(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "FATAL: %s failed: %s\n", what, s.message().c_str());
  std::abort();
}

}  // namespace

Cluster::Cluster(ClusterOptions opts)
    : opts_(opts),
      events_(opts.event_journal_capacity),
      query_log_(opts.query_log_capacity),
      mem_root_("cluster", opts.cluster_mem_budget),
      hbase_(opts.num_segments) {
  // Per-rank lock acquire-wait histograms ("sync.lock_wait_us.<rank>").
  // Installed before any substrate so their mutexes are profiled from the
  // first acquire; last-installed cluster wins, like the scan factories.
  if (opts_.lock_contention_profiling) {
    obs::InstallLockWaitProfiler(&metrics_);
  }
  c_retrans_ = metrics_.GetCounter("interconnect.udp.retransmissions");
  txm_.SetEventJournal(&events_);
  // Segment hosts double as HDFS DataNodes (collocation, Figure 1).
  fs_ = std::make_unique<hdfs::MiniHdfs>(opts_.num_segments, opts_.hdfs,
                                         &metrics_, &events_);
  if (!opts_.data_dir.empty()) {
    // Durable mode: load whatever the previous life's HDFS mirror holds,
    // then stitch the catalog back together from checkpoint + WAL before
    // anything else (segment registry, stat views) writes to it.
    DieUnlessOk(common::durable::EnsureDir(opts_.data_dir),
                "creating data_dir");
    DieUnlessOk(fs_->EnableDurability(opts_.data_dir + "/hdfs"),
                "loading the HDFS mirror");
  }
  catalog_ = std::make_unique<catalog::Catalog>(&txm_);
  if (!opts_.data_dir.empty()) {
    RecoveryOptions ro;
    ro.data_dir = opts_.data_dir;
    ro.fs = fs_.get();
    ro.events = &events_;
    auto rec = RunRecovery(ro, catalog_.get(), &txm_);
    DieUnlessOk(rec.ok() ? Status::OK() : rec.status(), "crash recovery");
    recovery_ = *rec;
    last_ckpt_lsn_ = recovery_.checkpoint_lsn;
    // New appends resume after the valid prefix (the torn tail, if any,
    // is truncated) and LSNs continue where the durable log left off.
    DieUnlessOk(txm_.wal().AttachDurable(
                    WalPath(opts_.data_dir), recovery_.wal_valid_bytes,
                    std::max(recovery_.max_lsn + 1, recovery_.checkpoint_lsn)),
                "attaching the durable WAL");
  }
  if (opts_.enable_standby) {
    standby_txm_ = std::make_unique<tx::TxManager>();
    standby_catalog_ = std::make_unique<catalog::Catalog>(standby_txm_.get());
    if (!opts_.data_dir.empty()) {
      // The standby replays the same durable files (catalog-only: no
      // filesystem mutation, no duplicate events) so log shipping resumes
      // from the same state the primary recovered to.
      RecoveryOptions ro;
      ro.data_dir = opts_.data_dir;
      auto rec = RunRecovery(ro, standby_catalog_.get(), standby_txm_.get());
      DieUnlessOk(rec.ok() ? Status::OK() : rec.status(), "standby recovery");
    }
    // Warm standby master synchronized by log shipping (paper §2.6).
    txm_.wal().Subscribe([this](const tx::WalRecord& rec) {
      standby_catalog_->ApplyWalRecord(rec);
    });
  }
  // Interconnect hosts: one per segment plus the master (QD).
  sim_net_ = std::make_unique<net::SimNet>(opts_.num_segments + 1, opts_.net);
  if (opts_.fabric == FabricKind::kUdp) {
    auto udp = std::make_unique<net::UdpFabric>(sim_net_.get(), opts_.udp,
                                                &metrics_, &events_);
    udp_fabric_ = udp.get();
    fabric_ = std::move(udp);
  } else {
    fabric_ = std::make_unique<net::TcpFabric>(opts_.num_segments + 1,
                                               opts_.tcp, &metrics_);
  }
  local_disks_ = std::vector<exec::LocalDisk>(opts_.num_segments + 1);
  // Runtime-filter parts broadcast over either fabric land in the hub
  // (which dedups by part index, so the publisher's loopback copy and any
  // duplicated UDP datagram are harmless).
  fabric_->SetFilterSink([this](uint64_t qid, const std::string& payload) {
    rf_hub_.PublishSerialized(qid, payload);
  });
  // Resource manager: admission queues over the cluster tracker, plus
  // the shared segment worker pool (paper §2.2). An unconfigured cluster
  // gets one permissive default queue.
  std::vector<resource::QueueOptions> queues = opts_.resource_queues;
  if (queues.empty()) queues.emplace_back();
  admission_ = std::make_unique<resource::AdmissionController>(
      &mem_root_, std::move(queues), opts_.max_active_total, &metrics_,
      &events_);
  int pool_threads = opts_.worker_pool_threads > 0
                         ? opts_.worker_pool_threads
                         : opts_.num_segments + 1;
  worker_pool_ =
      std::make_unique<resource::WorkerPool>(pool_threads, &metrics_);
  DispatchOptions dopts;
  dopts.num_segments = opts_.num_segments;
  dopts.compress_plan = opts_.compress_plans;
  dopts.pool = worker_pool_.get();
  dopts.metrics = &metrics_;
  dopts.journal = &events_;
  if (opts_.enable_runtime_filters) dopts.rf_hub = &rf_hub_;
  if (opts_.enable_activity) dopts.activity = &activity_;
  dopts.profiler = opts_.enable_profiler;
  dispatcher_ = std::make_unique<Dispatcher>(fs_.get(), fabric_.get(),
                                             &local_disks_, dopts);
  // Every segment starts with a fresh heartbeat.
  for (int s = 0; s < opts_.num_segments; ++s) {
    dispatcher_->StampHeartbeat(s, NowUs());
  }
  // Segment registry.
  for (int s = 0; s < opts_.num_segments; ++s) {
    catalog_->RegisterSegment({s, "seg" + std::to_string(s), 40000 + s, true});
  }
  // Register the hawq_stat_* system views in a bootstrap transaction
  // (after the standby's WAL subscription so it replays them too).
  {
    auto txn = txm_.Begin();
    for (catalog::TableDesc& d : StatViewDefs()) {
      auto created = catalog_->CreateTable(txn.get(), std::move(d));
      (void)created;
    }
    txm_.Commit(txn.get());
  }
  // Virtual scan hook: synthesize system-view rows on the QD.
  exec::SetVirtualScanFactory(
      [this](const plan::PlanNode& node, exec::ExecContext* ctx)
          -> Result<std::unique_ptr<exec::ExecNode>> {
        return MakeVirtualScanExec(node, ctx, this);
      });
  // Built-in PXF connectors.
  pxf_.Register("HdfsTextSimple",
                std::make_unique<pxf::HdfsTextConnector>(fs_.get()));
  pxf_.Register("SequenceFile",
                std::make_unique<pxf::SeqFileConnector>(fs_.get()));
  pxf_.Register("HBase", std::make_unique<pxf::HBaseConnector>(&hbase_));
  // External scan hook for the executor.
  exec::SetExternalScanFactory(
      [this](const plan::PlanNode& node, exec::ExecContext* ctx)
          -> Result<std::unique_ptr<exec::ExecNode>> {
        return std::unique_ptr<exec::ExecNode>(
            new ExternalScanExec(node, ctx, &pxf_));
      });
  // Trace export directory: explicit option wins, HAWQ_TRACE_DIR is the
  // operator-facing fallback, empty disables export.
  trace_dir_ = opts_.trace_dir;
  if (trace_dir_.empty()) {
    if (const char* env = std::getenv("HAWQ_TRACE_DIR")) trace_dir_ = env;
  }
  if (opts_.fault_detector_thread) {
    detector_running_ = true;
    detector_ = std::thread([this] { FaultDetectorLoop(); });
  }
  if (opts_.enable_profiler) {
    profiler_running_ = true;
    profiler_ = std::thread([this] { ProfilerLoop(); });
  }
}

Cluster::~Cluster() {
  if (profiler_running_.exchange(false) && profiler_.joinable()) {
    profiler_.join();
  }
  if (detector_running_.exchange(false) && detector_.joinable()) {
    detector_.join();
  }
  // Clean shutdown leaves a fresh checkpoint so the next life replays
  // almost nothing. Skipped under a simulated crash: a dead process
  // writes no farewell checkpoint (that is the whole point of the test).
  if (!opts_.data_dir.empty() && !common::durable::SimulatedCrash()) {
    (void)Checkpoint();
  }
  // Stop feeding histograms owned by metrics_ before members destruct.
  if (opts_.lock_contention_profiling) obs::UninstallLockWaitProfiler();
}

Status Cluster::Checkpoint() {
  if (opts_.data_dir.empty()) return Status::OK();
  HAWQ_ASSIGN_OR_RETURN(uint64_t lsn,
                        WriteCheckpoint(opts_.data_dir, catalog_.get(), &txm_));
  last_ckpt_lsn_.store(lsn, std::memory_order_relaxed);
  return Status::OK();
}

std::unique_ptr<Session> Cluster::Connect() {
  return std::unique_ptr<Session>(new Session(this));
}

plan::PlannerOptions Cluster::PlannerOptionsFor() {
  plan::PlannerOptions po = opts_.planner;
  po.num_segments = opts_.num_segments;
  po.enable_zone_maps = opts_.enable_zone_maps;
  po.enable_runtime_filters = opts_.enable_runtime_filters;
  po.runtime_filter_wait_us = opts_.runtime_filter_wait_us;
  po.external_fragmenter =
      [this](const std::string& location, const std::string& profile)
      -> Result<std::vector<plan::ScanFile>> {
    auto parsed = pxf::ParseLocation(location);
    if (!parsed.ok()) return parsed.status();
    (void)profile;
    HAWQ_ASSIGN_OR_RETURN(pxf::Connector * conn, pxf_.Get(parsed->second));
    HAWQ_ASSIGN_OR_RETURN(auto frags, conn->Fragments(parsed->first));
    return AssignFragments(frags, opts_.num_segments);
  };
  return po;
}

void Cluster::FailSegment(int segment) {
  events_.Log(obs::Severity::kWarn, "engine", "segment_failed",
              "segment " + std::to_string(segment) +
                  " host killed; queries fail over to live segments");
  // Flip physical liveness first so in-flight slices on the segment fail
  // at their next batch boundary (QE death), then kill its DataNode.
  dispatcher_->SetSegmentAlive(segment, false);
  fs_->FailDataNode(segment);
  RunFaultDetectorOnce();
}

void Cluster::RecoverSegment(int segment) {
  events_.Log(obs::Severity::kInfo, "engine", "segment_recovered",
              "segment " + std::to_string(segment) + " host back online");
  dispatcher_->SetSegmentAlive(segment, true);
  fs_->RecoverDataNode(segment);
  RunFaultDetectorOnce();
}

uint64_t Cluster::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void Cluster::RunFaultDetectorOnce() {
  // Heartbeat model (paper §2.6): live DataNodes heartbeat the master on
  // every detector pass; a segment is only marked down in the catalog
  // once it has been silent for heartbeat_timeout_ms. Marking down fires
  // a segment_down kError event; hearing from a down segment again marks
  // it up (segment_up).
  const uint64_t now_us = NowUs();
  const uint64_t timeout_us = opts_.heartbeat_timeout_ms * 1000;
  const auto& health = dispatcher_->segment_health();
  for (const catalog::SegmentInfo& seg : catalog_->GetSegments()) {
    if (seg.id < 0 || seg.id >= static_cast<int>(health.size())) continue;
    bool alive = fs_->IsDataNodeAlive(seg.id);
    if (alive) {
      dispatcher_->StampHeartbeat(seg.id, now_us);
      if (!seg.up) {
        catalog_->SetSegmentStatus(seg.id, true);
        events_.Log(obs::Severity::kInfo, "fault_detector", "segment_up",
                    "segment " + std::to_string(seg.id) +
                        " heartbeating again; marked up");
      }
      continue;
    }
    if (!seg.up) continue;  // already detected
    uint64_t last =
        health[seg.id].last_heartbeat_us.load(std::memory_order_relaxed);
    if (now_us - last >= timeout_us) {
      catalog_->SetSegmentStatus(seg.id, false);
      events_.Log(obs::Severity::kError, "fault_detector", "segment_down",
                  "segment " + std::to_string(seg.id) + " missed heartbeats " +
                      "for " + std::to_string((now_us - last) / 1000) +
                      " ms; marked down");
    }
  }
}

std::vector<bool> Cluster::SegmentUpMask() {
  std::vector<bool> up(opts_.num_segments, false);
  for (const catalog::SegmentInfo& seg : catalog_->GetSegments()) {
    if (seg.id >= 0 && seg.id < opts_.num_segments) up[seg.id] = seg.up;
  }
  return up;
}

void Cluster::FaultDetectorLoop() {
  while (detector_running_.load(std::memory_order_relaxed)) {
    RunFaultDetectorOnce();
    // Piggyback the checkpointer on the detector's cadence: once enough
    // WAL accumulates past the last checkpoint, cut a new one so restart
    // replay stays short.
    if (!opts_.data_dir.empty() && opts_.checkpoint_every_records > 0 &&
        txm_.wal().next_lsn() - last_ckpt_lsn_.load(std::memory_order_relaxed) >=
            opts_.checkpoint_every_records) {
      (void)Checkpoint();
    }
    for (int i = 0; i < 10 && detector_running_.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

void Cluster::ProfilerLoop() {
  // Wall-clock sampling profiler (on by default): each tick reads the
  // ProfCells of every live traced query — one relaxed atomic load per
  // gang worker — and charges the period to the (node kind, phase) the
  // worker was inside. Queries never block on the sampler and the
  // sampler never blocks on queries; an idle cluster costs one registry
  // snapshot per tick.
  obs::Counter* c_samples = metrics_.GetCounter("obs.profiler_samples");
  const uint64_t period = opts_.profiler_period_us > 0
                              ? opts_.profiler_period_us
                              : uint64_t{1000};
  while (profiler_running_.load(std::memory_order_relaxed)) {
    for (const std::shared_ptr<obs::QueryTrace>& trace :
         activity_.LiveTraces()) {
      std::vector<uint64_t> states = trace->SampleProfCells();
      if (states.empty()) continue;
      profile_.Accumulate(states, period);
      c_samples->Add(states.size());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(period));
  }
}

int Cluster::AcquireLane(catalog::TableOid oid) {
  MutexLock g(lanes_mu_);
  std::set<int>& used = lanes_in_use_[oid];
  int lane = 0;
  while (used.count(lane)) ++lane;
  used.insert(lane);
  return lane;
}

void Cluster::ReleaseLane(catalog::TableOid oid, int lane) {
  MutexLock g(lanes_mu_);
  lanes_in_use_[oid].erase(lane);
}

std::string Cluster::SegFilePath(catalog::TableOid oid, int segment,
                                 int lane) const {
  return "/hawq/seg" + std::to_string(segment) + "/t" + std::to_string(oid) +
         "." + std::to_string(lane);
}

}  // namespace hawq::engine
