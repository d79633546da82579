// Pipelined (volcano) executor operators built from deserialized
// self-described plan slices. Motion operators exchange serialized tuple
// chunks through the interconnect, so slices stream into each other
// without stage materialization (paper §3 / Figure 4).
#pragma once

#include <functional>
#include <memory>

#include "common/status.h"
#include "common/types.h"
#include "executor/exec_context.h"
#include "planner/plan_node.h"

namespace hawq::exec {

/// \brief One pull interface for every operator: NextBatch.
///
/// NextBatch clears `batch`, fills it with up to batch->capacity() rows
/// and returns true iff at least one row is *selected*; false means end
/// of stream. Operators that produce rows one at a time (a join's pending
/// matches, an aggregate's group iterator, a sort's output cursor) keep
/// that cross-batch position in their own members, never in the batch.
class ExecNode {
 public:
  virtual ~ExecNode() = default;
  virtual Status Open() = 0;
  virtual Result<bool> NextBatch(RowBatch* batch) = 0;
  virtual Status Close() { return Status::OK(); }
};

/// Estimated bytes retained per recycled RowBatch row slot. Slot pools
/// are charged unchecked against the query tracker (they are small and
/// fixed-size, so they inform the peak rather than trigger spills).
constexpr int64_t kRowSlotBytes = 64;

/// \brief Base for streaming operators that recycle their output row
/// slots (SeqScan, Filter, Project, MotionRecv): charges that fixed slot
/// pool to the query's memory accounting.
class BatchExecNode : public ExecNode {
 public:
  /// The slot pool gets its own child tracker ("SlotPool#<node_id>")
  /// under the query tracker, mirrored into the node's trace stats, so
  /// per-operator memory attribution separates fixed slot pools from
  /// data-proportional build memory.
  BatchExecNode(const plan::PlanNode& node, ExecContext* ctx)
      : slot_mem_(ctx->mem != nullptr && node.node_id >= 0
                      ? std::make_unique<resource::MemoryTracker>(
                            "SlotPool#" + std::to_string(node.node_id),
                            resource::MemoryTracker::kUnlimited, ctx->mem)
                      : nullptr),
        pool_(slot_mem_ != nullptr ? slot_mem_.get() : ctx->mem) {
    if (slot_mem_ != nullptr && ctx->trace != nullptr) {
      obs::NodeStats* stats = ctx->trace->StatsFor(node.node_id, ctx->segment);
      slot_mem_->SetMirror(&stats->mem_used_bytes, &stats->mem_peak_bytes);
    }
    pool_.ChargeUnchecked(static_cast<int64_t>(ctx->batch_size) *
                          kRowSlotBytes);
  }

 private:
  // Declared before pool_: the reservation drains back through the slot
  // tracker before the tracker is destroyed.
  std::unique_ptr<resource::MemoryTracker> slot_mem_;
  resource::ScopedReservation pool_{nullptr};
};

/// Build the operator tree for one plan subtree on this worker.
Result<std::unique_ptr<ExecNode>> BuildExecNode(const plan::PlanNode& node,
                                                ExecContext* ctx);

/// Hook installed by the PXF module so ExternalScan nodes can execute
/// without the executor depending on PXF.
using ExternalScanFactory =
    std::function<Result<std::unique_ptr<ExecNode>>(const plan::PlanNode&,
                                                    ExecContext*)>;
void SetExternalScanFactory(ExternalScanFactory factory);

/// Hook installed by the engine so VirtualScan nodes (hawq_stat_* system
/// views) can snapshot live cluster state without the executor depending
/// on the engine.
using VirtualScanFactory =
    std::function<Result<std::unique_ptr<ExecNode>>(const plan::PlanNode&,
                                                    ExecContext*)>;
void SetVirtualScanFactory(VirtualScanFactory factory);

/// Run a sender slice to completion: pull rows from below the MotionSend
/// root, route them (gather/broadcast/redistribute), and deliver EoS.
Status RunSendSlice(const plan::PlanNode& send_root, ExecContext* ctx);

}  // namespace hawq::exec
