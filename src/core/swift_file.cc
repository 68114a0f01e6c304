#include "src/core/swift_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>

#include "src/core/erasure.h"
#include "src/proto/message.h"
#include "src/util/buffer.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace swift {

namespace {

// Registry metrics shared by every SwiftFile in the process.
struct FileMetrics {
  HistogramMetric* read_us;
  HistogramMetric* write_us;
  HistogramMetric* degraded_read_us;
  Counter* parity_reconstructions;
  Counter* read_repairs;
  Counter* hedge_attempts;
  Counter* hedge_wins;
  Counter* hedge_suppressed;
  Counter* multi_failure_repairs;
};

const FileMetrics& Metrics() {
  static const FileMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return FileMetrics{
        registry.GetHistogram("swift_file_read_latency_us"),
        registry.GetHistogram("swift_file_write_latency_us"),
        registry.GetHistogram("swift_file_degraded_read_latency_us"),
        registry.GetCounter("swift_file_parity_reconstructions_total"),
        registry.GetCounter("swift_file_read_repairs_total"),
        registry.GetCounter("swift_hedge_attempts_total"),
        registry.GetCounter("swift_hedge_wins_total"),
        registry.GetCounter("swift_hedge_suppressed_total"),
        registry.GetCounter("swift_erasure_multi_failure_repairs_total"),
    };
  }();
  return metrics;
}

// Process-global hedge budget: a hedge is admitted only while the hedge count
// stays at or under 5% of hedge-eligible reads. The first 19 reads can never
// hedge — the warm-up doubles as protection against hedging on a cold RTT
// estimate.
struct HedgeGovernor {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> hedges{0};
  bool Admit() {
    const uint64_t r = reads.load(std::memory_order_relaxed);
    uint64_t h = hedges.load(std::memory_order_relaxed);
    for (;;) {
      if ((h + 1) * 20 > r) {
        return false;
      }
      if (hedges.compare_exchange_weak(h, h + 1, std::memory_order_relaxed)) {
        return true;
      }
    }
  }
};

HedgeGovernor& Governor() {
  static HedgeGovernor governor;
  return governor;
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Combines a batch's per-column statuses into one. kUnavailable wins — it is
// the signal the retry loops react to (re-plan degraded) — otherwise the
// first failure sticks.
Status Aggregate(const std::vector<Status>& statuses) {
  Status first = OkStatus();
  for (const Status& status : statuses) {
    if (status.ok()) {
      continue;
    }
    if (status.code() == StatusCode::kUnavailable) {
      return status;
    }
    if (first.ok()) {
      first = status;
    }
  }
  return first;
}

// Parity time accumulated on this thread for the enclosing root span.
// Reconstruction and parity-maintenance run synchronously on the PRead/PWrite
// caller thread (the XOR folds inside them land on completion threads, but
// the caller blocks in batch.Wait()), so a thread-local covers the call tree.
thread_local uint64_t t_parity_ns = 0;
thread_local uint64_t t_parity_first_ns = 0;
thread_local uint32_t t_parity_depth = 0;

// Charges the enclosing scope for one parity section. Only the outermost
// timer records (WriteRowParity may call ReconstructUnitInto — counting both
// would double-charge the stage).
class ParityTimer {
 public:
  ParityTimer() : active_(CurrentTraceContext().present()) {
    if (active_ && t_parity_depth++ == 0) {
      begin_ns_ = TraceNowNs();
    }
  }
  ~ParityTimer() {
    if (!active_) {
      return;
    }
    --t_parity_depth;
    if (begin_ns_ != 0) {
      if (t_parity_first_ns == 0) {
        t_parity_first_ns = begin_ns_;
      }
      t_parity_ns += TraceNowNs() - begin_ns_;
    }
  }
  ParityTimer(const ParityTimer&) = delete;
  ParityTimer& operator=(const ParityTimer&) = delete;

 private:
  bool active_;
  uint64_t begin_ns_ = 0;
};

// Root span for one client-visible file operation (label "pread"/"pwrite").
// Installs the ambient context every transport op spawned below inherits; on
// destruction folds in the thread's parity time and submits the span. A
// no-op when an outer trace context already covers this call (nested ops,
// scrub-triggered repairs) or tracing is off.
class RootSpanScope {
 public:
  RootSpanScope(const char* label, std::atomic<uint64_t>& last_trace_id) {
    if (CurrentTraceContext().present()) {
      return;  // part of an enclosing traced operation
    }
    TraceContext context = NewRootContext();
    if (!context.present()) {
      return;
    }
    span_.trace_id = context.trace_id;
    span_.span_id = NextSpanId();
    span_.parent_span_id = 0;
    span_.node = TraceNodeId();
    span_.sampled = context.sampled();
    span_.start_ns = TraceNowNs();
    span_.label = label;
    context.parent_span_id = span_.span_id;
    t_parity_ns = 0;
    t_parity_first_ns = 0;
    scope_.emplace(context);
    SetThreadRootSpan(&span_);
    last_trace_id.store(context.trace_id, std::memory_order_relaxed);
  }
  ~RootSpanScope() {
    if (!scope_.has_value()) {
      return;
    }
    scope_.reset();  // restore the ambient context before submitting
    SetThreadRootSpan(nullptr);
    span_.end_ns = TraceNowNs();
    if (t_parity_ns != 0) {
      span_.events.push_back({SpanStage::kParity, t_parity_first_ns, t_parity_ns, 0});
      t_parity_ns = 0;
      t_parity_first_ns = 0;
    }
    SpanStore::Global().Submit(std::move(span_));
  }
  RootSpanScope(const RootSpanScope&) = delete;
  RootSpanScope& operator=(const RootSpanScope&) = delete;

 private:
  Span span_;
  std::optional<ScopedTraceContext> scope_;
};

}  // namespace

SwiftFile::SwiftFile(std::string name, StripeConfig stripe,
                     std::vector<AgentTransport*> transports, ObjectDirectory* directory,
                     DistributionAgent::Options io_options)
    : name_(std::move(name)),
      layout_(stripe),
      distribution_(std::move(transports), io_options),
      directory_(directory),
      handles_(stripe.num_agents, 0),
      open_(stripe.num_agents),
      failed_(stripe.num_agents) {}

SwiftFile::~SwiftFile() {
  if (!closed_) {
    (void)Close();
  }
}

Result<std::unique_ptr<SwiftFile>> SwiftFile::Create(const TransferPlan& plan,
                                                     std::vector<AgentTransport*> transports,
                                                     ObjectDirectory* directory,
                                                     DistributionAgent::Options io_options) {
  SWIFT_RETURN_IF_ERROR(plan.stripe.Validate());
  if (transports.size() != plan.stripe.num_agents) {
    return InvalidArgumentError("transport count does not match the plan's stripe width");
  }
  ObjectMetadata metadata;
  metadata.name = plan.object_name;
  metadata.stripe = plan.stripe;
  metadata.agent_ids = plan.agent_ids;
  metadata.size = 0;
  SWIFT_RETURN_IF_ERROR(directory->Create(metadata));

  std::unique_ptr<SwiftFile> file(
      new SwiftFile(plan.object_name, plan.stripe, std::move(transports), directory, io_options));
  Status status = file->OpenAgentFiles(kOpenCreate | kOpenTruncate);
  if (!status.ok()) {
    (void)directory->Remove(plan.object_name);
    return status;
  }
  return file;
}

Result<std::unique_ptr<SwiftFile>> SwiftFile::Open(const std::string& name,
                                                   std::vector<AgentTransport*> transports,
                                                   ObjectDirectory* directory,
                                                   DistributionAgent::Options io_options) {
  SWIFT_ASSIGN_OR_RETURN(ObjectMetadata metadata, directory->Lookup(name));
  if (transports.size() != metadata.stripe.num_agents) {
    return InvalidArgumentError("transport count does not match the object's stripe width");
  }
  std::unique_ptr<SwiftFile> file(
      new SwiftFile(name, metadata.stripe, std::move(transports), directory, io_options));
  file->size_ = metadata.size;
  SWIFT_RETURN_IF_ERROR(file->OpenAgentFiles(kOpenCreate));
  return file;
}

Status SwiftFile::OpenAgentFiles(uint32_t flags) {
  const uint32_t agents = layout_.config().num_agents;
  std::vector<std::function<Status()>> jobs(agents);
  for (uint32_t c = 0; c < agents; ++c) {
    jobs[c] = [this, c, flags]() -> Status {
      auto result = distribution_.transport(c)->Open(name_, flags);
      if (!result.ok()) {
        return result.status();
      }
      handles_[c] = result->handle;
      open_[c].store(true);
      return OkStatus();
    };
  }
  const std::vector<Status> statuses = distribution_.RunPerAgent(std::move(jobs));
  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  for (uint32_t c = 0; c < agents; ++c) {
    const Status& status = statuses[c];
    if (status.code() == StatusCode::kUnavailable && parity_on) {
      // Degraded open: a dead agent within the parity budget must not make
      // the object unavailable (§2). The column is marked failed; the data
      // path reconstructs through the codec.
      MarkColumnFailed(c);
      continue;
    }
    SWIFT_RETURN_IF_ERROR(status);
  }
  if (failed_count_.load() > ParityBudget()) {
    return DataLossError("more storage agents unavailable at open than parity units cover");
  }
  return OkStatus();
}

uint32_t SwiftFile::ParityBudget() const { return layout_.config().ParityUnitsPerRow(); }

Status SwiftFile::Close() {
  if (closed_) {
    return OkStatus();
  }
  closed_ = true;
  Status first_error = OkStatus();
  if (directory_ != nullptr) {
    Status status = directory_->UpdateSize(name_, size_);
    if (!status.ok()) {
      first_error = status;
    }
  }
  const uint32_t agents = layout_.config().num_agents;
  std::vector<std::function<Status()>> jobs(agents);
  for (uint32_t c = 0; c < agents; ++c) {
    if (!open_[c].load() || ColumnFailed(c)) {
      continue;
    }
    jobs[c] = [this, c]() -> Status { return distribution_.transport(c)->Close(handles_[c]); };
  }
  for (const Status& status : distribution_.RunPerAgent(std::move(jobs))) {
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  return first_error;
}

Status SwiftFile::Truncate(uint64_t new_size) {
  if (closed_) {
    return InvalidArgumentError("file is closed");
  }
  if (failed_count_.load() > 0) {
    return UnavailableError("truncate is not supported while agents are failed");
  }
  if (new_size >= size_) {
    // Growing: just move the logical end; holes read back as zeros.
    size_ = new_size;
    return directory_ != nullptr ? directory_->UpdateSize(name_, size_) : OkStatus();
  }

  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  // Zero the tail of the boundary row first (via the normal parity-
  // maintaining write path) so the parity unit matches the zero-extension
  // semantics of the shortened data units.
  if (parity_on && new_size > 0) {
    const uint64_t row_bytes = layout_.config().RowDataBytes();
    const uint64_t row_start = (new_size / row_bytes) * row_bytes;
    const uint64_t row_end = std::min(row_start + row_bytes, size_);
    if (new_size < row_end) {
      const std::vector<uint8_t> zeros(row_end - new_size, 0);
      SWIFT_RETURN_IF_ERROR(WriteRange(new_size, zeros));
    }
  }
  // Trim every agent file to the exact layout size.
  std::vector<std::function<Status()>> jobs(layout_.config().num_agents);
  for (uint32_t c = 0; c < layout_.config().num_agents; ++c) {
    const uint64_t agent_size = layout_.AgentFileSize(c, new_size);
    jobs[c] = [this, c, agent_size]() -> Status {
      return GuardedCall(c, [&]() -> Status {
        return distribution_.transport(c)->Truncate(handles_[c], agent_size);
      });
    };
  }
  for (const Status& status : distribution_.RunPerAgent(std::move(jobs))) {
    SWIFT_RETURN_IF_ERROR(status);
  }
  size_ = new_size;
  // POSIX ftruncate leaves the file offset alone; so do we.
  return directory_ != nullptr ? directory_->UpdateSize(name_, size_) : OkStatus();
}

Result<uint64_t> SwiftFile::Seek(int64_t offset, SeekWhence whence) {
  int64_t base = 0;
  switch (whence) {
    case SeekWhence::kSet:
      base = 0;
      break;
    case SeekWhence::kCurrent:
      base = static_cast<int64_t>(cursor_);
      break;
    case SeekWhence::kEnd:
      base = static_cast<int64_t>(size_);
      break;
  }
  const int64_t target = base + offset;
  if (target < 0) {
    return InvalidArgumentError("seek before start of object");
  }
  cursor_ = static_cast<uint64_t>(target);
  return cursor_;
}

Result<uint64_t> SwiftFile::Read(std::span<uint8_t> out) {
  SWIFT_ASSIGN_OR_RETURN(uint64_t n, PRead(cursor_, out));
  cursor_ += n;
  return n;
}

Result<uint64_t> SwiftFile::Write(std::span<const uint8_t> data) {
  SWIFT_ASSIGN_OR_RETURN(uint64_t n, PWrite(cursor_, data));
  cursor_ += n;
  return n;
}

Result<uint64_t> SwiftFile::PRead(uint64_t offset, std::span<uint8_t> out) {
  if (closed_) {
    return InvalidArgumentError("file is closed");
  }
  if (offset >= size_ || out.empty()) {
    return static_cast<uint64_t>(0);
  }
  const uint64_t length = std::min<uint64_t>(out.size(), size_ - offset);
  RootSpanScope trace_root("pread", last_trace_id_);
  // A read that starts with failed columns exercises the reconstruction
  // path; bucket it separately so degraded-mode latency is visible.
  const bool degraded = failed_count_.load() > 0;
  const auto start = std::chrono::steady_clock::now();
  SWIFT_RETURN_IF_ERROR(ReadRange(offset, out.subspan(0, length)));
  const double us = ElapsedUs(start);
  Metrics().read_us->Record(us);
  if (degraded) {
    Metrics().degraded_read_us->Record(us);
  }
  return length;
}

Result<uint64_t> SwiftFile::PWrite(uint64_t offset, std::span<const uint8_t> data) {
  if (closed_) {
    return InvalidArgumentError("file is closed");
  }
  if (data.empty()) {
    return static_cast<uint64_t>(0);
  }
  RootSpanScope trace_root("pwrite", last_trace_id_);
  const auto start = std::chrono::steady_clock::now();
  SWIFT_RETURN_IF_ERROR(WriteRange(offset, data));
  Metrics().write_us->Record(ElapsedUs(start));
  size_ = std::max(size_, offset + data.size());
  if (directory_ != nullptr) {
    SWIFT_RETURN_IF_ERROR(directory_->UpdateSize(name_, size_));
  }
  return static_cast<uint64_t>(data.size());
}

void SwiftFile::MarkColumnFailed(uint32_t column) {
  SWIFT_CHECK(column < failed_.size());
  if (!failed_[column].exchange(true)) {
    ++failed_count_;
  }
}

std::vector<uint32_t> SwiftFile::failed_columns() const {
  std::vector<uint32_t> columns;
  for (uint32_t c = 0; c < failed_.size(); ++c) {
    if (failed_[c].load()) {
      columns.push_back(c);
    }
  }
  return columns;
}

Status SwiftFile::GuardedCall(uint32_t column, const std::function<Status()>& fn) {
  Status status = fn();
  if (status.code() == StatusCode::kUnavailable) {
    MarkColumnFailed(column);
  }
  return status;
}

// ------------------------------------------------------------- op plumbing --

void SwiftFile::SubmitRead(OpBatch& batch, uint32_t column, uint64_t agent_offset,
                           uint64_t length, uint8_t* dst, CorruptSink* corrupt,
                           const std::shared_ptr<HedgeTracker>& hedge) {
  size_t slot = 0;
  if (hedge != nullptr) {
    std::lock_guard<std::mutex> lock(hedge->mutex);
    slot = hedge->ops.size();
    HedgeTracker::Op op;
    op.column = column;
    op.agent_offset = agent_offset;
    op.length = length;
    op.dst = dst;
    hedge->ops.push_back(op);
  }
  batch.Submit(column, [this, column, agent_offset, length, dst, corrupt, hedge, slot](
                           AgentTransport* transport, DistributionAgent::Completion done) {
    // Read-into: the transport assembles the stripe unit directly at `dst`
    // (the caller's destination), so no copy happens at this layer.
    // done() is never called under a tracker/sink lock: the final done()
    // releases the batch waiter, whose stack frame owns the sink — an unlock
    // after it could touch a dead mutex.
    auto completion = [this, column, agent_offset, length, dst, corrupt, hedge, slot,
                       done = std::move(done)](Status status) {
      if (hedge != nullptr) {
        bool parked = false;
        {
          std::lock_guard<std::mutex> lock(hedge->mutex);
          HedgeTracker::Op& op = hedge->ops[slot];
          op.done = true;
          parked = op.parked;
        }
        if (parked) {
          // The hedge owns this range now: whatever the transport delivered
          // (cancellation, a late success, even an error), the batch sees OK
          // and the range is rebuilt from parity afterwards. A real agent
          // death still flips the column so reconstruction can see it.
          if (status.code() == StatusCode::kUnavailable) {
            MarkColumnFailed(column);
          }
          done(OkStatus());
          return;
        }
      }
      if (!status.ok()) {
        if (status.code() == StatusCode::kUnavailable) {
          MarkColumnFailed(column);
        }
        if (status.code() == StatusCode::kDataCorrupt && corrupt != nullptr) {
          // The agent is alive; only the stored unit failed its checksum.
          // Park the op for post-batch repair instead of failing the
          // batch — and leave the column's failure flag alone.
          {
            std::lock_guard<std::mutex> lock(corrupt->mutex);
            corrupt->ops.push_back({column, agent_offset, length, dst});
          }
          done(OkStatus());
          return;
        }
      }
      done(std::move(status));
    };
    if (hedge == nullptr) {
      transport->StartReadInto(handles_[column], agent_offset,
                               std::span<uint8_t>(dst, length), std::move(completion));
      return;
    }
    bool parked = false;
    {
      std::lock_guard<std::mutex> lock(hedge->mutex);
      HedgeTracker::Op& op = hedge->ops[slot];
      op.started = true;
      parked = op.parked;
    }
    if (parked) {
      // Hedged before this op ever reached the wire: resolve without
      // touching the transport — reconstruction already covers the range.
      completion(OkStatus());
      return;
    }
    const uint64_t token = transport->StartCancellableReadInto(
        handles_[column], agent_offset, std::span<uint8_t>(dst, length),
        std::move(completion));
    if (token != 0) {
      std::lock_guard<std::mutex> lock(hedge->mutex);
      hedge->ops[slot].token = token;
    }
  });
}

void SwiftFile::SubmitWrite(OpBatch& batch, uint32_t column, uint64_t agent_offset,
                            std::span<const uint8_t> bytes) {
  batch.Submit(column, [this, column, agent_offset, bytes](AgentTransport* transport,
                                                           DistributionAgent::Completion done) {
    transport->StartWrite(handles_[column], agent_offset, bytes,
                          [this, column, done = std::move(done)](Status status) {
                            if (status.code() == StatusCode::kUnavailable) {
                              MarkColumnFailed(column);
                            }
                            done(std::move(status));
                          });
  });
}

void SwiftFile::SubmitExtentRead(OpBatch& batch, const AgentExtent& extent, uint64_t base_offset,
                                 std::span<uint8_t> out, CorruptSink* corrupt,
                                 const std::shared_ptr<HedgeTracker>& hedge) {
  uint8_t* dst = out.data() + (extent.logical_offset - base_offset);
  const uint64_t unit = layout_.config().stripe_unit;
  // MapRange coalesces contiguous same-agent units into one extent; chop it
  // back to stripe-unit ops only when the column can overlap them.
  if (distribution_.window(extent.agent) <= 1 || extent.length <= unit) {
    SubmitRead(batch, extent.agent, extent.agent_offset, extent.length, dst, corrupt, hedge);
    return;
  }
  uint64_t done = 0;
  while (done < extent.length) {
    const uint64_t position = extent.agent_offset + done;
    const uint64_t chunk = std::min(unit - (position % unit), extent.length - done);
    SubmitRead(batch, extent.agent, position, chunk, dst + done, corrupt, hedge);
    done += chunk;
  }
}

void SwiftFile::SubmitExtentWrite(OpBatch& batch, const AgentExtent& extent, uint64_t base_offset,
                                  std::span<const uint8_t> data) {
  std::span<const uint8_t> bytes =
      data.subspan(extent.logical_offset - base_offset, extent.length);
  const uint64_t unit = layout_.config().stripe_unit;
  if (distribution_.window(extent.agent) <= 1 || extent.length <= unit) {
    SubmitWrite(batch, extent.agent, extent.agent_offset, bytes);
    return;
  }
  uint64_t done = 0;
  while (done < extent.length) {
    const uint64_t position = extent.agent_offset + done;
    const uint64_t chunk = std::min(unit - (position % unit), extent.length - done);
    SubmitWrite(batch, extent.agent, position, bytes.subspan(done, chunk));
    done += chunk;
  }
}

// ---------------------------------------------------------------- reading --

Status SwiftFile::ReadRange(uint64_t offset, std::span<uint8_t> out) {
  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  // A failure discovered mid-read flips a column to failed and we retry;
  // each retry consumes at least one new failure, so attempts are bounded.
  for (uint32_t attempt = 0; attempt <= layout_.config().num_agents; ++attempt) {
    if (parity_on && failed_count_.load() > ParityBudget()) {
      return DataLossError("more failed agents than parity units in a stripe group");
    }
    if (!parity_on && failed_count_.load() > 0) {
      return UnavailableError("storage agent failed and object has no redundancy");
    }
    const std::vector<AgentExtent> extents = layout_.MapRange(offset, out.size());

    // Hedging needs spare parity budget: reconstruction of a cancelled
    // straggler is only safe while failed columns + cancelled columns stay
    // within the codec's m erasures.
    const bool hedging = distribution_.options().hedged_reads && parity_on &&
                         failed_count_.load() < ParityBudget() &&
                         layout_.config().num_agents > 1;

    // Live extents: one batch of stripe-unit ops across the whole range, so
    // every column pipelines up to its window. With parity on, checksum
    // failures park in `corrupt` instead of failing the batch; without
    // parity there is nothing to rebuild from, so they surface as errors.
    std::vector<const AgentExtent*> lost_extents;
    CorruptSink corrupt;
    // Shared, not stack-owned: submit-path lambdas store cancel tokens after
    // starting the transport op, which can lose a race with the batch waiter
    // leaving this frame (see the HedgeTracker comment in the header).
    auto hedge_tracker = hedging ? std::make_shared<HedgeTracker>() : nullptr;
    std::vector<HedgeTracker::Op> hedged;
    {
      OpBatch batch(&distribution_);
      for (const AgentExtent& extent : extents) {
        if (ColumnFailed(extent.agent)) {
          lost_extents.push_back(&extent);
        } else {
          SubmitExtentRead(batch, extent, offset, out, parity_on ? &corrupt : nullptr,
                           hedge_tracker);
        }
      }
      Status status = Aggregate(hedging ? WaitHedged(batch, *hedge_tracker, &hedged)
                                        : batch.Wait());
      if (status.code() == StatusCode::kUnavailable) {
        continue;  // re-plan with the updated failure set
      }
      SWIFT_RETURN_IF_ERROR(status);
    }

    // Finish a hedge: the stragglers' cancelled ranges come from erasure
    // reconstruction, which must avoid reading *any* hedged column (their
    // ops were cancelled). If reconstruction loses its bet (a survivor died
    // mid-hedge), the straggler columns themselves are still healthy —
    // re-read the ranges from them directly, so correctness never depends on
    // the hedge.
    if (!hedged.empty()) {
      std::vector<uint32_t> avoid;
      for (const HedgeTracker::Op& op : hedged) {
        if (std::find(avoid.begin(), avoid.end(), op.column) == avoid.end()) {
          avoid.push_back(op.column);
        }
      }
      Status rebuilt = OkStatus();
      for (const HedgeTracker::Op& op : hedged) {
        rebuilt = ReconstructRange(op.column, op.agent_offset, op.length, op.dst, avoid);
        if (!rebuilt.ok()) {
          break;
        }
      }
      bool straggler_died = false;
      for (uint32_t column : avoid) {
        straggler_died = straggler_died || ColumnFailed(column);
      }
      if (rebuilt.ok()) {
        Metrics().hedge_wins->Increment();
      } else if (!straggler_died) {
        OpBatch retry(&distribution_);
        for (const HedgeTracker::Op& op : hedged) {
          SubmitRead(retry, op.column, op.agent_offset, op.length, op.dst,
                     parity_on ? &corrupt : nullptr);
        }
        Status status = Aggregate(retry.Wait());
        if (status.code() == StatusCode::kUnavailable) {
          continue;  // a straggler died for real; re-plan degraded
        }
        SWIFT_RETURN_IF_ERROR(status);
      } else {
        // A cancelled column really died: the budget check at the top of the
        // retry loop decides whether the remaining parity covers it.
        continue;
      }
    }

    // Heal checksum casualties: reconstruct each corrupt unit from its row's
    // survivors, hand the verified bytes to the caller, write the unit back.
    for (const CorruptSink::Op& op : corrupt.ops) {
      SWIFT_RETURN_IF_ERROR(RepairReadOp(op));
    }

    // Reconstruct extents that live on failed columns, unit by unit (each
    // unit fans its survivor reads out concurrently). A whole lost unit is
    // rebuilt straight into the caller's destination; only unit fragments go
    // through a scratch buffer.
    const uint64_t unit = layout_.config().stripe_unit;
    for (const AgentExtent* extent : lost_extents) {
      uint64_t done = 0;
      while (done < extent->length) {
        const uint64_t position = extent->agent_offset + done;
        const uint64_t row = position / unit;
        const uint64_t offset_in_unit = position % unit;
        const uint64_t chunk = std::min(unit - offset_in_unit, extent->length - done);
        uint8_t* chunk_dst = out.data() + (extent->logical_offset + done - offset);
        if (chunk == unit) {
          SWIFT_RETURN_IF_ERROR(
              ReconstructUnitInto(row, extent->agent, std::span<uint8_t>(chunk_dst, unit)));
        } else {
          Buffer scratch = Buffer::Allocate(unit);
          SWIFT_RETURN_IF_ERROR(ReconstructUnitInto(row, extent->agent, scratch.span()));
          std::memcpy(chunk_dst, scratch.data() + offset_in_unit, chunk);
          CountBufferCopy(chunk);
        }
        done += chunk;
      }
    }
    return OkStatus();
  }
  return InternalError("read retry budget exhausted");
}

uint64_t SwiftFile::HedgeDelayUs() const {
  const DistributionAgent::Options& io = distribution_.options();
  double max_us = 0;
  for (uint32_t c = 0; c < layout_.config().num_agents; ++c) {
    if (ColumnFailed(c)) {
      continue;
    }
    double srtt_us = 0;
    double rttvar_us = 0;
    if (distribution_.transport(c)->RttEstimate(&srtt_us, &rttvar_us)) {
      max_us = std::max(max_us, srtt_us + io.hedge_k * rttvar_us);
    }
  }
  if (max_us <= 0) {
    return io.hedge_cap_us;  // no samples yet: arm late, never early
  }
  return std::clamp<uint64_t>(static_cast<uint64_t>(max_us), io.hedge_floor_us,
                              io.hedge_cap_us);
}

std::vector<Status> SwiftFile::WaitHedged(OpBatch& batch, HedgeTracker& tracker,
                                          std::vector<HedgeTracker::Op>* parked) {
  Governor().reads.fetch_add(1, std::memory_order_relaxed);
  const auto delay = std::chrono::microseconds(HedgeDelayUs());
  bool armed = false;
  uint64_t last_outstanding = UINT64_MAX;
  for (;;) {
    if (batch.WaitFor(delay)) {
      break;
    }
    if (armed) {
      continue;  // at most one hedge per batch; just drain
    }
    // Only a batch that made NO progress over a whole delay window is a
    // hedge candidate: the delay is a per-op bound (srtt + k·rttvar), so a
    // deep multi-round batch that is still completing ops is healthy even
    // though it outlives one delay.
    const uint64_t outstanding = batch.Outstanding();
    if (outstanding != last_outstanding) {
      last_outstanding = outstanding;
      continue;
    }
    // Stalled: hedge iff every outstanding op sits on columns the parity
    // budget can spare (stragglers + already-failed columns ≤ m), each
    // started op is cancellable, and the global rate cap admits it.
    std::vector<uint32_t> stragglers;
    std::vector<std::pair<uint32_t, uint64_t>> cancels;  // (column, token)
    {
      std::lock_guard<std::mutex> lock(tracker.mutex);
      bool eligible = true;
      for (const HedgeTracker::Op& op : tracker.ops) {
        if (op.done) {
          continue;
        }
        if (std::find(stragglers.begin(), stragglers.end(), op.column) == stragglers.end()) {
          stragglers.push_back(op.column);
        }
        if (op.started && op.token == 0) {
          eligible = false;
          break;
        }
      }
      if (stragglers.empty() ||
          stragglers.size() + failed_count_.load() > ParityBudget()) {
        eligible = false;
      }
      if (eligible && !Governor().Admit()) {
        eligible = false;
        Metrics().hedge_suppressed->Increment();
      }
      if (!eligible) {
        stragglers.clear();
      } else {
        for (HedgeTracker::Op& op : tracker.ops) {
          if (op.done) {
            continue;
          }
          op.parked = true;
          parked->push_back(op);
          if (op.token != 0) {
            cancels.emplace_back(op.column, op.token);
          }
        }
        Metrics().hedge_attempts->Increment();
      }
    }
    if (!stragglers.empty()) {
      armed = true;
      for (const auto& [column, token] : cancels) {
        distribution_.transport(column)->CancelRead(token);
      }
    }
  }
  return batch.Wait();
}

Status SwiftFile::ReconstructRange(uint32_t column, uint64_t agent_offset, uint64_t length,
                                   uint8_t* dst, std::span<const uint32_t> avoid) {
  const uint64_t unit = layout_.config().stripe_unit;
  uint64_t done = 0;
  while (done < length) {
    const uint64_t position = agent_offset + done;
    const uint64_t row = position / unit;
    const uint64_t offset_in_unit = position % unit;
    const uint64_t chunk = std::min(unit - offset_in_unit, length - done);
    const uint32_t targets[1] = {column};
    if (chunk == unit) {
      uint8_t* const outs[1] = {dst + done};
      SWIFT_RETURN_IF_ERROR(ReconstructUnitsInto(row, targets, outs, avoid));
    } else {
      Buffer scratch = Buffer::Allocate(unit);
      uint8_t* const outs[1] = {scratch.data()};
      SWIFT_RETURN_IF_ERROR(ReconstructUnitsInto(row, targets, outs, avoid));
      std::memcpy(dst + done, scratch.data() + offset_in_unit, chunk);
      CountBufferCopy(chunk);
    }
    done += chunk;
  }
  return OkStatus();
}

Status SwiftFile::ReconstructUnitInto(uint64_t row, uint32_t lost_column,
                                      std::span<uint8_t> out) {
  SWIFT_CHECK(out.size() == layout_.config().stripe_unit)
      << "reconstruction target must be one stripe unit";
  const uint32_t targets[1] = {lost_column};
  uint8_t* const outs[1] = {out.data()};
  return ReconstructUnitsInto(row, targets, outs, {});
}

Status SwiftFile::ReconstructUnitsInto(uint64_t row, std::span<const uint32_t> target_agents,
                                       std::span<uint8_t* const> outs,
                                       std::span<const uint32_t> avoid) {
  const StripeConfig& config = layout_.config();
  if (config.parity == ParityMode::kNone) {
    return UnavailableError("cannot reconstruct without parity");
  }
  SWIFT_CHECK(target_agents.size() == outs.size());
  ParityTimer parity_timer;
  const uint64_t unit = config.stripe_unit;
  const uint64_t row_offset = row * unit;
  const ErasureCodec& codec = CodecFor(config);
  const uint32_t budget = config.ParityUnitsPerRow();

  // The erased set: the targets, the avoid list, every failed column, plus
  // columns promoted after a survivor read comes back corrupt or
  // unavailable. Each retry adds at least one erasure, so the loop is
  // bounded by the budget check.
  std::vector<uint32_t> erased_agents(target_agents.begin(), target_agents.end());
  auto add_erased = [&erased_agents](uint32_t agent) {
    if (std::find(erased_agents.begin(), erased_agents.end(), agent) == erased_agents.end()) {
      erased_agents.push_back(agent);
    }
  };
  for (uint32_t agent : avoid) {
    add_erased(agent);
  }
  for (uint32_t c = 0; c < config.num_agents; ++c) {
    if (ColumnFailed(c)) {
      add_erased(c);
    }
  }

  for (;;) {
    if (erased_agents.size() > budget) {
      return DataLossError(std::to_string(erased_agents.size()) + " unreadable units in row " +
                           std::to_string(row) + " exceed the " + std::to_string(budget) +
                           "-unit parity budget");
    }
    std::vector<uint32_t> erased_positions;
    erased_positions.reserve(erased_agents.size());
    for (uint32_t agent : erased_agents) {
      erased_positions.push_back(layout_.UnitPositionOf(row, agent));
    }
    std::sort(erased_positions.begin(), erased_positions.end());
    SWIFT_ASSIGN_OR_RETURN(const ReconstructionPlan plan,
                           codec.PlanReconstruction(erased_positions));

    // Which plan target backs each caller output.
    std::vector<size_t> target_index(target_agents.size());
    for (size_t t = 0; t < target_agents.size(); ++t) {
      const uint32_t position = layout_.UnitPositionOf(row, target_agents[t]);
      const auto it = std::find(plan.targets.begin(), plan.targets.end(), position);
      SWIFT_CHECK(it != plan.targets.end());
      target_index[t] = static_cast<size_t>(it - plan.targets.begin());
      std::fill(outs[t], outs[t] + unit, 0);
    }

    // Every survivor read runs concurrently; each completion folds its
    // coefficient-scaled payload into every caller target as it lands (GF
    // addition is XOR, so folds commute; the mutex makes each fold atomic).
    // The survivor payloads are read as shared slices — nothing is staged or
    // copied on the way to the fold. A survivor that comes back corrupt or
    // unavailable resolves OK and is promoted to an erasure for the retry.
    std::mutex fold_mutex;
    std::vector<uint32_t> promoted;
    std::mutex promoted_mutex;
    {
      OpBatch batch(&distribution_);
      for (size_t s = 0; s < plan.survivors.size(); ++s) {
        const uint32_t agent = layout_.AgentAtPosition(row, plan.survivors[s]);
        batch.Submit(agent, [this, agent, s, row_offset, unit, &plan, &outs, &target_index,
                             &fold_mutex, &promoted, &promoted_mutex](
                                AgentTransport* transport, DistributionAgent::Completion done) {
          transport->StartRead(
              handles_[agent], row_offset, unit,
              [this, agent, s, &plan, &outs, &target_index, &fold_mutex, &promoted,
               &promoted_mutex, done = std::move(done)](Result<BufferSlice> data) {
                if (!data.ok()) {
                  if (data.code() == StatusCode::kUnavailable) {
                    MarkColumnFailed(agent);
                  }
                  if (data.code() == StatusCode::kUnavailable ||
                      data.code() == StatusCode::kDataCorrupt) {
                    {
                      std::lock_guard<std::mutex> lock(promoted_mutex);
                      promoted.push_back(agent);
                    }
                    done(OkStatus());
                    return;
                  }
                  done(data.status());
                  return;
                }
                {
                  std::lock_guard<std::mutex> lock(fold_mutex);
                  for (size_t t = 0; t < target_index.size(); ++t) {
                    GfMulFold(std::span<uint8_t>(outs[t], data->size()), *data,
                              plan.Coefficient(target_index[t], s));
                  }
                }
                done(OkStatus());
              });
        });
      }
      for (const Status& status : batch.Wait()) {
        SWIFT_RETURN_IF_ERROR(status);
      }
    }
    if (!promoted.empty()) {
      for (uint32_t agent : promoted) {
        add_erased(agent);
      }
      continue;  // replan with the survivors that remain
    }
    Metrics().parity_reconstructions->Increment();
    if (erased_agents.size() >= 2) {
      Metrics().multi_failure_repairs->Increment();
    }
    return OkStatus();
  }
}

Status SwiftFile::RepairReadOp(const CorruptSink::Op& op) {
  const uint64_t unit = layout_.config().stripe_unit;
  const uint64_t first_row = op.agent_offset / unit;
  const uint64_t last_row = (op.agent_offset + op.length - 1) / unit;
  for (uint64_t row = first_row; row <= last_row; ++row) {
    Buffer rebuilt = Buffer::Allocate(unit);
    SWIFT_RETURN_IF_ERROR(ReconstructUnitInto(row, op.column, rebuilt.span()));
    // The caller gets the verified reconstruction, never the stored bytes.
    const uint64_t unit_start = row * unit;
    const uint64_t begin = std::max(op.agent_offset, unit_start);
    const uint64_t end = std::min(op.agent_offset + op.length, unit_start + unit);
    std::memcpy(op.dst + (begin - op.agent_offset), rebuilt.data() + (begin - unit_start),
                end - begin);
    CountBufferCopy(end - begin);
    // Read-repair: rewrite the whole unit so the agent reseals it. Best
    // effort — the read already has good data, and the scrubber sweeps up
    // anything this misses.
    if (!ColumnFailed(op.column)) {
      const Status repaired = GuardedCall(op.column, [&]() -> Status {
        return distribution_.transport(op.column)
            ->Write(handles_[op.column], unit_start, rebuilt.span());
      });
      if (repaired.ok()) {
        Metrics().read_repairs->Increment();
      } else {
        SWIFT_LOG(WARNING) << "read-repair of '" << name_ << "' row " << row << " column "
                           << op.column << " failed: " << repaired.ToString();
      }
    }
  }
  return OkStatus();
}

Status SwiftFile::RepairRow(uint64_t row) {
  const uint64_t unit = layout_.config().stripe_unit;
  const uint64_t row_offset = row * unit;
  for (uint32_t c = 0; c < layout_.config().num_agents; ++c) {
    if (ColumnFailed(c)) {
      continue;  // covered by parity; nothing stored to repair
    }
    auto stored = distribution_.transport(c)->Read(handles_[c], row_offset, unit);
    if (stored.ok()) {
      continue;  // unit verified clean by the agent's store
    }
    if (stored.code() == StatusCode::kUnavailable) {
      MarkColumnFailed(c);
      return stored.status();  // caller's retry loop re-plans degraded
    }
    if (stored.code() != StatusCode::kDataCorrupt) {
      return stored.status();
    }
    Buffer rebuilt = Buffer::Allocate(unit);
    SWIFT_RETURN_IF_ERROR(ReconstructUnitInto(row, c, rebuilt.span()));
    SWIFT_RETURN_IF_ERROR(GuardedCall(c, [&]() -> Status {
      return distribution_.transport(c)->Write(handles_[c], row_offset, rebuilt.span());
    }));
    Metrics().read_repairs->Increment();
  }
  return OkStatus();
}

// ---------------------------------------------------------------- writing --

Status SwiftFile::WriteRange(uint64_t offset, std::span<const uint8_t> data) {
  const bool parity_on = layout_.config().parity != ParityMode::kNone;
  for (uint32_t attempt = 0; attempt <= layout_.config().num_agents; ++attempt) {
    if (parity_on && failed_count_.load() > ParityBudget()) {
      return DataLossError("more failed agents than parity units in a stripe group");
    }
    if (!parity_on && failed_count_.load() > 0) {
      return UnavailableError("storage agent failed and object has no redundancy");
    }
    const uint32_t failures_before = failed_count_.load();
    Status status;

    if (!parity_on) {
      // Straight striped write: the whole range as one batch of pipelined
      // stripe-unit ops.
      const std::vector<AgentExtent> extents = layout_.MapRange(offset, data.size());
      OpBatch batch(&distribution_);
      for (const AgentExtent& extent : extents) {
        SubmitExtentWrite(batch, extent, offset, data);
      }
      status = Aggregate(batch.Wait());
    } else {
      // Parity path. Boundary rows that are only partially overwritten need
      // a read-modify-write; fully overwritten rows compute parity in memory
      // and batch every unit write of every such row together.
      const auto [first_row, last_row] = layout_.RowRange(offset, data.size());
      const uint64_t row_bytes = layout_.config().RowDataBytes();
      std::vector<uint64_t> full_rows;
      status = OkStatus();
      for (uint64_t row = first_row; row <= last_row && status.ok(); ++row) {
        const uint64_t row_start = row * row_bytes;
        const uint64_t row_end = row_start + row_bytes;
        const uint64_t write_start = std::max(offset, row_start);
        const uint64_t write_end = std::min(offset + data.size(), row_end);
        if (write_start == row_start && write_end == row_end) {
          full_rows.push_back(row);
        } else {
          status = WriteRowParity(row, write_start, write_end, offset, data);
        }
      }
      if (status.ok() && !full_rows.empty()) {
        status = WriteFullRows(full_rows, offset, data);
      }
    }

    if (status.ok()) {
      return OkStatus();
    }
    if (status.code() == StatusCode::kUnavailable && failed_count_.load() != failures_before) {
      continue;  // a column just died; re-plan degraded
    }
    return status;
  }
  return InternalError("write retry budget exhausted");
}

Status SwiftFile::WriteFullRows(const std::vector<uint64_t>& rows, uint64_t base_offset,
                                std::span<const uint8_t> data) {
  const uint64_t unit = layout_.config().stripe_unit;
  const uint64_t row_bytes = layout_.config().RowDataBytes();

  // One batch carries every unit write of every full row — the whole stripe
  // group moves as a single pipelined burst. Parity units live in one arena
  // (rows × m × unit, a single allocation) so the spans handed to StartWrite
  // stay valid until the batch completes.
  const uint32_t k = layout_.config().DataAgentsPerRow();
  const uint32_t m = layout_.config().ParityUnitsPerRow();
  const ErasureCodec& codec = CodecFor(layout_.config());
  Buffer parity_arena = Buffer::Allocate(rows.size() * m * unit);
  OpBatch batch(&distribution_);
  for (size_t r = 0; r < rows.size(); ++r) {
    const uint64_t row = rows[r];
    const uint64_t row_start = row * row_bytes;
    std::span<const uint8_t> row_data = data.subspan(row_start - base_offset, row_bytes);
    std::vector<std::span<const uint8_t>> sources;
    sources.reserve(k);
    for (uint32_t c = 0; c < k; ++c) {
      sources.push_back(row_data.subspan(static_cast<size_t>(c) * unit, unit));
    }
    std::vector<std::span<uint8_t>> parity_units;
    parity_units.reserve(m);
    for (uint32_t j = 0; j < m; ++j) {
      parity_units.push_back(parity_arena.span().subspan((r * m + j) * unit, unit));
    }
    {
      ParityTimer parity_timer;
      codec.EncodeInto(sources, parity_units);
    }

    for (uint32_t c = 0; c < k; ++c) {
      const UnitLocation loc = layout_.Locate(row_start + static_cast<uint64_t>(c) * unit);
      if (ColumnFailed(loc.agent)) {
        continue;  // captured by parity; reconstructible
      }
      SubmitWrite(batch, loc.agent, loc.agent_offset, sources[c]);
    }
    for (uint32_t j = 0; j < m; ++j) {
      const UnitLocation parity_loc = layout_.ParityLocation(row, j);
      if (!ColumnFailed(parity_loc.agent)) {
        SubmitWrite(batch, parity_loc.agent, parity_loc.agent_offset, parity_units[j]);
      }
    }
  }
  return Aggregate(batch.Wait());
}

Status SwiftFile::WriteRowParity(uint64_t row, uint64_t row_write_start, uint64_t row_write_end,
                                 uint64_t base_offset, std::span<const uint8_t> data) {
  ParityTimer parity_timer;
  const uint64_t unit = layout_.config().stripe_unit;
  const uint32_t m = layout_.config().ParityUnitsPerRow();
  const ErasureCodec& codec = CodecFor(layout_.config());

  // The row's live parity units (failed parity columns are simply skipped —
  // their content is reconstructible like any other lost unit).
  struct ParityUnit {
    uint32_t index = 0;  // codec parity index j
    UnitLocation loc;
    std::vector<uint8_t> buf;
  };
  std::vector<ParityUnit> live_parity;
  for (uint32_t j = 0; j < m; ++j) {
    const UnitLocation loc = layout_.ParityLocation(row, j);
    if (!ColumnFailed(loc.agent)) {
      ParityUnit p;
      p.index = j;
      p.loc = loc;
      p.buf.assign(unit, 0);
      live_parity.push_back(std::move(p));
    }
  }

  auto new_data_at = [&](uint64_t logical, uint64_t length) -> std::span<const uint8_t> {
    return data.subspan(logical - base_offset, length);
  };

  // Partial row: read-modify-write every live parity unit.
  //   parity_j' = parity_j ^ g[j][col] ⊗ (old_data ^ new_data)
  //
  // Ordering matters for crash/retry consistency (the RAID write hole, here
  // surfaced by the transient-fault retry): all reads happen first, then the
  // parity writes, then the data writes. If the attempt dies at any point,
  // the retry's own read-modify-write (or, for a now-failed data column, the
  // reconstruct-and-fold path) restores the invariant "each parity unit is
  // the codec combination of the stored data, with failed columns' virtual
  // content defined by the code" — which is exactly what a
  // parity-write-before-data ordering keeps self-correcting. Writing data
  // first would let an interrupted attempt strand new data under old parity,
  // and the retry's old==new RMW would then freeze the corruption in place.

  struct Chunk {
    UnitLocation loc;
    uint32_t data_col = 0;  // codec data index of the target unit
    uint64_t offset_in_unit = 0;
    std::span<const uint8_t> new_data;
    std::vector<uint8_t> old_data;  // gather target (live chunks)
    bool lost = false;              // target unit is on a failed column
  };
  std::vector<Chunk> chunks;
  uint64_t logical = row_write_start;
  while (logical < row_write_end) {
    const uint64_t offset_in_unit = logical % unit;
    const uint64_t length = std::min(unit - offset_in_unit, row_write_end - logical);
    Chunk chunk;
    chunk.loc = layout_.Locate(logical);
    chunk.data_col = layout_.DataColumnOf(logical);
    chunk.offset_in_unit = offset_in_unit;
    chunk.new_data = new_data_at(logical, length);
    chunk.lost = ColumnFailed(chunk.loc.agent);
    chunks.push_back(std::move(chunk));
    logical += length;
  }

  // Gather phase: every live parity unit and every overwritten live range,
  // all in one batch. A corrupt unit discovered here (old data or parity)
  // gets the whole row repaired from reconstruction, then one re-gather —
  // folding unverified old bytes into parity would launder the corruption
  // into the new parity units.
  if (!live_parity.empty()) {
    for (int gather_attempt = 0;; ++gather_attempt) {
      OpBatch batch(&distribution_);
      for (ParityUnit& p : live_parity) {
        SubmitRead(batch, p.loc.agent, p.loc.agent_offset, unit, p.buf.data());
      }
      for (Chunk& chunk : chunks) {
        if (!chunk.lost) {
          chunk.old_data.resize(chunk.new_data.size());
          SubmitRead(batch, chunk.loc.agent, chunk.loc.agent_offset, chunk.old_data.size(),
                     chunk.old_data.data());
        }
      }
      const Status status = Aggregate(batch.Wait());
      if (status.ok()) {
        break;
      }
      if (status.code() == StatusCode::kDataCorrupt && gather_attempt == 0) {
        SWIFT_RETURN_IF_ERROR(RepairRow(row));
        continue;
      }
      return status;
    }
  }

  // Fold phase (in memory, deterministic order).
  for (Chunk& chunk : chunks) {
    if (chunk.lost) {
      // The target data unit is lost: fold the write into the live parity
      // units only, so a reconstruction of this unit yields the new
      // contents.
      if (live_parity.empty()) {
        return DataLossError("write targets a failed agent and every parity unit is failed");
      }
      Buffer old_unit = Buffer::Allocate(unit);
      SWIFT_RETURN_IF_ERROR(ReconstructUnitInto(row, chunk.loc.agent, old_unit.span()));
      const std::span<const uint8_t> old_slice(old_unit.data() + chunk.offset_in_unit,
                                               chunk.new_data.size());
      for (ParityUnit& p : live_parity) {
        codec.UpdateParity(p.index, chunk.data_col, p.buf, chunk.offset_in_unit, old_slice,
                           chunk.new_data);
      }
    } else {
      for (ParityUnit& p : live_parity) {
        codec.UpdateParity(p.index, chunk.data_col, p.buf, chunk.offset_in_unit,
                           chunk.old_data, chunk.new_data);
      }
    }
  }

  // Parity first, as one batch.
  if (!live_parity.empty()) {
    OpBatch parity_batch(&distribution_);
    for (const ParityUnit& p : live_parity) {
      SubmitWrite(parity_batch, p.loc.agent, p.loc.agent_offset, p.buf);
    }
    SWIFT_RETURN_IF_ERROR(Aggregate(parity_batch.Wait()));
  }

  // Then the data units, as one parallel batch.
  OpBatch batch(&distribution_);
  for (const Chunk& chunk : chunks) {
    if (!chunk.lost) {
      SubmitWrite(batch, chunk.loc.agent, chunk.loc.agent_offset, chunk.new_data);
    }
  }
  return Aggregate(batch.Wait());
}

}  // namespace swift
