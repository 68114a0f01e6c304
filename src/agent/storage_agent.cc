#include "src/agent/storage_agent.h"

#include <atomic>

#include "src/proto/message.h"
#include "src/util/metrics.h"

namespace swift {

namespace {

// Registry metrics shared by every agent core in the process.
struct CoreMetrics {
  Counter* bytes_read;
  Counter* bytes_written;
  Counter* ops;
};

const CoreMetrics& Metrics() {
  static const CoreMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return CoreMetrics{
        registry.GetCounter("swift_agent_bytes_read_total"),
        registry.GetCounter("swift_agent_bytes_written_total"),
        registry.GetCounter("swift_agent_store_ops_total"),
    };
  }();
  return metrics;
}

}  // namespace

Result<AgentOpenResult> StorageAgentCore::Open(const std::string& object_name, uint32_t flags) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!store_->Exists(object_name)) {
    if ((flags & kOpenCreate) == 0) {
      return NotFoundError("no store file '" + object_name + "'");
    }
    SWIFT_RETURN_IF_ERROR(store_->Ensure(object_name));
  } else if ((flags & kOpenTruncate) != 0) {
    SWIFT_RETURN_IF_ERROR(store_->Truncate(object_name, 0));
  }
  const uint32_t handle = next_handle_++;
  handles_[handle] = object_name;
  SWIFT_ASSIGN_OR_RETURN(uint64_t size, store_->Size(object_name));
  return AgentOpenResult{handle, size};
}

Result<std::string> StorageAgentCore::NameFor(uint32_t handle) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return NotFoundError("stale or unknown handle " + std::to_string(handle));
  }
  return it->second;
}

Status StorageAgentCore::Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(std::string name, NameFor(handle));
  SWIFT_RETURN_IF_ERROR(store_->WriteAt(name, offset, data));
  bytes_written_ += data.size();
  Metrics().bytes_written->Increment(data.size());
  Metrics().ops->Increment();
  return OkStatus();
}

Result<BufferSlice> StorageAgentCore::Read(uint32_t handle, uint64_t offset,
                                           uint64_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(std::string name, NameFor(handle));
  auto result = store_->ReadAt(name, offset, length);
  if (result.ok()) {
    bytes_read_ += length;
    Metrics().bytes_read->Increment(length);
    Metrics().ops->Increment();
  }
  return result;
}

Result<uint64_t> StorageAgentCore::Stat(uint32_t handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(std::string name, NameFor(handle));
  return store_->Size(name);
}

Status StorageAgentCore::Truncate(uint32_t handle, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  SWIFT_ASSIGN_OR_RETURN(std::string name, NameFor(handle));
  return store_->Truncate(name, size);
}

Status StorageAgentCore::Close(uint32_t handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (handles_.erase(handle) == 0) {
    return NotFoundError("stale or unknown handle " + std::to_string(handle));
  }
  return OkStatus();
}

Status StorageAgentCore::Remove(const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Live handles on the object keep working against the removed file's name
  // only until they are closed; Unix unlink semantics are out of scope for a
  // store keyed by name, so removal with open handles is refused.
  for (const auto& [handle, name] : handles_) {
    if (name == object_name) {
      return InvalidArgumentError("object '" + object_name + "' is open (handle " +
                                  std::to_string(handle) + ")");
    }
  }
  return store_->Remove(object_name);
}

Result<ScrubReport> StorageAgentCore::Scrub(const std::string& object_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Metrics().ops->Increment();
  return store_->Scrub(object_name);
}

size_t StorageAgentCore::open_handle_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  return handles_.size();
}

// ----------------------------------------------------------- InProcTransport

Status InProcTransport::CheckUp() {
  ++call_count_;
  if (crashed_.load(std::memory_order_relaxed)) {
    return UnavailableError("storage agent crashed");
  }
  int budget = fail_budget_.load(std::memory_order_relaxed);
  while (budget > 0) {
    if (fail_budget_.compare_exchange_weak(budget, budget - 1, std::memory_order_relaxed)) {
      return UnavailableError("injected transient fault");
    }
  }
  return OkStatus();
}

void InProcTransport::Account(bool ok, uint64_t bytes_read, uint64_t bytes_written) {
  ++ops_submitted_;
  ++ops_completed_;
  if (!ok) {
    ++ops_failed_;
    return;
  }
  bytes_read_ += bytes_read;
  bytes_written_ += bytes_written;
}

TransportStats InProcTransport::stats() const {
  TransportStats stats;
  stats.ops_submitted = ops_submitted_.load(std::memory_order_relaxed);
  stats.ops_completed = ops_completed_.load(std::memory_order_relaxed);
  stats.ops_failed = ops_failed_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return stats;
}

Result<AgentOpenResult> InProcTransport::Open(const std::string& object_name, uint32_t flags) {
  SWIFT_RETURN_IF_ERROR(CheckUp());
  return core_->Open(object_name, flags);
}

Status InProcTransport::Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) {
  Status status = CheckUp();
  if (status.ok()) {
    status = core_->Write(handle, offset, data);
  }
  Account(status.ok(), 0, status.ok() ? data.size() : 0);
  return status;
}

Result<BufferSlice> InProcTransport::Read(uint32_t handle, uint64_t offset,
                                          uint64_t length) {
  Status up = CheckUp();
  if (!up.ok()) {
    Account(false, 0, 0);
    return up;
  }
  auto result = core_->Read(handle, offset, length);
  Account(result.ok(), result.ok() ? length : 0, 0);
  return result;
}

void InProcTransport::StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                                ReadCompletion done) {
  done(Read(handle, offset, length));
}

void InProcTransport::StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                                 WriteCompletion done) {
  done(Write(handle, offset, data));
}

Result<uint64_t> InProcTransport::Stat(uint32_t handle) {
  SWIFT_RETURN_IF_ERROR(CheckUp());
  return core_->Stat(handle);
}

Status InProcTransport::Truncate(uint32_t handle, uint64_t size) {
  SWIFT_RETURN_IF_ERROR(CheckUp());
  return core_->Truncate(handle, size);
}

Status InProcTransport::Close(uint32_t handle) {
  SWIFT_RETURN_IF_ERROR(CheckUp());
  return core_->Close(handle);
}

Status InProcTransport::Remove(const std::string& object_name) {
  SWIFT_RETURN_IF_ERROR(CheckUp());
  return core_->Remove(object_name);
}

Result<ScrubReport> InProcTransport::Scrub(const std::string& object_name) {
  SWIFT_RETURN_IF_ERROR(CheckUp());
  return core_->Scrub(object_name);
}

}  // namespace swift
