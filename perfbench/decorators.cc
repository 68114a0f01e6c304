// Benchmark-owned decorators: pure forwarding plus a span per data op.

#include <utility>

#include "perfbench/bench.h"

namespace perfbench {

using swift::AgentOpenResult;
using swift::BufferSlice;
using swift::Result;
using swift::ScrubReport;
using swift::Status;

std::atomic<uint64_t> g_decorators_installed{0};

void SpanLog::Add(const OpSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<OpSpan> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

// --- TimedTransport ----------------------------------------------------------

TimedTransport::TimedTransport(swift::AgentTransport* inner) : inner_(inner) {
  g_decorators_installed.fetch_add(1);
}

// The span closes before the caller's completion runs, so it always lands
// before the file op that waits on it returns.
swift::AgentTransport::WriteCompletion TimedTransport::Timed(uint64_t bytes, bool write,
                                                             WriteCompletion done) {
  const uint64_t start = NowNs();
  return [this, start, bytes, write, done = std::move(done)](Status status) {
    spans_.Add(OpSpan{start, NowNs(), bytes, write});
    done(std::move(status));
  };
}

Result<AgentOpenResult> TimedTransport::Open(const std::string& object_name, uint32_t flags) {
  return inner_->Open(object_name, flags);
}

Status TimedTransport::Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) {
  const uint64_t start = NowNs();
  Status status = inner_->Write(handle, offset, data);
  spans_.Add(OpSpan{start, NowNs(), data.size(), true});
  return status;
}

Result<BufferSlice> TimedTransport::Read(uint32_t handle, uint64_t offset, uint64_t length) {
  const uint64_t start = NowNs();
  Result<BufferSlice> result = inner_->Read(handle, offset, length);
  spans_.Add(OpSpan{start, NowNs(), length, false});
  return result;
}

Result<uint64_t> TimedTransport::Stat(uint32_t handle) { return inner_->Stat(handle); }

Status TimedTransport::Truncate(uint32_t handle, uint64_t size) {
  return inner_->Truncate(handle, size);
}

Status TimedTransport::Close(uint32_t handle) { return inner_->Close(handle); }

Status TimedTransport::Remove(const std::string& object_name) {
  return inner_->Remove(object_name);
}

Result<ScrubReport> TimedTransport::Scrub(const std::string& object_name) {
  return inner_->Scrub(object_name);
}

void TimedTransport::StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                               ReadCompletion done) {
  const uint64_t start = NowNs();
  inner_->StartRead(handle, offset, length,
                    [this, start, length, done = std::move(done)](Result<BufferSlice> data) {
                      spans_.Add(OpSpan{start, NowNs(), length, false});
                      done(std::move(data));
                    });
}

void TimedTransport::StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                   WriteCompletion done) {
  inner_->StartReadInto(handle, offset, out, Timed(out.size(), false, std::move(done)));
}

uint64_t TimedTransport::StartCancellableReadInto(uint32_t handle, uint64_t offset,
                                                  std::span<uint8_t> out, WriteCompletion done) {
  return inner_->StartCancellableReadInto(handle, offset, out,
                                          Timed(out.size(), false, std::move(done)));
}

void TimedTransport::CancelRead(uint64_t token) { inner_->CancelRead(token); }

bool TimedTransport::RttEstimate(double* srtt_us, double* rttvar_us) const {
  return inner_->RttEstimate(srtt_us, rttvar_us);
}

void TimedTransport::StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                                WriteCompletion done) {
  inner_->StartWrite(handle, offset, data, Timed(data.size(), true, std::move(done)));
}

uint32_t TimedTransport::max_in_flight() const { return inner_->max_in_flight(); }
uint32_t TimedTransport::current_window() const { return inner_->current_window(); }
size_t TimedTransport::Poll() { return inner_->Poll(); }
void TimedTransport::Drain() { inner_->Drain(); }
swift::TransportStats TimedTransport::stats() const { return inner_->stats(); }

// --- TimedStore --------------------------------------------------------------

TimedStore::TimedStore(swift::BackingStore* inner) : inner_(inner) {
  g_decorators_installed.fetch_add(1);
}

bool TimedStore::Exists(const std::string& object_name) { return inner_->Exists(object_name); }

Status TimedStore::Ensure(const std::string& object_name) { return inner_->Ensure(object_name); }

Result<BufferSlice> TimedStore::ReadAt(const std::string& object_name, uint64_t offset,
                                       uint64_t length) {
  const uint64_t start = NowNs();
  Result<BufferSlice> result = inner_->ReadAt(object_name, offset, length);
  spans_.Add(OpSpan{start, NowNs(), length, false});
  return result;
}

Status TimedStore::WriteAt(const std::string& object_name, uint64_t offset,
                           std::span<const uint8_t> data) {
  const uint64_t start = NowNs();
  Status status = inner_->WriteAt(object_name, offset, data);
  spans_.Add(OpSpan{start, NowNs(), data.size(), true});
  return status;
}

Result<uint64_t> TimedStore::Size(const std::string& object_name) {
  return inner_->Size(object_name);
}

Status TimedStore::Truncate(const std::string& object_name, uint64_t size) {
  return inner_->Truncate(object_name, size);
}

Status TimedStore::Remove(const std::string& object_name) { return inner_->Remove(object_name); }

Result<ScrubReport> TimedStore::Scrub(const std::string& object_name) {
  return inner_->Scrub(object_name);
}

}  // namespace perfbench
