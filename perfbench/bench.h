// Shared declarations of the striped-I/O benchmark (see README.md).
//
// The benchmark drives the production stack over real UDP loopback:
//   SwiftFile → DistributionAgent → UdpTransport → UdpSocket →
//   UdpAgentServer / StorageAgentCore → IntegrityBackingStore →
//   PosixBackingStore
// with every option at the default swift_cli and swift_agentd ship. The
// agents live in this process so the traced run can time their stores. All
// per-layer numbers come from outside the program: decorators owned by this
// benchmark, the program's public counters, and isolated capacity probes.

#ifndef SWIFT_PERFBENCH_BENCH_H_
#define SWIFT_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/core/agent_transport.h"
#include "src/core/stripe_layout.h"

namespace perfbench {

// --- clocks and process facts ------------------------------------------------

uint64_t NowNs();              // steady clock
uint64_t ProcessCpuNs();       // user+sys CPU of the whole process
uint64_t ThreadCpuNs();        // user+sys CPU of the calling thread
double PeakRssMiB();
int ProcessThreadCount();
// swift_agentd's default listener count: min(4, nproc).
uint32_t DefaultShards();

// --- raw-sample statistics --------------------------------------------------

// Nearest-rank percentile of raw samples (0 < q <= 1). Sorts `samples`.
double Percentile(std::vector<double>& samples, double q);
// True when at least ten samples lie above the q-quantile, the condition
// for reporting that quantile at all.
bool TailIsResolved(size_t count, double q);

struct Summary {
  double min = 0;
  double median = 0;
  double max = 0;
  size_t count = 0;
};
Summary Summarize(std::vector<double> values);

// --- deterministic content model --------------------------------------------

// Every byte the benchmark writes is a function of (seed, file, offset,
// write version), so every read can be checked byte-exact against what the
// last successful write put there. Offsets and lengths are multiples of 8.
class ContentModel {
 public:
  explicit ContentModel(uint64_t seed);

  void Fill(uint32_t file, uint64_t offset, uint32_t version, std::span<uint8_t> out) const;
  // Index of the first byte of `got` that differs from the model, or -1.
  int64_t FirstMismatch(uint32_t file, uint64_t offset, uint32_t version,
                        std::span<const uint8_t> got) const;

 private:
  uint64_t Key(uint32_t file, uint32_t version) const;

  uint64_t seed_;
  std::vector<uint64_t> table_;
};

// --- decorators (installed only by the traced run) --------------------------

// Decorators constructed in this process. The untraced run checks it is 0.
extern std::atomic<uint64_t> g_decorators_installed;

struct OpSpan {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes = 0;
  bool write = false;
};

// Thread-safe span log shared by both decorators.
class SpanLog {
 public:
  void Add(const OpSpan& span);
  std::vector<OpSpan> Take();

 private:
  std::mutex mutex_;
  std::vector<OpSpan> spans_;
};

// Times every data op one SwiftFile issues on one column, from Start* to
// completion, and forwards every virtual of AgentTransport unchanged.
class TimedTransport : public swift::AgentTransport {
 public:
  explicit TimedTransport(swift::AgentTransport* inner);

  swift::Result<swift::AgentOpenResult> Open(const std::string& object_name,
                                             uint32_t flags) override;
  swift::Status Write(uint32_t handle, uint64_t offset, std::span<const uint8_t> data) override;
  swift::Result<swift::BufferSlice> Read(uint32_t handle, uint64_t offset,
                                         uint64_t length) override;
  swift::Result<uint64_t> Stat(uint32_t handle) override;
  swift::Status Truncate(uint32_t handle, uint64_t size) override;
  swift::Status Close(uint32_t handle) override;
  swift::Status Remove(const std::string& object_name) override;
  swift::Result<swift::ScrubReport> Scrub(const std::string& object_name) override;
  void StartRead(uint32_t handle, uint64_t offset, uint64_t length,
                 ReadCompletion done) override;
  void StartReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                     WriteCompletion done) override;
  uint64_t StartCancellableReadInto(uint32_t handle, uint64_t offset, std::span<uint8_t> out,
                                    WriteCompletion done) override;
  void CancelRead(uint64_t token) override;
  bool RttEstimate(double* srtt_us, double* rttvar_us) const override;
  void StartWrite(uint32_t handle, uint64_t offset, std::span<const uint8_t> data,
                  WriteCompletion done) override;
  uint32_t max_in_flight() const override;
  uint32_t current_window() const override;
  size_t Poll() override;
  void Drain() override;
  swift::TransportStats stats() const override;

  SpanLog& spans() { return spans_; }

 private:
  WriteCompletion Timed(uint64_t bytes, bool write, WriteCompletion done);

  swift::AgentTransport* inner_;
  SpanLog spans_;
};

// Times every ReadAt/WriteAt StorageAgentCore makes on one agent's store and
// forwards every virtual of BackingStore unchanged.
class TimedStore : public swift::BackingStore {
 public:
  explicit TimedStore(swift::BackingStore* inner);

  bool Exists(const std::string& object_name) override;
  swift::Status Ensure(const std::string& object_name) override;
  swift::Result<swift::BufferSlice> ReadAt(const std::string& object_name, uint64_t offset,
                                           uint64_t length) override;
  swift::Status WriteAt(const std::string& object_name, uint64_t offset,
                        std::span<const uint8_t> data) override;
  swift::Result<uint64_t> Size(const std::string& object_name) override;
  swift::Status Truncate(const std::string& object_name, uint64_t size) override;
  swift::Status Remove(const std::string& object_name) override;
  swift::Result<swift::ScrubReport> Scrub(const std::string& object_name) override;

  SpanLog& spans() { return spans_; }

 private:
  swift::BackingStore* inner_;
  SpanLog spans_;
};

// --- workloads --------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  uint32_t agents = 4;
  uint32_t parity_units = 0;  // m; 0 = no parity
  swift::ErasureKind codec = swift::ErasureKind::kXor;
  uint64_t stripe_unit = 64 * 1024;
  uint32_t client_threads = 1;  // one open file each
  uint64_t op_bytes = 1 << 20;
  uint64_t file_bytes = 16 << 20;  // per file
  // Sequential workloads alternate a write pass and a read pass over the
  // whole file; the others issue random aligned ops with this read share.
  bool sequential = true;
  double read_fraction = 0;
  double loss = 0;        // outgoing loss on client transports and agents
  bool degraded = false;  // stop one agent before the timed phase

  swift::StripeConfig Stripe() const;
};

// The four workloads, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// One metric of the final report.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  Summary spread;  // per-repetition values behind `value`, when it is a median
  std::string note;
};

struct RunReport {
  bool correct = true;
  bool complete = true;  // false when a metric could not be measured
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // agent data lives under here
};

// Untraced run: setup_s plus every end-to-end metric.
RunReport RunEndToEnd(const WorkloadSpec& spec, const RunArgs& args);
// Traced run: self-tests, untraced and traced phases, per-layer metrics,
// capacity probes.
RunReport RunTraced(const WorkloadSpec& spec, const RunArgs& args);

// --- isolated capacity probes ------------------------------------------------

// Each capacity is the aggregate of as many concurrent instances as the
// workload's path has (the `*_instances` fields), so it compares with the
// workload's aggregate rate; the instances share the host's CPUs as they do
// in the end-to-end run.
struct Capacities {
  double encode_GBps = 0;         // data bytes in per second
  double update_parity_GBps = 0;  // data delta bytes per second (all m parities)
  double reconstruct_GBps = 0;    // rebuilt bytes per second
  double store_read_MBps = 0;
  double store_write_MBps = 0;
  double pump8k_dgrams_per_s = 0;
  double agent_server_ops_per_s = 0;
  double distribution_ops_per_s = 0;
  swift::StripeConfig codec_geometry;  // what the codec probes ran at
  uint32_t client_instances = 1;       // codec and DistributionAgent probes
  uint32_t agent_instances = 1;        // store and agent-server probes
  uint32_t pump_pairs = 1;             // socket pump sender/receiver pairs
  std::vector<std::string> failed;     // probes that could not measure
};

Capacities RunProbes(const WorkloadSpec& spec, const std::string& scratch_dir, uint64_t seed);

}  // namespace perfbench

#endif  // SWIFT_PERFBENCH_BENCH_H_
