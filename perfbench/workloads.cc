// Workloads: cluster set-up, the closed-loop timed phase, and the
// end-to-end and per-layer metrics computed from what they record.

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "perfbench/bench.h"
#include "src/agent/integrity_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/core/transfer_plan.h"
#include "src/proto/message.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace swift;

namespace {

constexpr int kSetupRepeats = 7;
constexpr uint64_t kIntervalNs = 500'000'000;  // end-to-end sampling interval
constexpr uint64_t kTraceTickNs = 50'000'000;  // congestion-state sampling
constexpr uint32_t kUnknownVersion = ~0u;     // block whose last write failed
constexpr uint64_t kPrefillChunk = 1 << 20;
constexpr uint64_t kSelfTestOps = 32;
constexpr double kMB = 1e6;
constexpr double kMiB = 1024.0 * 1024.0;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec stream;
  stream.name = "stream";
  stream.agents = 4;
  all.push_back(stream);

  WorkloadSpec small_mixed;
  small_mixed.name = "small_mixed";
  small_mixed.agents = 6;
  small_mixed.parity_units = 2;
  small_mixed.codec = ErasureKind::kReedSolomon;
  small_mixed.client_threads = 4;
  small_mixed.op_bytes = 16 * 1024;
  small_mixed.file_bytes = 8 << 20;
  small_mixed.sequential = false;
  small_mixed.read_fraction = 0.7;
  all.push_back(small_mixed);

  WorkloadSpec degraded = stream;
  degraded.name = "degraded_read";
  degraded.agents = 5;
  degraded.parity_units = 1;
  degraded.codec = ErasureKind::kXor;
  degraded.degraded = true;
  all.push_back(degraded);

  WorkloadSpec lossy = stream;
  lossy.name = "lossy_stream";
  lossy.loss = 0.01;
  all.push_back(lossy);
  return all;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

// --- the cluster under test ---------------------------------------------------

struct AgentNode {
  std::unique_ptr<PosixBackingStore> posix;
  std::unique_ptr<IntegrityBackingStore> integrity;
  std::unique_ptr<TimedStore> timed;  // traced run only
  std::unique_ptr<StorageAgentCore> core;
  std::unique_ptr<UdpAgentServer> server;
};

struct ClientFile {
  uint32_t id = 0;
  std::vector<std::unique_ptr<TimedTransport>> timed;  // traced run only
  std::unique_ptr<SwiftFile> file;
  std::vector<uint32_t> versions;  // per op_bytes block
  uint32_t next_version = 1;
};

class Cluster {
 public:
  Cluster(const WorkloadSpec& spec, uint64_t seed, std::string root, bool traced,
          const ContentModel& model)
      : spec_(spec), seed_(seed), root_(std::move(root)), traced_(traced), model_(model) {}

  ~Cluster() {
    files_.clear();
    transports_.clear();
    // A server notices Stop() only at its next poll timeout; stopping them
    // all at once keeps the (untimed) tear-down short.
    std::vector<std::thread> stops;
    for (auto& agent : agents_) {
      stops.emplace_back([server = agent->server.get()] { server->Stop(); });
    }
    for (std::thread& stop : stops) {
      stop.join();
    }
    agents_.clear();
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Everything up to the first timed op: agents, client transports, files,
  // prefill, and on degraded workloads the failure and its detection.
  Status Start() {
    std::error_code error;
    std::filesystem::create_directories(root_, error);
    if (error) {
      return IoError("cannot create " + root_ + ": " + error.message());
    }
    for (uint32_t a = 0; a < spec_.agents; ++a) {
      SWIFT_RETURN_IF_ERROR(StartAgent(a));
    }
    for (uint32_t a = 0; a < spec_.agents; ++a) {
      UdpTransport::Options options;
      if (spec_.loss > 0) {
        options.loss_probability = spec_.loss;
        options.loss_seed = seed_ * 7919 + a;
      }
      transports_.push_back(
          std::make_unique<UdpTransport>(agents_[a]->server->port(), options));
    }
    for (uint32_t f = 0; f < spec_.client_threads; ++f) {
      SWIFT_RETURN_IF_ERROR(CreateFile(f));
    }
    for (auto& file : files_) {
      SWIFT_RETURN_IF_ERROR(Prefill(*file));
    }
    if (spec_.degraded) {
      SWIFT_RETURN_IF_ERROR(FailOneAgent());
    }
    return OkStatus();
  }

  const WorkloadSpec& spec() const { return spec_; }
  std::vector<std::unique_ptr<ClientFile>>& files() { return files_; }
  std::vector<std::unique_ptr<UdpTransport>>& transports() { return transports_; }
  std::vector<std::unique_ptr<AgentNode>>& agents() { return agents_; }

 private:
  Status StartAgent(uint32_t a) {
    auto node = std::make_unique<AgentNode>();
    const std::string dir = root_ + "/agent" + std::to_string(a);
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) {
      return IoError("cannot create " + dir);
    }
    node->posix = std::make_unique<PosixBackingStore>(dir);
    node->integrity = std::make_unique<IntegrityBackingStore>(node->posix.get());
    BackingStore* store = node->integrity.get();
    if (traced_) {
      node->timed = std::make_unique<TimedStore>(store);
      store = node->timed.get();
    }
    node->core = std::make_unique<StorageAgentCore>(store);
    UdpAgentServer::Options options;
    options.shards = DefaultShards();
    if (spec_.loss > 0) {
      options.loss_probability = spec_.loss;
      options.loss_seed = seed_ * 104729 + a;
    }
    node->server = std::make_unique<UdpAgentServer>(node->core.get(), options);
    SWIFT_RETURN_IF_ERROR(node->server->Start());
    agents_.push_back(std::move(node));
    return OkStatus();
  }

  Status CreateFile(uint32_t f) {
    auto client = std::make_unique<ClientFile>();
    client->id = f;
    std::vector<AgentTransport*> columns;
    for (auto& transport : transports_) {
      if (traced_) {
        client->timed.push_back(std::make_unique<TimedTransport>(transport.get()));
        columns.push_back(client->timed.back().get());
      } else {
        columns.push_back(transport.get());
      }
    }
    TransferPlan plan;
    plan.object_name = "perf-" + std::to_string(f);
    plan.stripe = spec_.Stripe();
    for (uint32_t a = 0; a < spec_.agents; ++a) {
      plan.agent_ids.push_back(a);
    }
    SWIFT_ASSIGN_OR_RETURN(client->file, SwiftFile::Create(plan, columns, &directory_));
    client->versions.assign(spec_.file_bytes / spec_.op_bytes, 0);
    files_.push_back(std::move(client));
    return OkStatus();
  }

  Status Prefill(ClientFile& client) {
    const uint32_t version = client.next_version++;
    std::vector<uint8_t> chunk(kPrefillChunk);
    for (uint64_t offset = 0; offset < spec_.file_bytes; offset += kPrefillChunk) {
      model_.Fill(client.id, offset, version, chunk);
      SWIFT_ASSIGN_OR_RETURN(uint64_t written, client.file->PWrite(offset, chunk));
      if (written != chunk.size()) {
        return InternalError("short prefill write");
      }
    }
    std::fill(client.versions.begin(), client.versions.end(), version);
    return OkStatus();
  }

  // Stops one agent's server, then reads until the file has marked that
  // column failed, checking every byte on the way.
  Status FailOneAgent() {
    const uint32_t column = static_cast<uint32_t>(seed_ % spec_.agents);
    agents_[column]->server->Stop();
    ClientFile& client = *files_[0];
    std::vector<uint8_t> buffer(spec_.op_bytes);
    const uint64_t give_up = NowNs() + 60'000'000'000ull;
    for (uint64_t offset = 0; !client.file->degraded(); offset += spec_.op_bytes) {
      if (NowNs() > give_up) {
        return TimedOutError("agent failure was never detected");
      }
      offset %= spec_.file_bytes;
      SWIFT_ASSIGN_OR_RETURN(uint64_t got, client.file->PRead(offset, buffer));
      const uint32_t version = client.versions[offset / spec_.op_bytes];
      if (got != buffer.size() || model_.FirstMismatch(client.id, offset, version, buffer) >= 0) {
        return DataLossError("warm-up read returned wrong bytes");
      }
    }
    const std::vector<uint32_t> failed = client.file->failed_columns();
    if (failed.size() != 1 || failed[0] != column) {
      return InternalError("the wrong column was marked failed");
    }
    return OkStatus();
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  std::string root_;
  bool traced_;
  const ContentModel& model_;
  ObjectDirectory directory_;
  std::vector<std::unique_ptr<AgentNode>> agents_;
  std::vector<std::unique_ptr<UdpTransport>> transports_;
  std::vector<std::unique_ptr<ClientFile>> files_;
};

// --- the timed phase ------------------------------------------------------------

// Cumulative counters the client threads publish for the sampler.
struct Progress {
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> checker_cpu_ns{0};  // content generation and checking
};

struct Sample {
  uint64_t t_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t checker_cpu_ns = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
};

struct ThreadLog {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> read_pass_MBps;
  std::vector<double> write_pass_MBps;
  std::vector<OpSpan> file_ops;  // traced phase only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  std::string first_error;
};

struct PhaseResult {
  std::vector<ThreadLog> threads;
  std::vector<Sample> samples;
  std::vector<double> cwnd_samples;
  std::vector<double> srtt_samples;
  int threads_mid_run = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class ClientLoop {
 public:
  ClientLoop(const WorkloadSpec& spec, const ContentModel& model, ClientFile& client,
             Progress& progress, ThreadLog& log, bool traced)
      : spec_(spec), model_(model), client_(client), progress_(progress), log_(log),
        traced_(traced), buffer_(spec.op_bytes) {}

  void Run(uint64_t deadline_ns, uint64_t seed) {
    if (spec_.sequential) {
      RunSequential(deadline_ns);
    } else {
      RunRandom(deadline_ns, UINT64_MAX, seed);
    }
  }

  // Random ops until the deadline or `max_ops`, whichever comes first.
  void RunRandom(uint64_t deadline_ns, uint64_t max_ops, uint64_t seed) {
    Rng rng(seed);
    const int64_t blocks = static_cast<int64_t>(spec_.file_bytes / spec_.op_bytes);
    for (uint64_t i = 0; i < max_ops && NowNs() < deadline_ns; ++i) {
      const bool read = rng.UniformDouble() < spec_.read_fraction;
      const uint64_t offset =
          static_cast<uint64_t>(rng.UniformInt(0, blocks - 1)) * spec_.op_bytes;
      if (read) {
        Read(offset);
      } else {
        Write(offset);
      }
    }
  }

 private:
  // Alternating whole-file write and read passes; a pass's rate is its bytes
  // over the time spent inside its calls.
  void RunSequential(uint64_t deadline_ns) {
    const uint64_t ops = spec_.file_bytes / spec_.op_bytes;
    while (NowNs() < deadline_ns) {
      for (bool write : {true, false}) {
        uint64_t call_ns = 0;
        uint64_t done = 0;
        for (; done < ops && NowNs() < deadline_ns; ++done) {
          call_ns += write ? Write(done * spec_.op_bytes) : Read(done * spec_.op_bytes);
        }
        if (done == ops && call_ns > 0) {
          const double rate = static_cast<double>(spec_.file_bytes) / kMB /
                              (static_cast<double>(call_ns) / 1e9);
          (write ? log_.write_pass_MBps : log_.read_pass_MBps).push_back(rate);
        }
      }
    }
  }

  // Returns the call's duration in ns.
  uint64_t Read(uint64_t offset) {
    const uint64_t start = NowNs();
    Result<uint64_t> got = client_.file->PRead(offset, buffer_);
    const uint64_t end = NowNs();
    ++log_.attempted;
    if (!got.ok() || *got != buffer_.size()) {
      Fail(got.ok() ? "short read" : got.status().ToString());
    } else {
      const uint64_t cpu0 = ThreadCpuNs();
      const uint32_t version = client_.versions[offset / spec_.op_bytes];
      if (version != kUnknownVersion &&
          model_.FirstMismatch(client_.id, offset, version, buffer_) >= 0) {
        ++log_.mismatched;
        Fail("read returned bytes that were never written there");
      } else {
        log_.read_us.push_back(static_cast<double>(end - start) / 1e3);
        progress_.read_bytes.fetch_add(buffer_.size(), std::memory_order_relaxed);
      }
      progress_.checker_cpu_ns.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
    }
    if (traced_) {
      log_.file_ops.push_back(OpSpan{start, end, buffer_.size(), false});
    }
    return end - start;
  }

  uint64_t Write(uint64_t offset) {
    const uint64_t cpu0 = ThreadCpuNs();
    const uint32_t version = client_.next_version++;
    model_.Fill(client_.id, offset, version, buffer_);
    progress_.checker_cpu_ns.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
    const uint64_t start = NowNs();
    Result<uint64_t> written = client_.file->PWrite(offset, buffer_);
    const uint64_t end = NowNs();
    ++log_.attempted;
    uint32_t& block_version = client_.versions[offset / spec_.op_bytes];
    if (!written.ok() || *written != buffer_.size()) {
      block_version = kUnknownVersion;  // contents now undefined
      Fail(written.ok() ? "short write" : written.status().ToString());
    } else {
      block_version = version;
      log_.write_us.push_back(static_cast<double>(end - start) / 1e3);
      progress_.write_bytes.fetch_add(buffer_.size(), std::memory_order_relaxed);
    }
    if (traced_) {
      log_.file_ops.push_back(OpSpan{start, end, buffer_.size(), true});
    }
    return end - start;
  }

  void Fail(const std::string& what) {
    ++log_.failed;
    if (log_.first_error.empty()) {
      log_.first_error = what;
    }
  }

  const WorkloadSpec& spec_;
  const ContentModel& model_;
  ClientFile& client_;
  Progress& progress_;
  ThreadLog& log_;
  bool traced_;
  std::vector<uint8_t> buffer_;
};

PhaseResult RunPhase(Cluster& cluster, const ContentModel& model, uint64_t seed, double seconds,
                     bool traced) {
  PhaseResult result;
  Progress progress;
  const size_t files = cluster.files().size();
  result.threads.resize(files);
  result.start_ns = NowNs();
  const uint64_t deadline = result.start_ns + static_cast<uint64_t>(seconds * 1e9);

  auto sample = [&] {
    result.samples.push_back(Sample{NowNs(), ProcessCpuNs(),
                                    progress.checker_cpu_ns.load(), progress.read_bytes.load(),
                                    progress.write_bytes.load()});
  };
  sample();
  std::vector<std::thread> clients;
  for (size_t f = 0; f < files; ++f) {
    clients.emplace_back([&, f] {
      ClientLoop loop(cluster.spec(), model, *cluster.files()[f], progress, result.threads[f],
                      traced);
      loop.Run(deadline, seed * 1000 + f);
    });
  }
  // This thread samples: throughput and CPU every interval, congestion state
  // and the thread count only while tracing.
  const uint64_t tick = traced ? kTraceTickNs : kIntervalNs;
  uint64_t next_interval = result.start_ns + kIntervalNs;
  bool counted_threads = false;
  for (uint64_t next = result.start_ns + tick; next <= deadline; next += tick) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - std::min(next, NowNs())));
    if (next >= next_interval) {
      sample();
      next_interval += kIntervalNs;
    }
    if (traced) {
      for (auto& transport : cluster.transports()) {
        const UdpTransport::CcSnapshot cc = transport->cc_snapshot();
        result.cwnd_samples.push_back(cc.cwnd);
        if (cc.rtt_samples > 0) {
          result.srtt_samples.push_back(cc.srtt_us);
        }
      }
      if (!counted_threads && next >= result.start_ns + (deadline - result.start_ns) / 2) {
        result.threads_mid_run = ProcessThreadCount();
        counted_threads = true;
      }
    }
  }
  for (auto& client : clients) {
    client.join();
  }
  result.end_ns = NowNs();
  return result;
}

// --- metric helpers ---------------------------------------------------------------

std::vector<double> Pool(const PhaseResult& phase, std::vector<double> ThreadLog::*member) {
  std::vector<double> all;
  for (const ThreadLog& log : phase.threads) {
    all.insert(all.end(), (log.*member).begin(), (log.*member).end());
  }
  return all;
}

Metric MedianMetric(const std::string& name, const std::string& unit, std::vector<double> values,
                    const std::string& note) {
  Metric metric{name, unit, 0, Summarize(std::move(values)), note};
  metric.value = metric.spread.median;
  return metric;
}

// Per-interval values from the sampler: rate of `bytes` or CPU per MiB moved.
std::vector<double> IntervalRates(const PhaseResult& phase, bool read) {
  std::vector<double> rates;
  for (size_t i = 1; i < phase.samples.size(); ++i) {
    const Sample& a = phase.samples[i - 1];
    const Sample& b = phase.samples[i];
    const double bytes = static_cast<double>(read ? b.read_bytes - a.read_bytes
                                                  : b.write_bytes - a.write_bytes);
    rates.push_back(bytes / kMB / (static_cast<double>(b.t_ns - a.t_ns) / 1e9));
  }
  return rates;
}

std::vector<double> IntervalCpuPerMiB(const PhaseResult& phase) {
  std::vector<double> values;
  for (size_t i = 1; i < phase.samples.size(); ++i) {
    const Sample& a = phase.samples[i - 1];
    const Sample& b = phase.samples[i];
    const double mib =
        static_cast<double>(b.read_bytes - a.read_bytes + b.write_bytes - a.write_bytes) / kMiB;
    const double cpu_ms =
        static_cast<double>((b.cpu_ns - a.cpu_ns) - (b.checker_cpu_ns - a.checker_cpu_ns)) / 1e6;
    if (mib > 0) {
      values.push_back(cpu_ms / mib);
    }
  }
  return values;
}

Metric RateMetric(const WorkloadSpec& spec, const PhaseResult& phase, bool read) {
  const char* name = read ? "read_MBps" : "write_MBps";
  if (spec.sequential) {
    return MedianMetric(name, "MB/s", Pool(phase, read ? &ThreadLog::read_pass_MBps
                                                       : &ThreadLog::write_pass_MBps),
                        "median over whole-file passes of bytes / time inside the calls");
  }
  return MedianMetric(name, "MB/s", IntervalRates(phase, read),
                      "median over 0.5 s intervals of bytes completed / wall time");
}

// Percentiles of raw per-call samples; a percentile is reported only when
// at least ten samples lie beyond it.
void LatencyMetrics(const PhaseResult& phase, bool read, RunReport& report) {
  std::vector<double> samples = Pool(phase, read ? &ThreadLog::read_us : &ThreadLog::write_us);
  const std::string prefix = read ? "read_" : "write_";
  const std::string count = "n=" + std::to_string(samples.size());
  for (const auto& [q, name] : {std::pair{0.50, "p50"}, {0.90, "p90"}, {0.99, "p99"}}) {
    if (TailIsResolved(samples.size(), q)) {
      report.metrics.push_back(
          Metric{prefix + name + "_ms", "ms", Percentile(samples, q) / 1e3, {}, count});
    } else {
      report.notes.push_back(prefix + name + "_ms omitted: " + count +
                             " leaves fewer than ten samples beyond it");
    }
  }
}

void CountOps(const PhaseResult& phase, RunReport& report) {
  for (const ThreadLog& log : phase.threads) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    if (log.mismatched > 0) {
      report.correct = false;
    }
    if (!log.first_error.empty()) {
      report.notes.push_back("op error: " + log.first_error);
    }
  }
}

void EndToEndMetrics(const WorkloadSpec& spec, const PhaseResult& phase, RunReport& report) {
  report.metrics.push_back(RateMetric(spec, phase, true));
  report.metrics.push_back(RateMetric(spec, phase, false));
  LatencyMetrics(phase, true, report);
  LatencyMetrics(phase, false, report);
  CountOps(phase, report);
  report.metrics.push_back(Metric{"op_error_frac", "fraction",
                                  report.attempted == 0 ? 1.0
                                                        : static_cast<double>(report.failed) /
                                                              static_cast<double>(report.attempted),
                                  {}, "ops attempted=" + std::to_string(report.attempted)});
  report.metrics.push_back(MedianMetric(
      "cpu_ms_per_MiB", "ms/MiB", IntervalCpuPerMiB(phase),
      "median over 0.5 s intervals of process CPU (less the checker's) per MiB moved"));
  report.metrics.push_back(Metric{"peak_rss_MiB", "MiB", PeakRssMiB(), {}, ""});
}

std::string ScratchFor(const RunArgs& args, const std::string& what) {
  return args.scratch_dir + "/" + args.workload + "-" + what;
}

// A deliberately planted wrong byte must be flagged by the checker.
bool PlantedByteIsFlagged(const ContentModel& model, uint64_t seed) {
  std::vector<uint8_t> buffer(64 * 1024);
  model.Fill(3, 1 << 20, 7, buffer);
  if (model.FirstMismatch(3, 1 << 20, 7, buffer) != -1) {
    return false;
  }
  const size_t where = static_cast<size_t>(seed * 2654435761u % buffer.size());
  buffer[where] ^= 0x01;
  return model.FirstMismatch(3, 1 << 20, 7, buffer) == static_cast<int64_t>(where);
}

// --- per-layer metrics ------------------------------------------------------------

// Registry values the traced run diffs across its timed phase.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  HistogramMetric::Snapshot recv_batch;
  HistogramMetric::Snapshot send_batch;

  static RegistrySnapshot Take() {
    MetricRegistry& registry = MetricRegistry::Global();
    RegistrySnapshot snap;
    for (const char* name :
         {"swift_erasure_encode_bytes_total", "swift_erasure_reconstruct_bytes_total",
          "swift_file_parity_reconstructions_total", "swift_udp_client_reactor_wakeups_total",
          "swift_udp_client_datagrams_sent_total", "swift_agent_datagrams_out_total",
          "swift_buffer_copy_bytes_total"}) {
      snap.counters[name] = registry.GetCounter(name)->Value();
    }
    snap.recv_batch = registry.GetHistogram("swift_socket_recv_batch_size")->Snap();
    snap.send_batch = registry.GetHistogram("swift_socket_send_batch_size")->Snap();
    return snap;
  }
};

double BatchMean(const HistogramMetric::Snapshot& before, const HistogramMetric::Snapshot& after) {
  const uint64_t count = after.count - before.count;
  return count == 0 ? 0 : (after.sum - before.sum) / static_cast<double>(count);
}

double DurationUs(const OpSpan& span) { return static_cast<double>(span.end_ns - span.start_ns) / 1e3; }

// Attributes each file op's transport spans (same file, started inside the
// op — each thread's ops are sequential) and measures how much of the op no
// transport op covered.
struct FileOpBreakdown {
  std::vector<double> self_us;
  std::vector<double> dispatch_lag_us;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t unit_ops_in_reads = 0;
  uint64_t unit_ops_in_writes = 0;
};

void BreakDown(const std::vector<OpSpan>& file_ops, std::vector<OpSpan> unit_ops,
               FileOpBreakdown& out) {
  std::sort(unit_ops.begin(), unit_ops.end(),
            [](const OpSpan& a, const OpSpan& b) { return a.start_ns < b.start_ns; });
  size_t next = 0;
  for (const OpSpan& op : file_ops) {
    while (next < unit_ops.size() && unit_ops[next].start_ns < op.start_ns) {
      ++next;
    }
    uint64_t covered = 0;
    uint64_t cover_end = op.start_ns;  // union of intervals, swept by start
    uint64_t count = 0;
    for (; next < unit_ops.size() && unit_ops[next].start_ns <= op.end_ns; ++next) {
      const OpSpan& unit = unit_ops[next];
      if (count++ == 0) {
        out.dispatch_lag_us.push_back(static_cast<double>(unit.start_ns - op.start_ns) / 1e3);
      }
      const uint64_t begin = std::max(unit.start_ns, cover_end);
      const uint64_t end = std::min(unit.end_ns, op.end_ns);
      if (end > begin) {
        covered += end - begin;
        cover_end = end;
      }
    }
    out.self_us.push_back(static_cast<double>(op.end_ns - op.start_ns - covered) / 1e3);
    if (op.write) {
      ++out.write_ops;
      out.unit_ops_in_writes += count;
    } else {
      ++out.read_ops;
      out.unit_ops_in_reads += count;
    }
  }
}

double SpanBusyNs(const std::vector<OpSpan>& spans) {
  double total = 0;
  for (const OpSpan& span : spans) {
    total += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total;
}

std::vector<double> SpanDurations(const std::vector<OpSpan>& spans, bool writes) {
  std::vector<double> out;
  for (const OpSpan& span : spans) {
    if (span.write == writes) {
      out.push_back(DurationUs(span));
    }
  }
  return out;
}

void Add(RunReport& report, const std::string& name, const std::string& unit, double value,
         const std::string& note = "") {
  report.metrics.push_back(Metric{name, unit, value, {}, note});
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

// --- public entry points ---------------------------------------------------------

StripeConfig WorkloadSpec::Stripe() const {
  StripeConfig stripe;
  stripe.num_agents = agents;
  stripe.stripe_unit = stripe_unit;
  if (parity_units > 0) {
    stripe.parity = ParityMode::kRotating;
    stripe.parity_units = parity_units;
    stripe.codec = codec;
  }
  return stripe;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) {
    names.push_back(spec.name);
  }
  return names;
}

RunReport RunEndToEnd(const WorkloadSpec& spec, const RunArgs& args) {
  RunReport report;
  const ContentModel model(args.seed);
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();  // tear-down of the previous repetition is not timed
    const uint64_t start = NowNs();
    cluster = std::make_unique<Cluster>(spec, args.seed, ScratchFor(args, std::to_string(i)),
                                        /*traced=*/false, model);
    Status status = cluster->Start();
    if (!status.ok()) {
      report.correct = false;
      report.notes.push_back("setup failed: " + status.ToString());
      return report;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  PhaseResult phase = RunPhase(*cluster, model, args.seed, args.seconds, /*traced=*/false);
  cluster.reset();

  report.metrics.push_back(MedianMetric("setup_s", "s", setup_s,
                                        "median of " + std::to_string(kSetupRepeats) +
                                            " full set-ups"));
  EndToEndMetrics(spec, phase, report);
  if (g_decorators_installed.load() != 0) {
    report.correct = false;
    report.notes.push_back("self-test failed: the untraced run installed a decorator");
  }
  if (!PlantedByteIsFlagged(model, args.seed)) {
    report.correct = false;
    report.notes.push_back("self-test failed: the checker missed a planted wrong byte");
  }
  return report;
}

namespace {

// The benchmark's own self-tests; returns failures (empty = all passed).
std::vector<std::string> RunSelfTests(const WorkloadSpec& spec, const RunArgs& args) {
  std::vector<std::string> failures;
  const ContentModel model(args.seed);
  if (!PlantedByteIsFlagged(model, args.seed)) {
    failures.push_back("the checker missed a planted wrong byte");
  }

  // The same fixed op sequence, once over bare transports and once through
  // the decorators, must issue the same transport ops.
  WorkloadSpec small = spec;
  small.loss = 0;
  small.degraded = false;
  small.client_threads = 1;
  small.file_bytes = 2 << 20;
  small.sequential = false;
  small.read_fraction = 0.7;
  uint64_t submitted[2] = {0, 0};
  uint64_t copied[2] = {0, 0};  // a decorator that skips an override costs copies
  uint64_t spans = 0;
  Counter* copy_bytes = MetricRegistry::Global().GetCounter("swift_buffer_copy_bytes_total");
  for (int traced = 0; traced < 2; ++traced) {
    const uint64_t decorators_before = g_decorators_installed.load();
    Cluster cluster(small, args.seed,
                    ScratchFor(args, traced ? "selftest-wrapped" : "selftest-bare"), traced == 1,
                    model);
    Status status = cluster.Start();
    if (!status.ok()) {
      failures.push_back("self-test set-up failed: " + status.ToString());
      return failures;
    }
    if (traced == 0 && g_decorators_installed.load() != decorators_before) {
      failures.push_back("the untraced set-up installed a decorator");
    }
    auto ops = [&] {
      uint64_t total = 0;
      for (auto& transport : cluster.transports()) {
        total += transport->stats().ops_submitted;
      }
      return total;
    };
    ClientFile& client = *cluster.files()[0];
    for (auto& timed : client.timed) {
      timed->spans().Take();  // drop the prefill's spans
    }
    const uint64_t before = ops();
    const uint64_t copied_before = copy_bytes->Value();
    ThreadLog log;
    Progress progress;
    ClientLoop(small, model, client, progress, log, false)
        .RunRandom(UINT64_MAX, kSelfTestOps, args.seed);
    if (log.failed > 0) {
      failures.push_back("self-test op failed: " + log.first_error);
    }
    submitted[traced] = ops() - before;
    copied[traced] = copy_bytes->Value() - copied_before;
    for (auto& timed : client.timed) {
      spans += timed->spans().Take().size();
    }
  }
  if (submitted[0] != submitted[1]) {
    failures.push_back("wrapped and bare runs issued different transport op counts (" +
                       std::to_string(submitted[1]) + " vs " + std::to_string(submitted[0]) +
                       ")");
  }
  if (copied[0] != copied[1]) {
    failures.push_back("wrapped and bare runs copied different byte counts (" +
                       std::to_string(copied[1]) + " vs " + std::to_string(copied[0]) + ")");
  }
  if (spans != submitted[1]) {
    failures.push_back("the transport decorator saw " + std::to_string(spans) + " of " +
                       std::to_string(submitted[1]) + " ops");
  }
  return failures;
}

}  // namespace

RunReport RunTraced(const WorkloadSpec& spec, const RunArgs& args) {
  RunReport report;
  for (const std::string& failure : RunSelfTests(spec, args)) {
    report.correct = false;
    report.notes.push_back("self-test failed: " + failure);
  }
  const ContentModel model(args.seed);
  const double half = args.seconds / 2;

  // Untraced phase: the reference for the tracing overhead.
  double untraced_read_MBps = 0;
  {
    Cluster cluster(spec, args.seed, ScratchFor(args, "untraced"), false, model);
    Status status = cluster.Start();
    if (!status.ok()) {
      report.correct = false;
      report.notes.push_back("setup failed: " + status.ToString());
      return report;
    }
    PhaseResult phase = RunPhase(cluster, model, args.seed, half, false);
    CountOps(phase, report);
    untraced_read_MBps = RateMetric(spec, phase, true).value;
  }

  Cluster cluster(spec, args.seed, ScratchFor(args, "traced"), true, model);
  Status status = cluster.Start();
  if (!status.ok()) {
    report.correct = false;
    report.notes.push_back("setup failed: " + status.ToString());
    return report;
  }
  for (auto& file : cluster.files()) {
    for (auto& timed : file->timed) {
      timed->spans().Take();
    }
  }
  for (auto& agent : cluster.agents()) {
    agent->timed->spans().Take();
  }
  uint64_t retransmits_before = 0;
  for (auto& transport : cluster.transports()) {
    retransmits_before += transport->retransmissions();
  }
  const RegistrySnapshot before = RegistrySnapshot::Take();
  PhaseResult phase = RunPhase(cluster, model, args.seed + 1, half, true);
  const RegistrySnapshot after = RegistrySnapshot::Take();
  uint64_t retransmits = 0;
  for (auto& transport : cluster.transports()) {
    retransmits += transport->retransmissions();
  }
  retransmits -= retransmits_before;
  CountOps(phase, report);
  const double traced_read_MBps = RateMetric(spec, phase, true).value;
  const double wall_s = static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
  const double wall_ns = wall_s * 1e9;

  // Client-side spans, per file, then pooled.
  FileOpBreakdown breakdown;
  std::vector<OpSpan> unit_ops;
  for (size_t f = 0; f < cluster.files().size(); ++f) {
    std::vector<OpSpan> file_units;
    for (auto& timed : cluster.files()[f]->timed) {
      std::vector<OpSpan> spans = timed->spans().Take();
      file_units.insert(file_units.end(), spans.begin(), spans.end());
    }
    BreakDown(phase.threads[f].file_ops, file_units, breakdown);
    unit_ops.insert(unit_ops.end(), file_units.begin(), file_units.end());
  }
  std::vector<OpSpan> store_ops;
  for (auto& agent : cluster.agents()) {
    std::vector<OpSpan> spans = agent->timed->spans().Take();
    store_ops.insert(store_ops.end(), spans.begin(), spans.end());
  }
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  for (const ThreadLog& log : phase.threads) {
    for (const OpSpan& op : log.file_ops) {
      (op.write ? write_bytes : read_bytes) += op.bytes;
    }
  }
  const uint64_t live_agents = spec.agents - (spec.degraded ? 1 : 0);
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counters.at(name) - before.counters.at(name));
  };

  // The probes run after the timed phases so their own codec and buffer
  // work stays out of the counter deltas above.
  const Capacities caps = RunProbes(spec, ScratchFor(args, "probes"), args.seed);
  for (const std::string& probe : caps.failed) {
    report.complete = false;
    report.notes.push_back("probe could not measure: " + probe);
  }
  if (!report.complete) {
    return report;
  }
  const std::string clients_note =
      "isolated, " + std::to_string(caps.client_instances) + " concurrent instance(s)";
  const std::string agents_note =
      "isolated, " + std::to_string(caps.agent_instances) + " concurrent instance(s)";

  // swift_file
  std::vector<double> self_us = breakdown.self_us;
  Add(report, "swift_file.self_us_per_op", "us", Percentile(self_us, 0.5),
      "median over " + std::to_string(self_us.size()) + " file ops");
  Add(report, "swift_file.unit_ops_per_write", "ops",
      Ratio(static_cast<double>(breakdown.unit_ops_in_writes), static_cast<double>(breakdown.write_ops)));
  Add(report, "swift_file.unit_ops_per_read", "ops",
      Ratio(static_cast<double>(breakdown.unit_ops_in_reads), static_cast<double>(breakdown.read_ops)));
  const double reconstructions = delta("swift_file_parity_reconstructions_total");
  Add(report, "swift_file.reconstructions_per_MiB", "count/MiB",
      Ratio(reconstructions, static_cast<double>(read_bytes) / kMiB));

  // distribution_agent
  std::vector<double> lag = breakdown.dispatch_lag_us;
  Add(report, "distribution_agent.dispatch_lag_us_p50", "us", Percentile(lag, 0.5),
      "n=" + std::to_string(lag.size()));
  Add(report, "distribution_agent.inflight_mean", "ops",
      SpanBusyNs(unit_ops) / (wall_ns * static_cast<double>(spec.agents)),
      "transport-op time per column per second of wall time");
  Add(report, "distribution_agent.capacity_ops_per_s", "ops/s", caps.distribution_ops_per_s,
      clients_note + ": OpBatch over null transports");

  // erasure: seconds of codec work implied by the counters, over wall time,
  // on every workload, so a stray codec call on a path without parity shows.
  const StripeConfig& geometry = caps.codec_geometry;
  const double k = geometry.DataAgentsPerRow();
  const double m = geometry.ParityUnitsPerRow();
  const double unit = static_cast<double>(geometry.stripe_unit);
  const double encoded_data = delta("swift_erasure_encode_bytes_total") / m * k;
  const double rebuilt = delta("swift_erasure_reconstruct_bytes_total") + reconstructions * unit;
  // No counter covers UpdateParity: every write smaller than a row of a
  // parity layout folds its delta into the m parities.
  const double updated = spec.parity_units > 0 && spec.op_bytes < spec.Stripe().RowDataBytes()
                             ? static_cast<double>(write_bytes)
                             : 0;
  const std::string geometry_note =
      clients_note + ", k=" + std::to_string(static_cast<int>(k)) + " m=" +
      std::to_string(static_cast<int>(m)) + " " + std::to_string(geometry.stripe_unit / 1024) +
      " KiB units";
  const double codec_s = encoded_data / (caps.encode_GBps * 1e9) +
                         rebuilt / (caps.reconstruct_GBps * 1e9) +
                         updated / (caps.update_parity_GBps * 1e9);
  Add(report, "erasure.encode_GBps", "GB/s", caps.encode_GBps, geometry_note);
  Add(report, "erasure.update_parity_GBps", "GB/s", caps.update_parity_GBps, geometry_note);
  Add(report, "erasure.reconstruct_GBps", "GB/s", caps.reconstruct_GBps, geometry_note);
  Add(report, "erasure.busy_frac", "fraction", codec_s / wall_s,
      "encoded " + std::to_string(static_cast<uint64_t>(encoded_data)) + " B, rebuilt " +
          std::to_string(static_cast<uint64_t>(rebuilt)) + " B, parity-updated " +
          std::to_string(static_cast<uint64_t>(updated)) + " B / capacity / wall time");

  // udp_transport
  std::vector<double> op_us;
  for (const OpSpan& span : unit_ops) {
    op_us.push_back(DurationUs(span));
  }
  const double transport_ops = static_cast<double>(unit_ops.size());
  const std::string op_count = "n=" + std::to_string(op_us.size());
  Add(report, "udp_transport.op_us_p50", "us", Percentile(op_us, 0.50), op_count);
  Add(report, "udp_transport.op_us_p99", "us", Percentile(op_us, 0.99),
      TailIsResolved(op_us.size(), 0.99) ? op_count : op_count + ", unresolved tail");
  Add(report, "udp_transport.retransmits_per_op", "count/op",
      Ratio(static_cast<double>(retransmits), transport_ops));
  double needed = 0;
  for (const OpSpan& span : unit_ops) {
    needed += static_cast<double>((span.bytes + kMaxPacketPayload - 1) / kMaxPacketPayload);
  }
  const double datagrams =
      delta("swift_udp_client_datagrams_sent_total") + delta("swift_agent_datagrams_out_total");
  Add(report, "udp_transport.useful_frac", "fraction", Ratio(needed, datagrams),
      "payload datagrams needed / datagrams sent by client and agents");
  double cwnd_sum = 0;
  for (double cwnd : phase.cwnd_samples) {
    cwnd_sum += cwnd;
  }
  Add(report, "udp_transport.cwnd_mean", "ops",
      Ratio(cwnd_sum, static_cast<double>(phase.cwnd_samples.size())),
      "mean of 50 ms samples over all channels");
  Add(report, "udp_transport.srtt_us", "us", Summarize(phase.srtt_samples).median,
      "median of 50 ms samples over all channels");
  Add(report, "udp_transport.wakeups_per_op", "count/op",
      Ratio(delta("swift_udp_client_reactor_wakeups_total"), transport_ops));

  // udp_socket
  Add(report, "udp_socket.recv_batch_mean", "dgrams", BatchMean(before.recv_batch, after.recv_batch));
  Add(report, "udp_socket.send_batch_mean", "dgrams", BatchMean(before.send_batch, after.send_batch));
  Add(report, "udp_socket.datagrams_per_s", "1/s", datagrams / wall_s);
  Add(report, "udp_socket.pump8k_dgrams_per_s", "1/s", caps.pump8k_dgrams_per_s,
      "isolated, 8 KiB payloads, " + std::to_string(caps.pump_pairs) + " socket pair(s)");

  // udp_agent_server
  Add(report, "udp_agent_server.threads", "count", phase.threads_mid_run,
      "process threads mid-run");
  Add(report, "udp_agent_server.capacity_ops_per_s", "ops/s", caps.agent_server_ops_per_s,
      agents_note + ": raw READ_REQ generator, in-memory agent");

  // backing_store
  std::vector<double> store_reads = SpanDurations(store_ops, false);
  std::vector<double> store_writes = SpanDurations(store_ops, true);
  Add(report, "backing_store.read_us_p50", "us", Percentile(store_reads, 0.5),
      "n=" + std::to_string(store_reads.size()));
  Add(report, "backing_store.write_us_p50", "us", Percentile(store_writes, 0.5),
      "n=" + std::to_string(store_writes.size()));
  Add(report, "backing_store.busy_frac", "fraction",
      SpanBusyNs(store_ops) / (wall_ns * static_cast<double>(live_agents)));
  Add(report, "backing_store.capacity_read_MBps", "MB/s", caps.store_read_MBps,
      agents_note + ": Posix+Integrity, 64 KiB");
  Add(report, "backing_store.capacity_write_MBps", "MB/s", caps.store_write_MBps,
      agents_note + ": Posix+Integrity, 64 KiB");

  // buffer
  Add(report, "buffer.copies_per_byte", "ratio",
      Ratio(delta("swift_buffer_copy_bytes_total"), static_cast<double>(read_bytes + write_bytes)));

  // stack: end-to-end read rate over the slowest isolated layer on the path,
  // each layer's capacity in MB/s of the bytes it carries, aggregated over as
  // many concurrent instances as the workload runs of it.
  const double unit_op_bytes = static_cast<double>(std::min(spec.op_bytes, spec.stripe_unit));
  std::vector<std::pair<std::string, double>> path = {
      {"backing_store", std::min(caps.store_read_MBps, caps.store_write_MBps)},
      {"udp_socket", caps.pump8k_dgrams_per_s * kMaxPacketPayload / kMB},
      {"udp_agent_server", caps.agent_server_ops_per_s * kMaxPacketPayload / kMB},
      {"distribution_agent", caps.distribution_ops_per_s * unit_op_bytes / kMB},
  };
  if (spec.degraded) {
    path.emplace_back("erasure", caps.reconstruct_GBps * 1e3);
  } else if (spec.parity_units > 0) {
    path.emplace_back("erasure", caps.update_parity_GBps * 1e3);
  }
  const auto slowest = std::min_element(
      path.begin(), path.end(), [](const auto& a, const auto& b) { return a.second < b.second; });
  Add(report, "stack.e2e_over_slowest_layer", "ratio", Ratio(untraced_read_MBps, slowest->second),
      "slowest layer: " + slowest->first + " (" + std::to_string(slowest->second) + " MB/s)");
  report.notes.push_back("slowest isolated layer on the path: " + slowest->first);
  Add(report, "stack.trace_overhead_frac", "fraction",
      Ratio(untraced_read_MBps - traced_read_MBps, untraced_read_MBps),
      "untraced read " + std::to_string(untraced_read_MBps) + " MB/s, traced " +
          std::to_string(traced_read_MBps) + " MB/s");
  return report;
}

}  // namespace perfbench
