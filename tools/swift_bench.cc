// swift_bench: throughput/latency measurement against live storage agents.
//
// The fio of this repository: drives a striped object over real UDP agents
// with a configurable pattern and reports MB/s plus latency percentiles.
//
//   swift_bench --agents=4751,4752,4753 [--parity] [--unit=65536]
//               [--size=67108864] [--io=1048576] [--pattern=seq|rand]
//               [--mode=write|read|readwrite] [--seed=1] [--window=4]
//   swift_bench --scaleout [--size=BYTES] [--json=PATH]
//   swift_bench --trace-overhead [--size=BYTES] [--json=PATH]
//   swift_bench --cc [--size=BYTES] [--json=PATH]
//   swift_bench --tail [--json=PATH]
//   swift_bench --erasure [--json=PATH]
//
// --window sets the stripe-unit ops kept in flight per agent (1 = the
// synchronous stop-and-wait baseline). The object ("bench-object") is
// created, filled, exercised, and removed; per-agent transport op counters
// are printed at the end.
//
// --scaleout runs the batched-syscall / multi-shard scenario matrix against
// in-process agents (no external agentd needed): a per-datagram baseline
// (1 shard, socket_batch=1 — one syscall per datagram, the pre-batching
// data path) versus the scaled-out configuration (4 shards per agent,
// socket_batch=16 moving datagrams via recvmmsg/sendmmsg). Reports
// throughput, latency percentiles, copies/byte, and datagrams/sec/core per
// cell; --json=PATH additionally writes the machine-readable trajectory
// point ci.sh diffs against the committed BENCH_udp_scaleout.json.
//
// --trace-overhead runs the same scale-out cell under each TraceMode (off /
// sampled / all) and reports per-mode throughput plus overhead relative to
// tracing-off; --json=PATH writes BENCH_trace_overhead.json, which ci.sh
// gates at ≤5% sampled-mode overhead.
//
// --cc runs the congestion-control matrix (DESIGN.md §15): the scale-out
// cell under --cc-mode delay vs off (single-session regression guard),
// 4- and 16-session fairness against one shared single-shard agent (Jain's
// index over per-session goodput), and a 10%-loss channel's retransmitted
// datagrams per op, delay vs off. --json=PATH writes BENCH_congestion.json;
// ci.sh gates 16-session Jain >= 0.8, bounded retransmits/op, and
// single-session throughput against the committed point.
//
// --tail runs the tail-latency matrix (DESIGN.md §16): a 3-agent parity
// cell whose column-0 transport is scripted (via the chaos director) to
// hold every reply 40 ms — a gray-failure straggler: alive, just late. Unit
// reads run unhedged vs hedged with 1-in-40 reads touching the straggler
// column; the hedged pass must cut read p99 to <= 0.5x the unhedged pass
// while the governor keeps the hedge rate <= 5% and the healthy warmup path
// hedges nothing. --json=PATH writes BENCH_tail.json, which ci.sh gates on
// all three bars.
//
// --erasure runs the pluggable-codec matrix (DESIGN.md §17): XOR(4,1) vs
// RS(4,2) vs RS(10,4), measuring codec-level encode and worst-case
// reconstruct GB/s plus end-to-end degraded-read p50/p99 and copies/byte
// with m columns marked failed. --json=PATH writes BENCH_erasure.json;
// ci.sh gates reconstruct throughput, the RS-within-3x-of-XOR ratios, and
// copies/byte <= 2.5 on the RS degraded-read path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/backing_store.h"
#include "src/agent/chaos.h"
#include "src/agent/congestion.h"
#include "src/agent/local_cluster.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_transport.h"
#include "src/core/erasure.h"
#include "src/core/object_admin.h"
#include "src/core/object_directory.h"
#include "src/core/swift_file.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/trace.h"
#include "src/util/units.h"

namespace {

using namespace swift;

const char* FlagValue(int argc, char** argv, const char* name, const char* fallback) {
  const size_t name_len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, name_len) == 0 && argv[i][name_len] == '=') {
      return argv[i] + name_len + 1;
    }
  }
  return fallback;
}

bool FlagPresent(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

struct Phase {
  const char* label;
  uint64_t bytes_moved = 0;
  double seconds = 0;
  HistogramMetric latency_us;
  // Deltas of swift_buffer_copies_total / swift_buffer_copy_bytes_total over
  // the phase: how many deliberate payload memcpys the bytes above cost.
  uint64_t copies = 0;
  uint64_t copy_bytes = 0;

  void Print() const {
    const HistogramMetric::Snapshot latency = latency_us.Snap();
    std::printf("%-10s %9s in %6.2fs = %8s   lat p50 %7.0fus  p95 %7.0fus  p99 %7.0fus"
                "   copies %8llu (%s, %.2fx)\n",
                label, FormatBytes(bytes_moved).c_str(), seconds,
                FormatRate(static_cast<double>(bytes_moved) / seconds).c_str(),
                latency.P50(), latency.Quantile(0.95), latency.P99(),
                static_cast<unsigned long long>(copies), FormatBytes(copy_bytes).c_str(),
                bytes_moved ? static_cast<double>(copy_bytes) / static_cast<double>(bytes_moved)
                            : 0.0);
  }
};

// ------------------------- scale-out scenario matrix -------------------------

// One cell of the matrix: N in-process agents at a given shard count and
// socket batch, driven through the full striping core.
struct ScaleoutCell {
  const char* name;
  uint32_t shards;
  uint32_t socket_batch;
  // Congestion-control mode for the driving transports: -1 follows the
  // process default (delay), 0/1/2 pin off/fixed/delay (the --cc matrix).
  int cc_mode = -1;

  // Measured:
  double write_mbps = 0;
  double read_mbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double copies_per_byte = 0;
  double datagrams_per_sec = 0;
  double datagrams_per_sec_per_core = 0;
  double mean_recv_batch = 0;  // how full recvmmsg batches actually ran
  double mean_send_batch = 0;
};

// Runs one cell: write the object once, read it back once, both timed.
// Returns false on any I/O failure.
bool RunScaleoutCell(ScaleoutCell& cell, uint64_t size) {
  constexpr int kAgents = 4;
  constexpr uint64_t kUnit = 16 * 1024;    // two packets per stripe unit
  constexpr uint64_t kIo = 1024 * 1024;    // 16 units in flight per agent
  constexpr uint32_t kWindow = 16;

  struct Agent {
    InMemoryBackingStore store;
    std::unique_ptr<StorageAgentCore> core;
    std::unique_ptr<UdpAgentServer> server;
  };
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  for (int i = 0; i < kAgents; ++i) {
    auto agent = std::make_unique<Agent>();
    agent->core = std::make_unique<StorageAgentCore>(&agent->store);
    UdpAgentServer::Options server_options;
    server_options.shards = cell.shards;
    server_options.socket_batch = cell.socket_batch;
    agent->server = std::make_unique<UdpAgentServer>(agent->core.get(), server_options);
    if (!agent->server->Start().ok()) {
      return false;
    }
    UdpTransport::Options options;
    options.max_in_flight_ops = kWindow;
    options.read_window = 8;
    options.socket_batch = cell.socket_batch;
    options.cc_mode = cell.cc_mode;
    transports.push_back(
        std::make_unique<UdpTransport>(agent->server->port(), options));
    raw.push_back(transports.back().get());
    agents.push_back(std::move(agent));
  }

  TransferPlan plan;
  plan.object_name = "scaleout-bench";
  plan.stripe.num_agents = kAgents;
  plan.stripe.stripe_unit = kUnit;
  plan.stripe.parity = ParityMode::kNone;
  for (uint32_t i = 0; i < kAgents; ++i) {
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  DistributionAgent::Options io_options;
  io_options.ops_in_flight = kWindow;
  auto file = SwiftFile::Create(plan, raw, &directory, io_options);
  if (!file.ok()) {
    return false;
  }

  MetricRegistry& registry = MetricRegistry::Global();
  Counter* agent_in = registry.GetCounter("swift_agent_datagrams_in_total");
  Counter* agent_out = registry.GetCounter("swift_agent_datagrams_out_total");
  Counter* copy_bytes = registry.GetCounter("swift_buffer_copy_bytes_total");
  const uint64_t datagrams_before = agent_in->Value() + agent_out->Value();
  const uint64_t copy_bytes_before = copy_bytes->Value();
  HistogramMetric* recv_batch = registry.GetHistogram("swift_socket_recv_batch_size");
  HistogramMetric* send_batch = registry.GetHistogram("swift_socket_send_batch_size");
  const HistogramMetric::Snapshot recv_before = recv_batch->Snap();
  const HistogramMetric::Snapshot send_before = send_batch->Snap();

  Rng rng(1);
  std::vector<uint8_t> buffer(kIo);
  for (auto& b : buffer) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  HistogramMetric latency_us;
  const uint64_t ops = size / kIo;

  const auto w0 = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < ops; ++op) {
    const auto s0 = std::chrono::steady_clock::now();
    if (!(*file)->PWrite(op * kIo, buffer).ok()) {
      return false;
    }
    latency_us.Record(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - s0)
                       .count());
  }
  const double write_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();

  const auto r0 = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < ops; ++op) {
    const auto s0 = std::chrono::steady_clock::now();
    if (!(*file)->PRead(op * kIo, buffer).ok()) {
      return false;
    }
    latency_us.Record(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - s0)
                       .count());
  }
  const double read_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();

  (void)(*file)->Close();

  const uint64_t datagrams =
      agent_in->Value() + agent_out->Value() - datagrams_before;
  const double total_s = write_s + read_s;
  cell.write_mbps = static_cast<double>(size) / write_s / 1e6;
  cell.read_mbps = static_cast<double>(size) / read_s / 1e6;
  const HistogramMetric::Snapshot latency = latency_us.Snap();
  cell.p50_us = latency.P50();
  cell.p99_us = latency.P99();
  cell.copies_per_byte =
      static_cast<double>(copy_bytes->Value() - copy_bytes_before) /
      static_cast<double>(2 * size);
  cell.datagrams_per_sec = static_cast<double>(datagrams) / total_s;
  cell.datagrams_per_sec_per_core = cell.datagrams_per_sec / cell.shards;
  const HistogramMetric::Snapshot recv_after = recv_batch->Snap();
  const HistogramMetric::Snapshot send_after = send_batch->Snap();
  cell.mean_recv_batch = recv_after.count > recv_before.count
                             ? (recv_after.sum - recv_before.sum) /
                                   static_cast<double>(recv_after.count - recv_before.count)
                             : 0;
  cell.mean_send_batch = send_after.count > send_before.count
                             ? (send_after.sum - send_before.sum) /
                                   static_cast<double>(send_after.count - send_before.count)
                             : 0;
  return true;
}

void PrintScaleoutCell(const ScaleoutCell& cell) {
  std::printf("%-10s shards %u batch %2u  write %7.1f MB/s  read %7.1f MB/s"
              "  p50 %6.0fus p99 %6.0fus  copies/B %.2f  dgrams/s %8.0f (%8.0f/core)\n",
              cell.name, cell.shards, cell.socket_batch, cell.write_mbps,
              cell.read_mbps, cell.p50_us, cell.p99_us, cell.copies_per_byte,
              cell.datagrams_per_sec, cell.datagrams_per_sec_per_core);
  std::printf("           mean wire batch: recv %.2f send %.2f datagrams/syscall\n",
              cell.mean_recv_batch, cell.mean_send_batch);
}

void AppendCellJson(std::string& json, const ScaleoutCell& cell) {
  char line[160];
  auto put = [&](const char* key, double value) {
    std::snprintf(line, sizeof(line), "  \"%s_%s\": %.2f,\n", cell.name, key, value);
    json += line;
  };
  std::snprintf(line, sizeof(line), "  \"%s_shards\": %u,\n", cell.name, cell.shards);
  json += line;
  std::snprintf(line, sizeof(line), "  \"%s_socket_batch\": %u,\n", cell.name,
                cell.socket_batch);
  json += line;
  put("write_mbps", cell.write_mbps);
  put("read_mbps", cell.read_mbps);
  put("p50_us", cell.p50_us);
  put("p99_us", cell.p99_us);
  put("copies_per_byte", cell.copies_per_byte);
  put("datagrams_per_sec", cell.datagrams_per_sec);
  put("datagrams_per_sec_per_core", cell.datagrams_per_sec_per_core);
}

// Raw datagram-rate cell: floods small datagrams at a shard group (the same
// SO_REUSEPORT + RecvBatch/SendBatch machinery the agent server runs on) and
// measures the drain rate. Small payloads make the per-datagram syscall cost
// the dominant term — exactly what batching amortizes — where the file cells
// above are dominated by payload memcpys. This is the number the ≥2× gate
// and the committed trajectory track.
struct PumpCell {
  const char* name;
  uint32_t shards;        // receiver sockets sharing one port via SO_REUSEPORT
  uint32_t socket_batch;  // datagrams per syscall on both sides

  double datagrams_per_sec = 0;
  double datagrams_per_sec_per_core = 0;
};

bool RunPumpCell(PumpCell& cell, int duration_ms) {
  constexpr size_t kPayload = 64;
  constexpr int kSenders = 8;  // distinct flows so the kernel hash spreads

  std::vector<std::unique_ptr<UdpSocket>> receivers;
  auto first = std::make_unique<UdpSocket>();
  if (!first->BindLoopback(0, /*reuseport=*/cell.shards > 1).ok()) {
    return false;
  }
  const uint16_t port = first->local_port();
  receivers.push_back(std::move(first));
  for (uint32_t i = 1; i < cell.shards; ++i) {
    auto socket = std::make_unique<UdpSocket>();
    if (!socket->BindLoopback(port, /*reuseport=*/true).ok()) {
      return false;
    }
    receivers.push_back(std::move(socket));
  }

  std::atomic<uint64_t> received{0};
  std::vector<std::thread> drains;
  for (auto& receiver : receivers) {
    drains.emplace_back([&cell, &received, socket = receiver.get()] {
      std::vector<UdpSocket::ReceivedDatagram> out;
      while (true) {
        auto n = socket->RecvBatch(100, cell.socket_batch, out);
        if (!n.ok()) {
          if (n.code() == StatusCode::kTimedOut) {
            continue;
          }
          return;  // shut down
        }
        received.fetch_add(*n, std::memory_order_relaxed);
      }
    });
  }

  std::vector<UdpSocket> senders(kSenders);
  for (auto& sender : senders) {
    if (!sender.BindLoopback().ok()) {
      return false;
    }
  }
  const UdpEndpoint dst = UdpEndpoint::Loopback(port);
  const std::vector<uint8_t> payload(kPayload, 0x5A);

  // Built once, sent repeatedly: SendBatch reads the batch without consuming
  // it, so the steady-state sender does no per-datagram allocation.
  std::vector<OutgoingDatagram> batch;
  for (uint32_t i = 0; i < cell.socket_batch; ++i) {
    batch.push_back(OutgoingDatagram{dst, payload, BufferSlice{}});
  }
  // Credit-based pacing: never more than kWindow datagrams outstanding, so
  // the sender measures the pipeline's sustainable drain rate instead of
  // flooding the socket buffer and starving the receive side of CPU.
  constexpr uint64_t kWindow = 2048;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(duration_ms);
  size_t turn = 0;
  uint64_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (sent - received.load(std::memory_order_relaxed) >= kWindow) {
      std::this_thread::yield();
      continue;
    }
    (void)senders[turn++ % kSenders].SendBatch(batch);
    sent += batch.size();
  }
  // Grace period so in-flight datagrams drain, then stop the shard threads.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  for (auto& receiver : receivers) {
    receiver->Shutdown();
  }
  for (auto& thread : drains) {
    thread.join();
  }

  cell.datagrams_per_sec = static_cast<double>(received.load()) / elapsed;
  cell.datagrams_per_sec_per_core = cell.datagrams_per_sec / cell.shards;
  return true;
}

void AppendPumpJson(std::string& json, const PumpCell& cell) {
  char line[160];
  std::snprintf(line, sizeof(line), "  \"pump_%s_shards\": %u,\n", cell.name, cell.shards);
  json += line;
  std::snprintf(line, sizeof(line), "  \"pump_%s_socket_batch\": %u,\n", cell.name,
                cell.socket_batch);
  json += line;
  std::snprintf(line, sizeof(line), "  \"pump_%s_datagrams_per_sec\": %.2f,\n", cell.name,
                cell.datagrams_per_sec);
  json += line;
  std::snprintf(line, sizeof(line), "  \"pump_%s_datagrams_per_sec_per_core\": %.2f,\n",
                cell.name, cell.datagrams_per_sec_per_core);
  json += line;
}

// The committed trajectory point: per-datagram baseline vs the scaled-out
// configuration, identical workloads. Exit code 1 on any failed I/O.
int RunScaleout(uint64_t size, const char* json_path) {
  ScaleoutCell baseline{"baseline", /*shards=*/1, /*socket_batch=*/1};
  ScaleoutCell scaleout{"scaleout", /*shards=*/4, /*socket_batch=*/16};
  std::printf("swift_bench scale-out matrix: 4 agents, %s object, 16 KiB units, "
              "1 MiB I/Os, window 16\n",
              FormatBytes(size).c_str());
  if (!RunScaleoutCell(baseline, size) || !RunScaleoutCell(scaleout, size)) {
    std::fprintf(stderr, "scaleout bench failed\n");
    return 1;
  }
  PrintScaleoutCell(baseline);
  PrintScaleoutCell(scaleout);

  PumpCell pump_baseline{"baseline", /*shards=*/1, /*socket_batch=*/1};
  PumpCell pump_scaleout{"scaleout", /*shards=*/4, /*socket_batch=*/16};
  if (!RunPumpCell(pump_baseline, /*duration_ms=*/1000) ||
      !RunPumpCell(pump_scaleout, /*duration_ms=*/1000)) {
    std::fprintf(stderr, "datagram pump failed\n");
    return 1;
  }
  std::printf("pump %-10s shards %u batch %2u  dgrams/s %9.0f (%9.0f/core)\n",
              pump_baseline.name, pump_baseline.shards, pump_baseline.socket_batch,
              pump_baseline.datagrams_per_sec, pump_baseline.datagrams_per_sec_per_core);
  std::printf("pump %-10s shards %u batch %2u  dgrams/s %9.0f (%9.0f/core)\n",
              pump_scaleout.name, pump_scaleout.shards, pump_scaleout.socket_batch,
              pump_scaleout.datagrams_per_sec, pump_scaleout.datagrams_per_sec_per_core);
  const double speedup =
      pump_baseline.datagrams_per_sec > 0
          ? pump_scaleout.datagrams_per_sec / pump_baseline.datagrams_per_sec
          : 0;
  std::printf("datagram-rate speedup over per-datagram baseline: %.2fx\n", speedup);

  if (json_path != nullptr) {
    std::string json = "{\n  \"bench\": \"udp_scaleout\",\n";
    char line[160];
    std::snprintf(line, sizeof(line), "  \"object_bytes\": %llu,\n",
                  static_cast<unsigned long long>(size));
    json += line;
    AppendCellJson(json, baseline);
    AppendCellJson(json, scaleout);
    AppendPumpJson(json, pump_baseline);
    AppendPumpJson(json, pump_scaleout);
    std::snprintf(line, sizeof(line), "  \"speedup_datagrams_per_sec\": %.2f\n}\n", speedup);
    json += line;
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("trajectory point written to %s\n", json_path);
  }
  return 0;
}

// ------------------------- trace overhead matrix -----------------------------

// Measures what distributed tracing costs the data path: the scale-out cell
// (4 agents, 4 shards, batched syscalls) run under each TraceMode. "off"
// skips span recording entirely, "sampled" is the always-on production
// default (1-in-16 head sampling + p99 tail), "all" traces every request.
// The ci.sh gate holds sampled-mode overhead at ≤5% of the off-mode rate.
struct TraceOverheadCell {
  const char* name;
  TraceMode mode;
  double combined_mbps = 0;  // 2×size over write+read wall time, best of runs
  uint64_t spans = 0;        // spans one repetition leaves in the store
};

int RunTraceOverhead(uint64_t size, const char* json_path) {
  // One live cell — 4 agents, 4 shards, batched syscalls, built once — with
  // timed write+read phases interleaved round-robin across the modes (off,
  // sampled, all, off, …) after a discarded warmup. Reusing the same
  // agents/transports/file for every phase and taking best-of-N per mode
  // keeps setup cost and scheduler drift out of the comparison; only the
  // trace mode differs between phases.
  constexpr int kAgents = 4;
  constexpr uint64_t kUnit = 16 * 1024;
  constexpr uint64_t kIo = 1024 * 1024;
  constexpr uint32_t kWindow = 16;
  constexpr int kRounds = 16;

  struct Agent {
    InMemoryBackingStore store;
    std::unique_ptr<StorageAgentCore> core;
    std::unique_ptr<UdpAgentServer> server;
  };
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  for (int i = 0; i < kAgents; ++i) {
    auto agent = std::make_unique<Agent>();
    agent->core = std::make_unique<StorageAgentCore>(&agent->store);
    UdpAgentServer::Options server_options;
    server_options.shards = 4;
    server_options.socket_batch = 16;
    agent->server = std::make_unique<UdpAgentServer>(agent->core.get(), server_options);
    if (!agent->server->Start().ok()) {
      return 1;
    }
    UdpTransport::Options options;
    options.max_in_flight_ops = kWindow;
    options.read_window = 8;
    options.socket_batch = 16;
    transports.push_back(std::make_unique<UdpTransport>(agent->server->port(), options));
    raw.push_back(transports.back().get());
    agents.push_back(std::move(agent));
  }
  TransferPlan plan;
  plan.object_name = "trace-overhead-bench";
  plan.stripe.num_agents = kAgents;
  plan.stripe.stripe_unit = kUnit;
  plan.stripe.parity = ParityMode::kNone;
  for (uint32_t i = 0; i < kAgents; ++i) {
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  DistributionAgent::Options io_options;
  io_options.ops_in_flight = kWindow;
  auto file = SwiftFile::Create(plan, raw, &directory, io_options);
  if (!file.ok()) {
    return 1;
  }

  Rng rng(1);
  std::vector<uint8_t> buffer(kIo);
  for (auto& b : buffer) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const uint64_t ops = std::max<uint64_t>(1, size / kIo);

  // One timed phase: the whole object written then read back under `mode`.
  auto run_phase = [&](TraceMode mode, uint64_t* spans) -> double {
    SetTraceMode(mode);
    SpanStore::Global().Reset();
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t op = 0; op < ops; ++op) {
      if (!(*file)->PWrite(op * kIo, buffer).ok()) {
        return 0;
      }
    }
    for (uint64_t op = 0; op < ops; ++op) {
      if (!(*file)->PRead(op * kIo, buffer).ok()) {
        return 0;
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (spans != nullptr) {
      *spans = SpanStore::Global().Snapshot().size();
    }
    return 2.0 * static_cast<double>(ops * kIo) / elapsed / 1e6;
  };

  TraceOverheadCell cells[] = {
      {"off", TraceMode::kOff},
      {"sampled", TraceMode::kSampled},
      {"all", TraceMode::kAll},
  };
  std::printf("swift_bench trace-overhead matrix: 4 agents x 4 shards, %s object, "
              "best of %d interleaved phases per mode\n",
              FormatBytes(ops * kIo).c_str(), kRounds);
  bool failed = run_phase(TraceMode::kOff, nullptr) == 0;  // warmup, discarded
  for (int round = 0; round < kRounds && !failed; ++round) {
    for (TraceOverheadCell& cell : cells) {
      const double mbps = run_phase(cell.mode, &cell.spans);
      if (mbps == 0) {
        failed = true;
        break;
      }
      cell.combined_mbps = std::max(cell.combined_mbps, mbps);
    }
  }
  (void)(*file)->Close();
  SetTraceMode(TraceMode::kSampled);
  if (failed) {
    std::fprintf(stderr, "trace-overhead bench failed\n");
    return 1;
  }

  const double off = cells[0].combined_mbps;
  auto overhead_pct = [off](const TraceOverheadCell& cell) {
    return off > 0 ? 100.0 * (off - cell.combined_mbps) / off : 0.0;
  };
  for (const TraceOverheadCell& cell : cells) {
    std::printf("trace %-8s %8.1f MB/s  overhead %5.1f%%  spans %llu\n", cell.name,
                cell.combined_mbps, overhead_pct(cell),
                static_cast<unsigned long long>(cell.spans));
  }

  if (json_path != nullptr) {
    std::string json = "{\n  \"bench\": \"trace_overhead\",\n";
    char line[160];
    std::snprintf(line, sizeof(line), "  \"object_bytes\": %llu,\n",
                  static_cast<unsigned long long>(size));
    json += line;
    for (const TraceOverheadCell& cell : cells) {
      std::snprintf(line, sizeof(line), "  \"%s_mbps\": %.2f,\n", cell.name,
                    cell.combined_mbps);
      json += line;
      std::snprintf(line, sizeof(line), "  \"%s_spans\": %llu,\n", cell.name,
                    static_cast<unsigned long long>(cell.spans));
      json += line;
    }
    std::snprintf(line, sizeof(line), "  \"sampled_overhead_pct\": %.2f,\n",
                  overhead_pct(cells[1]));
    json += line;
    std::snprintf(line, sizeof(line), "  \"all_overhead_pct\": %.2f\n}\n",
                  overhead_pct(cells[2]));
    json += line;
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("trace overhead point written to %s\n", json_path);
  }
  return 0;
}

// ------------------------- congestion-control matrix -------------------------

// --cc measures what the delay-based congestion controller (DESIGN.md §15)
// delivers and what it costs:
//  - single-session throughput on the clean scale-out cell, delay vs off —
//    the regression guard against the PR-6 trajectory;
//  - N sessions sharing one single-shard agent, per-session goodput and
//    Jain's fairness index — the multi-stream fairness claim;
//  - a lossy channel, retransmitted datagrams per completed op, delay vs
//    off — adaptive RTO + jittered backoff must not retransmit more than
//    the fixed doubling table did.

struct FairnessCell {
  int sessions;
  double jain = 0;
  double aggregate_mbps = 0;
  double min_share_mbps = 0;
  double max_share_mbps = 0;
  double mean_srtt_us = 0;
  double mean_cwnd = 0;
};

bool RunFairnessCell(FairnessCell& cell, int duration_ms) {
  constexpr uint64_t kIoBytes = 64 * 1024;

  // One single-shard agent: a genuinely shared bottleneck, so the sessions'
  // controllers are competing for the same service capacity.
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer::Options server_options;
  server_options.shards = 1;
  server_options.socket_batch = 16;
  UdpAgentServer server(&core, server_options);
  if (!server.Start().ok()) {
    return false;
  }

  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<uint32_t> handles;
  Rng rng(7);
  std::vector<uint8_t> buffer(kIoBytes);
  for (int s = 0; s < cell.sessions; ++s) {
    UdpTransport::Options options;
    options.cc_mode = 2;  // delay
    transports.push_back(std::make_unique<UdpTransport>(server.port(), options));
    auto opened =
        transports.back()->Open("cc-fair-" + std::to_string(s), kOpenCreate);
    if (!opened.ok()) {
      return false;
    }
    handles.push_back(opened->handle);
    for (auto& b : buffer) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    if (!transports.back()->Write(opened->handle, 0, buffer).ok()) {
      return false;
    }
  }

  std::vector<uint64_t> ops_done(cell.sessions, 0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int s = 0; s < cell.sessions; ++s) {
    workers.emplace_back([&, s] {
      while (!stop.load(std::memory_order_acquire)) {
        if (transports[s]->Read(handles[s], 0, kIoBytes).ok()) {
          ++ops_done[s];
        }
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) {
    worker.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<double> goodputs;
  double total = 0, srtt_sum = 0, cwnd_sum = 0;
  for (int s = 0; s < cell.sessions; ++s) {
    const double mbps =
        static_cast<double>(ops_done[s]) * kIoBytes / elapsed / 1e6;
    goodputs.push_back(mbps);
    total += mbps;
    const UdpTransport::CcSnapshot cc = transports[s]->cc_snapshot();
    srtt_sum += cc.srtt_us;
    cwnd_sum += cc.cwnd;
  }
  cell.jain = JainFairnessIndex(goodputs);
  cell.aggregate_mbps = total;
  cell.min_share_mbps = *std::min_element(goodputs.begin(), goodputs.end());
  cell.max_share_mbps = *std::max_element(goodputs.begin(), goodputs.end());
  cell.mean_srtt_us = srtt_sum / cell.sessions;
  cell.mean_cwnd = cwnd_sum / cell.sessions;
  return true;
}

struct LossyCell {
  const char* name;
  int cc_mode;
  double retransmits_per_op = 0;
  double read_mbps = 0;
  double srtt_us = 0;
  uint64_t cwnd_decreases = 0;
};

bool RunLossyCell(LossyCell& cell) {
  constexpr double kLoss = 0.1;  // each way: ~19% per round trip
  constexpr uint64_t kObject = 256 * 1024;
  constexpr int kReads = 48;

  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  UdpAgentServer::Options server_options;
  server_options.loss_probability = kLoss;
  server_options.loss_seed = 41;
  UdpAgentServer server(&core, server_options);
  if (!server.Start().ok()) {
    return false;
  }

  UdpTransport::Options options;
  options.cc_mode = cell.cc_mode;
  options.loss_probability = kLoss;
  options.loss_seed = 43;
  options.max_retries = 12;
  UdpTransport transport(server.port(), options);
  auto opened = transport.Open("cc-lossy", kOpenCreate);
  if (!opened.ok()) {
    return false;
  }
  Rng rng(9);
  std::vector<uint8_t> buffer(kObject);
  for (auto& b : buffer) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  if (!transport.Write(opened->handle, 0, buffer).ok()) {
    return false;
  }

  const uint64_t retx_before = transport.retransmissions();
  const uint64_t ops_before = transport.stats().ops_completed;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReads; ++i) {
    if (!transport.Read(opened->handle, 0, kObject).ok()) {
      return false;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const uint64_t ops = transport.stats().ops_completed - ops_before;
  cell.retransmits_per_op =
      ops > 0 ? static_cast<double>(transport.retransmissions() - retx_before) /
                    static_cast<double>(ops)
              : 0;
  cell.read_mbps = static_cast<double>(kReads) * kObject / elapsed / 1e6;
  const UdpTransport::CcSnapshot cc = transport.cc_snapshot();
  cell.srtt_us = cc.srtt_us;
  cell.cwnd_decreases = cc.cwnd_decreases;
  return true;
}

int RunCongestion(uint64_t size, const char* json_path) {
  // Single-session regression guard: the scale-out cell (4 agents, 4
  // shards, batched syscalls) under the delay controller vs CC off.
  // Best-of-N interleaved rounds so scheduler drift on a loaded box cancels
  // out of the comparison (same trick as the trace-overhead matrix).
  constexpr int kRounds = 3;
  ScaleoutCell delay{"cc-delay", /*shards=*/4, /*socket_batch=*/16, /*cc_mode=*/2};
  ScaleoutCell off{"cc-off", /*shards=*/4, /*socket_batch=*/16, /*cc_mode=*/0};
  std::printf("swift_bench congestion matrix: scale-out cell under --cc-mode "
              "delay vs off, %s object, best of %d rounds\n",
              FormatBytes(size).c_str(), kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (ScaleoutCell* cell : {&delay, &off}) {
      ScaleoutCell sample = *cell;
      sample.write_mbps = sample.read_mbps = 0;
      if (!RunScaleoutCell(sample, size)) {
        std::fprintf(stderr, "congestion single-session cell failed\n");
        return 1;
      }
      if (sample.write_mbps + sample.read_mbps > cell->write_mbps + cell->read_mbps) {
        *cell = sample;
      }
    }
  }
  PrintScaleoutCell(delay);
  PrintScaleoutCell(off);

  FairnessCell fair4{/*sessions=*/4};
  FairnessCell fair16{/*sessions=*/16};
  if (!RunFairnessCell(fair4, /*duration_ms=*/600) ||
      !RunFairnessCell(fair16, /*duration_ms=*/1000)) {
    std::fprintf(stderr, "congestion fairness cell failed\n");
    return 1;
  }
  for (const FairnessCell* cell : {&fair4, &fair16}) {
    std::printf("fairness %2d sessions  jain %.3f  aggregate %7.1f MB/s  "
                "share min %6.1f max %6.1f  mean srtt %6.0fus cwnd %.2f\n",
                cell->sessions, cell->jain, cell->aggregate_mbps,
                cell->min_share_mbps, cell->max_share_mbps, cell->mean_srtt_us,
                cell->mean_cwnd);
  }

  LossyCell lossy_delay{"delay", /*cc_mode=*/2};
  LossyCell lossy_off{"off", /*cc_mode=*/0};
  if (!RunLossyCell(lossy_delay) || !RunLossyCell(lossy_off)) {
    std::fprintf(stderr, "congestion lossy cell failed\n");
    return 1;
  }
  for (const LossyCell* cell : {&lossy_delay, &lossy_off}) {
    std::printf("lossy %-6s retransmits/op %5.2f  read %6.1f MB/s  srtt %6.0fus"
                "  cwnd decreases %llu\n",
                cell->name, cell->retransmits_per_op, cell->read_mbps, cell->srtt_us,
                static_cast<unsigned long long>(cell->cwnd_decreases));
  }

  if (json_path != nullptr) {
    std::string json = "{\n  \"bench\": \"congestion\",\n";
    char line[160];
    std::snprintf(line, sizeof(line), "  \"object_bytes\": %llu,\n",
                  static_cast<unsigned long long>(size));
    json += line;
    auto put = [&](const char* key, double value) {
      std::snprintf(line, sizeof(line), "  \"%s\": %.3f,\n", key, value);
      json += line;
    };
    put("single_delay_write_mbps", delay.write_mbps);
    put("single_delay_read_mbps", delay.read_mbps);
    put("single_off_write_mbps", off.write_mbps);
    put("single_off_read_mbps", off.read_mbps);
    put("jain_4", fair4.jain);
    put("sessions_4_aggregate_mbps", fair4.aggregate_mbps);
    put("jain_16", fair16.jain);
    put("sessions_16_aggregate_mbps", fair16.aggregate_mbps);
    put("sessions_16_min_share_mbps", fair16.min_share_mbps);
    put("sessions_16_max_share_mbps", fair16.max_share_mbps);
    put("sessions_16_mean_srtt_us", fair16.mean_srtt_us);
    put("sessions_16_mean_cwnd", fair16.mean_cwnd);
    put("lossy_retransmits_per_op_delay", lossy_delay.retransmits_per_op);
    put("lossy_retransmits_per_op_off", lossy_off.retransmits_per_op);
    put("lossy_delay_read_mbps", lossy_delay.read_mbps);
    put("lossy_off_read_mbps", lossy_off.read_mbps);
    std::snprintf(line, sizeof(line), "  \"lossy_cwnd_decreases_delay\": %llu\n}\n",
                  static_cast<unsigned long long>(lossy_delay.cwnd_decreases));
    json += line;
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("congestion point written to %s\n", json_path);
  }
  return 0;
}

// --------------------------- tail-latency matrix ---------------------------

// One cell: sequential stripe-unit reads against the 3-agent parity cluster
// while the column-0 transport's chaos director fires periodic delay spikes.
struct TailCell {
  const char* name;
  bool hedged;

  // Measured:
  double read_mbps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double hedge_rate_pct = 0;          // hedges per measured read
  double healthy_hedge_rate_pct = 0;  // hedges per warmup (spike-free) read
  uint64_t hedge_wins = 0;
};

// Straggler geometry shared by both cells. From kStragglerStartMs on, every
// reply from column 0 is held kStragglerDelayMs by the transport-side chaos
// director — a gray failure: the agent answers, just 40 ms late. The tail
// FREQUENCY is set by the measured read mix, not the schedule: 1 in
// kStragglerEveryN reads touches a column-0 unit (offset 0), the rest stay
// on odd stripe units, which rotating parity always parks on a survivor
// column. That keeps straggler hits ~2.5% of reads — inside the hedge
// governor's 5% budget and solidly above the 1% a p99 can see — without the
// closed read loop collapsing the tail by waiting out each spike.
constexpr uint64_t kTailUnit = 16 * 1024;
constexpr uint64_t kTailUnits = 64;  // 1 MiB object
constexpr uint64_t kStragglerStartMs = 600;
constexpr uint32_t kStragglerDelayMs = 40;
constexpr int kStragglerEveryN = 40;
constexpr int kTailWarmupReads = 200;
constexpr int kTailMeasuredReads = 800;

bool RunTailCell(TailCell& cell, const std::vector<uint16_t>& ports,
                 ObjectDirectory* directory, const std::vector<uint8_t>& expected) {
  char spec[64];
  std::snprintf(spec, sizeof(spec), "%llu-1800000:delay:*:%u",
                static_cast<unsigned long long>(kStragglerStartMs), kStragglerDelayMs);
  auto chaos = ChaosDirector::Parse(spec, /*seed=*/7);
  if (!chaos.ok()) {
    std::fprintf(stderr, "tail straggler spec rejected: %s\n",
                 chaos.status().ToString().c_str());
    return false;
  }
  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  for (size_t i = 0; i < ports.size(); ++i) {
    UdpTransport::Options options;
    options.initial_timeout_ms = 60;  // > the hold: retries cannot mask it
    options.max_retries = 6;
    if (i == 0) {
      options.chaos = *chaos;
    }
    transports.push_back(std::make_unique<UdpTransport>(ports[i], options));
    raw.push_back(transports.back().get());
  }
  DistributionAgent::Options io_options;
  io_options.hedged_reads = cell.hedged;
  auto file = SwiftFile::Open("tail-bench", raw, directory, io_options);
  if (!file.ok()) {
    std::fprintf(stderr, "tail open failed: %s\n", file.status().ToString().c_str());
    return false;
  }

  Counter* attempts = MetricRegistry::Global().GetCounter("swift_hedge_attempts_total");
  Counter* wins = MetricRegistry::Global().GetCounter("swift_hedge_wins_total");
  std::vector<uint8_t> buffer(kTailUnit);
  auto read_unit = [&](uint64_t unit) -> bool {
    const uint64_t offset = (unit % kTailUnits) * kTailUnit;
    if (!(*file)->PRead(offset, buffer).ok()) {
      return false;
    }
    return std::equal(buffer.begin(), buffer.end(), expected.begin() + offset);
  };

  // Warmup before the straggler window opens: RTT estimators, the hedge
  // governor's read floor, and the healthy-path hedge rate (must be zero —
  // a hedge on a healthy cluster spends survivor reads for nothing).
  const uint64_t warmup_attempts_before = attempts->Value();
  int warmup_reads = 0;
  for (; warmup_reads < kTailWarmupReads || (*chaos)->ElapsedMs() < kStragglerStartMs;
       ++warmup_reads) {
    if (!read_unit(static_cast<uint64_t>(warmup_reads))) {
      std::fprintf(stderr, "tail warmup read %d failed\n", warmup_reads);
      return false;
    }
  }
  cell.healthy_hedge_rate_pct =
      100.0 * static_cast<double>(attempts->Value() - warmup_attempts_before) /
      static_cast<double>(warmup_reads);

  const uint64_t attempts_before = attempts->Value();
  const uint64_t wins_before = wins->Value();
  HistogramMetric latency_us;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTailMeasuredReads; ++i) {
    // Unit 0 sits on the straggler column (row 0 parks parity on the last
    // agent); odd units never do. See kStragglerEveryN above.
    const uint64_t unit = (i % kStragglerEveryN == kStragglerEveryN / 2)
                              ? 0
                              : 1 + 2 * (static_cast<uint64_t>(i) % (kTailUnits / 2));
    const auto s0 = std::chrono::steady_clock::now();
    const bool ok = read_unit(unit);
    const auto s1 = std::chrono::steady_clock::now();
    if (!ok) {
      std::fprintf(stderr, "tail %s read %d failed or mismatched\n", cell.name, i);
      return false;
    }
    latency_us.Record(std::chrono::duration<double, std::micro>(s1 - s0).count());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  (void)(*file)->Close();

  cell.read_mbps =
      static_cast<double>(kTailMeasuredReads * kTailUnit) / seconds / 1e6;
  const HistogramMetric::Snapshot latency = latency_us.Snap();
  cell.p50_us = latency.P50();
  cell.p99_us = latency.P99();
  cell.hedge_rate_pct = 100.0 *
                        static_cast<double>(attempts->Value() - attempts_before) /
                        static_cast<double>(kTailMeasuredReads);
  cell.hedge_wins = wins->Value() - wins_before;
  return true;
}

int RunTail(const char* json_path) {
  struct Agent {
    InMemoryBackingStore store;
    std::unique_ptr<StorageAgentCore> core;
    std::unique_ptr<UdpAgentServer> server;
  };
  constexpr int kAgents = 3;
  std::vector<std::unique_ptr<Agent>> agents;
  std::vector<uint16_t> ports;
  for (int i = 0; i < kAgents; ++i) {
    auto agent = std::make_unique<Agent>();
    agent->core = std::make_unique<StorageAgentCore>(&agent->store);
    agent->server = std::make_unique<UdpAgentServer>(agent->core.get(),
                                                     UdpAgentServer::Options{});
    if (!agent->server->Start().ok()) {
      std::fprintf(stderr, "tail agent %d failed to start\n", i);
      return 1;
    }
    ports.push_back(agent->server->port());
    agents.push_back(std::move(agent));
  }

  // Create and fill the object over clean transports, then close; each cell
  // reopens it through its own (chaos-scripted) transport set.
  ObjectDirectory directory;
  TransferPlan plan;
  plan.object_name = "tail-bench";
  plan.stripe.num_agents = kAgents;
  plan.stripe.stripe_unit = kTailUnit;
  plan.stripe.parity = ParityMode::kRotating;
  for (uint32_t i = 0; i < kAgents; ++i) {
    plan.agent_ids.push_back(i);
  }
  Rng rng(3);
  std::vector<uint8_t> data(kTailUnits * kTailUnit);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  {
    std::vector<std::unique_ptr<UdpTransport>> transports;
    std::vector<AgentTransport*> raw;
    for (uint16_t port : ports) {
      transports.push_back(std::make_unique<UdpTransport>(port, UdpTransport::Options{}));
      raw.push_back(transports.back().get());
    }
    auto file = SwiftFile::Create(plan, raw, &directory);
    if (!file.ok() || !(*file)->Write(data).ok()) {
      std::fprintf(stderr, "tail object fill failed\n");
      return 1;
    }
    (void)(*file)->Close();
  }

  std::printf("swift_bench tail matrix: %d-agent rotating parity, %s units, "
              "column 0 straggles +%u ms, 1-in-%d reads touch it, %d reads per cell\n",
              kAgents, FormatBytes(kTailUnit).c_str(), kStragglerDelayMs,
              kStragglerEveryN, kTailMeasuredReads);
  TailCell unhedged{"unhedged", /*hedged=*/false};
  TailCell hedged{"hedged", /*hedged=*/true};
  for (TailCell* cell : {&unhedged, &hedged}) {
    if (!RunTailCell(*cell, ports, &directory, data)) {
      return 1;
    }
    std::printf("tail %-8s read %6.1f MB/s  p50 %6.0fus  p99 %7.0fus  "
                "hedge rate %4.2f%% (healthy %4.2f%%)  wins %llu\n",
                cell->name, cell->read_mbps, cell->p50_us, cell->p99_us,
                cell->hedge_rate_pct, cell->healthy_hedge_rate_pct,
                static_cast<unsigned long long>(cell->hedge_wins));
  }
  const double ratio = unhedged.p99_us > 0 ? hedged.p99_us / unhedged.p99_us : 0;
  std::printf("tail p99 hedged/unhedged = %.3f (gate <= 0.5)\n", ratio);

  if (json_path != nullptr) {
    std::string json = "{\n  \"bench\": \"tail\",\n";
    char line[160];
    auto put = [&](const char* key, double value) {
      std::snprintf(line, sizeof(line), "  \"%s\": %.3f,\n", key, value);
      json += line;
    };
    put("tail_unhedged_read_mbps", unhedged.read_mbps);
    put("tail_unhedged_p50_us", unhedged.p50_us);
    put("tail_unhedged_p99_us", unhedged.p99_us);
    put("tail_hedged_read_mbps", hedged.read_mbps);
    put("tail_hedged_p50_us", hedged.p50_us);
    put("tail_hedged_p99_us", hedged.p99_us);
    put("tail_p99_ratio", ratio);
    put("tail_hedged_hedge_rate_pct", hedged.hedge_rate_pct);
    put("healthy_hedge_rate_pct", hedged.healthy_hedge_rate_pct);
    std::snprintf(line, sizeof(line), "  \"tail_hedge_wins\": %llu\n}\n",
                  static_cast<unsigned long long>(hedged.hedge_wins));
    json += line;
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("tail point written to %s\n", json_path);
  }
  return 0;
}

// ------------------------------ erasure matrix ------------------------------

// --erasure measures the pluggable-codec layer (DESIGN.md §17) three ways per
// cell — XOR(4,1) vs RS(4,2) vs RS(10,4), named (k,m):
//  - codec-level encode GB/s (data bytes through EncodeInto, best-of-N);
//  - codec-level reconstruct GB/s, the worst case: the first m data units
//    erased and rebuilt from the k survivors via ReconstructWithPlan;
//  - end-to-end degraded reads: an in-process cluster with m columns marked
//    failed, stripe-unit reads timed through the full reconstruction read
//    path (p50/p99), plus copies/byte over the degraded phase — the
//    zero-copy gate extended to RS reads.

struct ErasureCell {
  const char* name;
  uint32_t k;
  uint32_t m;

  double encode_gbps = 0;
  double reconstruct_gbps = 0;
  double read_copies_per_byte = 0;      // healthy striped reads (the gate)
  double degraded_p50_us = 0;
  double degraded_p99_us = 0;
  double degraded_copies_per_byte = 0;  // informational: survivor traffic is ~k×
};

// Codec-level workload for one cell, built once; timed passes run round-robin
// across cells (best-of-N per cell) so scheduler and frequency drift cancel
// out of the XOR-vs-RS ratios instead of landing on whichever cell ran last.
struct ErasureCodecState {
  ErasureCell* cell = nullptr;
  const ErasureCodec* codec = nullptr;
  std::vector<std::vector<uint8_t>> data;
  std::vector<std::vector<uint8_t>> parity;
  std::vector<std::vector<uint8_t>> out;
  std::vector<std::span<const uint8_t>> data_spans;
  std::vector<std::span<uint8_t>> parity_spans;
  std::vector<std::span<const uint8_t>> survivor_spans;
  std::vector<std::span<uint8_t>> out_spans;
  ReconstructionPlan plan;
};

constexpr uint64_t kErasureUnit = 64 * 1024;
constexpr int kErasureReps = 128;
constexpr int kErasurePasses = 5;

bool InitErasureCodecState(ErasureCodecState& state, ErasureCell& cell) {
  state.cell = &cell;
  StripeConfig stripe;
  stripe.num_agents = cell.k + cell.m;
  stripe.stripe_unit = kErasureUnit;
  stripe.parity = ParityMode::kRotating;
  stripe.parity_units = cell.m;
  stripe.codec = cell.m > 1 ? ErasureKind::kReedSolomon : ErasureKind::kXor;
  state.codec = &CodecFor(stripe);

  Rng rng(17);
  state.data.assign(cell.k, std::vector<uint8_t>(kErasureUnit));
  for (auto& unit : state.data) {
    for (auto& b : unit) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
  }
  state.parity.assign(cell.m, std::vector<uint8_t>(kErasureUnit));
  for (auto& unit : state.data) {
    state.data_spans.emplace_back(unit);
  }
  for (auto& unit : state.parity) {
    state.parity_spans.emplace_back(unit);
  }

  // Worst-case reconstruction: the first m data units erased, so every
  // target needs a full k-survivor decode (no parity shortcut). Parity must
  // be valid before survivors are wired up.
  state.codec->EncodeInto(state.data_spans, state.parity_spans);
  std::vector<uint32_t> erased(cell.m);
  for (uint32_t j = 0; j < cell.m; ++j) {
    erased[j] = j;
  }
  auto plan = state.codec->PlanReconstruction(erased);
  if (!plan.ok()) {
    return false;
  }
  state.plan = *std::move(plan);
  for (uint32_t pos : state.plan.survivors) {
    state.survivor_spans.emplace_back(pos < cell.k ? state.data[pos]
                                                   : state.parity[pos - cell.k]);
  }
  state.out.assign(cell.m, std::vector<uint8_t>(kErasureUnit));
  for (auto& unit : state.out) {
    state.out_spans.emplace_back(unit);
  }
  return true;
}

void RunErasureCodecPass(ErasureCodecState& state) {
  const auto e0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kErasureReps; ++rep) {
    state.codec->EncodeInto(state.data_spans, state.parity_spans);
  }
  const double encode_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - e0).count();
  state.cell->encode_gbps = std::max(
      state.cell->encode_gbps,
      static_cast<double>(kErasureReps) * state.cell->k * kErasureUnit / encode_s / 1e9);

  const auto r0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kErasureReps; ++rep) {
    ReconstructWithPlan(state.plan, state.survivor_spans, state.out_spans);
  }
  const double reconstruct_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
  state.cell->reconstruct_gbps =
      std::max(state.cell->reconstruct_gbps,
               static_cast<double>(kErasureReps) * state.cell->m * kErasureUnit /
                   reconstruct_s / 1e9);
}

bool VerifyErasureCodecState(const ErasureCodecState& state) {
  for (uint32_t j = 0; j < state.cell->m; ++j) {
    if (state.out[j] != state.data[j]) {
      std::fprintf(stderr, "erasure %s: reconstruction mismatch on unit %u\n",
                   state.cell->name, j);
      return false;
    }
  }
  return true;
}

bool RunErasureDegradedPhase(ErasureCell& cell) {
  constexpr int kReads = 400;
  LocalSwiftCluster::Options options;
  options.num_agents = cell.k + cell.m;
  options.agent_data_rate = MiBPerSecond(64);
  LocalSwiftCluster cluster(options);

  StorageMediator::SessionRequest request;
  request.object_name = std::string("erasure-bench-") + cell.name;
  request.expected_size = MiB(4);
  request.redundancy = true;
  request.parity_units = cell.m;
  request.min_agents = cell.k + cell.m;
  request.max_agents = cell.k + cell.m;
  auto file = cluster.CreateFile(request);
  if (!file.ok()) {
    std::fprintf(stderr, "erasure %s: create failed: %s\n", cell.name,
                 file.status().ToString().c_str());
    return false;
  }
  const uint64_t unit = cluster.last_plan().stripe.stripe_unit;
  const uint64_t object_bytes =
      unit * cluster.last_plan().stripe.DataAgentsPerRow() * 16;  // 16 rows

  Rng rng(23);
  std::vector<uint8_t> data(object_bytes);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  if (!(*file)->Write(data).ok()) {
    std::fprintf(stderr, "erasure %s: fill failed\n", cell.name);
    return false;
  }

  Counter* copy_bytes = MetricRegistry::Global().GetCounter("swift_buffer_copy_bytes_total");
  HistogramMetric latency_us;
  std::vector<uint8_t> buffer(unit);
  const uint64_t units_total = object_bytes / unit;
  // One read per offset, timed or not by `timed`; returns copies/byte over
  // the sweep. The healthy pass is the zero-copy gate (the striped-read path
  // under the RS codec must not pick up extra memcpys); the degraded pass
  // reports latency percentiles and its own — inherently ~k× — copy rate.
  auto sweep = [&](int reads, bool timed, double* copies_out) -> bool {
    const uint64_t copy_before = copy_bytes->Value();
    uint64_t bytes_read = 0;
    for (int i = 0; i < reads; ++i) {
      const uint64_t offset = (static_cast<uint64_t>(i) % units_total) * unit;
      const auto s0 = std::chrono::steady_clock::now();
      const bool ok = (*file)->PRead(offset, buffer).ok();
      const auto s1 = std::chrono::steady_clock::now();
      if (!ok || !std::equal(buffer.begin(), buffer.end(), data.begin() + offset)) {
        std::fprintf(stderr, "erasure %s: read %d failed or mismatched\n", cell.name, i);
        return false;
      }
      if (timed) {
        latency_us.Record(std::chrono::duration<double, std::micro>(s1 - s0).count());
      }
      bytes_read += unit;
    }
    *copies_out = static_cast<double>(copy_bytes->Value() - copy_before) /
                  static_cast<double>(bytes_read);
    return true;
  };

  if (!sweep(kReads, /*timed=*/false, &cell.read_copies_per_byte)) {
    return false;
  }
  for (uint32_t c = 0; c < cell.m; ++c) {
    (*file)->MarkColumnFailed(c);
  }
  if (!sweep(kReads, /*timed=*/true, &cell.degraded_copies_per_byte)) {
    return false;
  }
  const HistogramMetric::Snapshot latency = latency_us.Snap();
  cell.degraded_p50_us = latency.P50();
  cell.degraded_p99_us = latency.P99();
  (void)(*file)->Close();
  return true;
}

int RunErasure(const char* json_path) {
  ErasureCell cells[] = {
      {"xor41", /*k=*/4, /*m=*/1},
      {"rs42", /*k=*/4, /*m=*/2},
      {"rs104", /*k=*/10, /*m=*/4},
  };
  std::printf("swift_bench erasure matrix: GF fold kernel %s, 64 KiB codec units, "
              "best of %d interleaved passes, m columns failed for the degraded phase\n",
              GfKernelName(), kErasurePasses);
  ErasureCodecState states[3];
  for (int i = 0; i < 3; ++i) {
    if (!InitErasureCodecState(states[i], cells[i])) {
      std::fprintf(stderr, "erasure cell %s failed to initialize\n", cells[i].name);
      return 1;
    }
  }
  RunErasureCodecPass(states[0]);  // warmup (page faults, turbo), discarded
  for (auto& state : states) {
    state.cell->encode_gbps = state.cell->reconstruct_gbps = 0;
  }
  for (int pass = 0; pass < kErasurePasses; ++pass) {
    for (auto& state : states) {
      RunErasureCodecPass(state);
    }
  }
  for (auto& state : states) {
    if (!VerifyErasureCodecState(state)) {
      return 1;
    }
  }
  for (ErasureCell& cell : cells) {
    if (!RunErasureDegradedPhase(cell)) {
      std::fprintf(stderr, "erasure cell %s failed\n", cell.name);
      return 1;
    }
    std::printf("erasure %-6s k=%2u m=%u  encode %6.2f GB/s  reconstruct %6.2f GB/s  "
                "read copies/B %.2f  degraded p50 %6.0fus p99 %7.0fus copies/B %.2f\n",
                cell.name, cell.k, cell.m, cell.encode_gbps, cell.reconstruct_gbps,
                cell.read_copies_per_byte, cell.degraded_p50_us, cell.degraded_p99_us,
                cell.degraded_copies_per_byte);
  }
  // Slowdown ratios in data GB/s. Encode cost scales with m (every fold —
  // XOR or GF — runs at the same port-bound rate), so RS(10,4)'s data-rate
  // ratio sits near m by construction; the per-parity-stream ratio is the
  // like-for-like kernel comparison.
  const double rs42_encode_vs_xor = cells[0].encode_gbps / cells[1].encode_gbps;
  const double rs104_encode_vs_xor = cells[0].encode_gbps / cells[2].encode_gbps;
  const double rs42_reconstruct_vs_xor =
      cells[0].reconstruct_gbps / cells[1].reconstruct_gbps;
  const double rs104_reconstruct_vs_xor =
      cells[0].reconstruct_gbps / cells[2].reconstruct_gbps;
  std::printf("xor/rs slowdown: encode rs42 %.2fx rs104 %.2fx (%.2fx/parity), "
              "reconstruct rs42 %.2fx rs104 %.2fx\n",
              rs42_encode_vs_xor, rs104_encode_vs_xor, rs104_encode_vs_xor / cells[2].m,
              rs42_reconstruct_vs_xor, rs104_reconstruct_vs_xor);

  if (json_path != nullptr) {
    std::string json = "{\n  \"bench\": \"erasure\",\n";
    char line[160];
    std::snprintf(line, sizeof(line), "  \"kernel\": \"%s\",\n", GfKernelName());
    json += line;
    for (const ErasureCell& cell : cells) {
      auto put = [&](const char* key, double value) {
        std::snprintf(line, sizeof(line), "  \"%s_%s\": %.3f,\n", cell.name, key, value);
        json += line;
      };
      put("encode_gbps", cell.encode_gbps);
      put("reconstruct_gbps", cell.reconstruct_gbps);
      put("read_copies_per_byte", cell.read_copies_per_byte);
      put("degraded_p50_us", cell.degraded_p50_us);
      put("degraded_p99_us", cell.degraded_p99_us);
      put("degraded_copies_per_byte", cell.degraded_copies_per_byte);
    }
    std::snprintf(line, sizeof(line), "  \"rs42_encode_vs_xor\": %.3f,\n",
                  rs42_encode_vs_xor);
    json += line;
    std::snprintf(line, sizeof(line), "  \"rs104_encode_vs_xor\": %.3f,\n",
                  rs104_encode_vs_xor);
    json += line;
    std::snprintf(line, sizeof(line), "  \"rs104_encode_vs_xor_per_parity\": %.3f,\n",
                  rs104_encode_vs_xor / cells[2].m);
    json += line;
    std::snprintf(line, sizeof(line), "  \"rs42_reconstruct_vs_xor\": %.3f,\n",
                  rs42_reconstruct_vs_xor);
    json += line;
    std::snprintf(line, sizeof(line), "  \"rs104_reconstruct_vs_xor\": %.3f\n}\n",
                  rs104_reconstruct_vs_xor);
    json += line;
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("erasure point written to %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (FlagPresent(argc, argv, "--scaleout")) {
    const uint64_t size = static_cast<uint64_t>(
        std::atoll(FlagValue(argc, argv, "--size", "16777216")));
    return RunScaleout(size, FlagValue(argc, argv, "--json", nullptr));
  }
  if (FlagPresent(argc, argv, "--trace-overhead")) {
    const uint64_t size = static_cast<uint64_t>(
        std::atoll(FlagValue(argc, argv, "--size", "16777216")));
    return RunTraceOverhead(size, FlagValue(argc, argv, "--json", nullptr));
  }
  if (FlagPresent(argc, argv, "--cc")) {
    const uint64_t size = static_cast<uint64_t>(
        std::atoll(FlagValue(argc, argv, "--size", "16777216")));
    return RunCongestion(size, FlagValue(argc, argv, "--json", nullptr));
  }
  if (FlagPresent(argc, argv, "--tail")) {
    return RunTail(FlagValue(argc, argv, "--json", nullptr));
  }
  if (FlagPresent(argc, argv, "--erasure")) {
    return RunErasure(FlagValue(argc, argv, "--json", nullptr));
  }
  std::vector<uint16_t> ports;
  {
    std::string list = FlagValue(argc, argv, "--agents", "");
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) {
        comma = list.size();
      }
      ports.push_back(static_cast<uint16_t>(std::atoi(list.substr(pos).c_str())));
      pos = comma + 1;
    }
  }
  if (ports.empty()) {
    std::fprintf(stderr,
                 "usage: swift_bench --agents=PORT[,PORT...] [--parity] [--unit=BYTES]\n"
                 "       [--size=BYTES] [--io=BYTES] [--pattern=seq|rand]\n"
                 "       [--mode=write|read|readwrite] [--seed=N] [--window=N]\n");
    return 2;
  }
  const bool parity = FlagPresent(argc, argv, "--parity");
  const uint64_t unit = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--unit", "65536")));
  const uint64_t size = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--size", "67108864")));
  const uint64_t io = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--io", "1048576")));
  const std::string pattern = FlagValue(argc, argv, "--pattern", "seq");
  const std::string mode = FlagValue(argc, argv, "--mode", "readwrite");
  const uint64_t seed = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--seed", "1")));
  const uint32_t window =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "--window", "4")));

  std::vector<std::unique_ptr<UdpTransport>> transports;
  std::vector<AgentTransport*> raw;
  for (uint16_t port : ports) {
    UdpTransport::Options options;
    options.max_in_flight_ops = std::max<uint32_t>(1, window);
    transports.push_back(std::make_unique<UdpTransport>(port, options));
    raw.push_back(transports.back().get());
  }

  TransferPlan plan;
  plan.object_name = "bench-object";
  plan.stripe.num_agents = static_cast<uint32_t>(ports.size());
  plan.stripe.stripe_unit = unit;
  plan.stripe.parity = parity ? ParityMode::kRotating : ParityMode::kNone;
  for (uint32_t i = 0; i < ports.size(); ++i) {
    plan.agent_ids.push_back(i);
  }
  ObjectDirectory directory;
  DistributionAgent::Options io_options;
  io_options.ops_in_flight = std::max<uint32_t>(1, window);
  auto file = SwiftFile::Create(plan, raw, &directory, io_options);
  if (!file.ok()) {
    std::fprintf(stderr, "create failed: %s\n", file.status().ToString().c_str());
    return 1;
  }

  std::printf("swift_bench: %zu agents, %s units, parity %s, %s object, %s I/Os, %s\n",
              ports.size(), FormatBytes(unit).c_str(), parity ? "on" : "off",
              FormatBytes(size).c_str(), FormatBytes(io).c_str(), pattern.c_str());

  Rng rng(seed);
  std::vector<uint8_t> buffer(io);
  for (auto& b : buffer) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const uint64_t ops = size / io;
  auto offset_for = [&](uint64_t op) -> uint64_t {
    if (pattern == "rand") {
      return static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(ops - 1))) * io;
    }
    return op * io;
  };

  Counter* copy_count = MetricRegistry::Global().GetCounter("swift_buffer_copies_total");
  Counter* copy_bytes = MetricRegistry::Global().GetCounter("swift_buffer_copy_bytes_total");

  int exit_code = 0;
  auto run_phase = [&](const char* label, bool is_write) {
    Phase phase{label};
    const uint64_t copies_before = copy_count->Value();
    const uint64_t copy_bytes_before = copy_bytes->Value();
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t op = 0; op < ops; ++op) {
      const uint64_t offset = offset_for(op);
      const auto s0 = std::chrono::steady_clock::now();
      bool ok;
      if (is_write) {
        ok = (*file)->PWrite(offset, buffer).ok();
      } else {
        auto n = (*file)->PRead(offset, buffer);
        ok = n.ok();
      }
      const auto s1 = std::chrono::steady_clock::now();
      if (!ok) {
        std::fprintf(stderr, "%s op %llu failed\n", label,
                     static_cast<unsigned long long>(op));
        exit_code = 1;
        return;
      }
      phase.latency_us.Record(std::chrono::duration<double, std::micro>(s1 - s0).count());
      phase.bytes_moved += io;
    }
    phase.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    phase.copies = copy_count->Value() - copies_before;
    phase.copy_bytes = copy_bytes->Value() - copy_bytes_before;
    phase.Print();
  };

  // A write pass always runs first so reads have data (and "read" mode is
  // measured against a populated object).
  run_phase(mode == "read" ? "prefill" : "write", /*is_write=*/true);
  if (exit_code == 0 && (mode == "read" || mode == "readwrite")) {
    run_phase("read", /*is_write=*/false);
  }

  (void)(*file)->Close();
  (void)RemoveObject("bench-object", raw, &directory);

  std::printf("\nper-agent transport counters (window %u):\n",
              std::max<uint32_t>(1, window));
  std::printf("%-6s %10s %10s %8s %7s %11s %11s %10s %8s\n", "agent", "submitted",
              "completed", "retried", "failed", "bytes_read", "bytes_writ",
              "datagrams", "rexmits");
  for (size_t i = 0; i < transports.size(); ++i) {
    const TransportStats stats = transports[i]->stats();
    std::printf("%-6u %10llu %10llu %8llu %7llu %11s %11s %10llu %8llu\n", ports[i],
                static_cast<unsigned long long>(stats.ops_submitted),
                static_cast<unsigned long long>(stats.ops_completed),
                static_cast<unsigned long long>(stats.ops_retried),
                static_cast<unsigned long long>(stats.ops_failed),
                FormatBytes(stats.bytes_read).c_str(),
                FormatBytes(stats.bytes_written).c_str(),
                static_cast<unsigned long long>(transports[i]->datagrams_sent()),
                static_cast<unsigned long long>(transports[i]->retransmissions()));
  }

  // Client-side registry snapshot (the same layer swift_cli stats pulls from
  // an agent), so live metrics can be compared against the phase lines above.
  std::printf("\nclient metrics registry:\n%s", MetricRegistry::Global().RenderText().c_str());
  return exit_code;
}
