// Isolated capacity probes: each drives one layer alone through its public
// functions, at the shapes the workloads give it. They run only in the
// traced run, after its timed phases.

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <thread>

#include "perfbench/bench.h"
#include "src/agent/integrity_store.h"
#include "src/agent/storage_agent.h"
#include "src/agent/udp_agent_server.h"
#include "src/agent/udp_socket.h"
#include "src/core/distribution_agent.h"
#include "src/core/erasure.h"
#include "src/proto/message.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace swift;

namespace {

constexpr uint64_t kProbeNs = 300'000'000;

// Runs `body` (one unit of work returning the bytes or ops it did) until the
// probe time is spent; returns units per second.
template <typename Body>
double RatePerSecond(Body body, uint64_t duration_ns = kProbeNs) {
  const uint64_t start = NowNs();
  double done = 0;
  uint64_t now = start;
  while (now - start < duration_ns) {
    done += body();
    now = NowNs();
  }
  return done / (static_cast<double>(now - start) / 1e9);
}

// Runs `n` instances of `probe` (which fills one T and returns false when it
// could not measure) on `n` threads at once. Returns their results, or an
// empty vector when any instance failed.
template <typename T, typename Probe>
std::vector<T> Concurrently(uint32_t n, Probe probe) {
  std::vector<T> results(n);
  std::vector<char> ok(n, 0);
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] { ok[i] = probe(i, results[i]) ? 1 : 0; });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (std::find(ok.begin(), ok.end(), 0) != ok.end()) {
    return {};
  }
  return results;
}

template <typename T>
double Sum(const std::vector<T>& results, double T::*field) {
  double total = 0;
  for (const T& result : results) {
    total += result.*field;
  }
  return total;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return bytes;
}

struct CodecRates {
  double encode = 0;
  double update_parity = 0;
  double reconstruct = 0;
};

// One codec user at `geometry`, 64 KiB-unit shaped.
bool ProbeCodecOnce(const StripeConfig& geometry, uint64_t seed, CodecRates& rates) {
  const ErasureCodec& codec = CodecFor(geometry);
  const uint32_t k = geometry.DataAgentsPerRow();
  const uint32_t m = geometry.ParityUnitsPerRow();
  const size_t unit = geometry.stripe_unit;
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> units;
  for (uint32_t i = 0; i < k + m; ++i) {
    units.push_back(RandomBytes(rng, unit));
  }
  std::vector<std::span<const uint8_t>> data;
  for (uint32_t i = 0; i < k; ++i) {
    data.emplace_back(units[i]);
  }
  std::vector<std::span<uint8_t>> parity;
  for (uint32_t j = 0; j < m; ++j) {
    parity.emplace_back(units[k + j]);
  }

  rates.encode = RatePerSecond([&] {
    codec.EncodeInto(data, parity);
    return static_cast<double>(k * unit);
  });

  const std::vector<uint8_t> fresh = RandomBytes(rng, unit);
  rates.update_parity = RatePerSecond([&] {
    for (uint32_t j = 0; j < m; ++j) {
      codec.UpdateParity(j, 0, parity[j], 0, units[0], fresh);
    }
    return static_cast<double>(unit);
  });

  const uint32_t erased[] = {0};
  Result<ReconstructionPlan> plan = codec.PlanReconstruction(erased);
  if (!plan.ok()) {
    return false;
  }
  std::vector<std::span<const uint8_t>> survivors;
  for (uint32_t position : plan->survivors) {
    survivors.emplace_back(units[position]);
  }
  std::vector<uint8_t> rebuilt(unit);
  const std::span<uint8_t> targets[] = {rebuilt};
  rates.reconstruct = RatePerSecond([&] {
    ReconstructWithPlan(*plan, survivors, targets);
    return static_cast<double>(unit);
  });
  return true;
}

// Codec at the workload's geometry, one instance per client thread;
// workloads without parity are probed at XOR over their data columns, the
// codec their layout would use.
void ProbeCodec(const WorkloadSpec& spec, uint64_t seed, Capacities& caps) {
  StripeConfig geometry = spec.Stripe();
  if (geometry.parity == ParityMode::kNone) {
    geometry.num_agents = spec.agents + 1;
    geometry.parity = ParityMode::kRotating;
    geometry.parity_units = 1;
    geometry.codec = ErasureKind::kXor;
  }
  caps.codec_geometry = geometry;
  const std::vector<CodecRates> rates = Concurrently<CodecRates>(
      caps.client_instances,
      [&](uint32_t i, CodecRates& out) { return ProbeCodecOnce(geometry, seed + i, out); });
  caps.encode_GBps = Sum(rates, &CodecRates::encode) / 1e9;
  caps.update_parity_GBps = Sum(rates, &CodecRates::update_parity) / 1e9;
  caps.reconstruct_GBps = Sum(rates, &CodecRates::reconstruct) / 1e9;
}

struct StoreRates {
  double read = 0;
  double write = 0;
};

// Posix + Integrity, the agents' store stack, at stripe-unit requests; one
// store per live agent, each in its own directory.
void ProbeStore(const WorkloadSpec& spec, const std::string& dir, uint64_t seed,
                Capacities& caps) {
  const std::vector<StoreRates> rates = Concurrently<StoreRates>(
      caps.agent_instances, [&](uint32_t i, StoreRates& out) {
        const std::string root = dir + "/" + std::to_string(i);
        std::filesystem::create_directories(root);
        PosixBackingStore posix(root);
        IntegrityBackingStore store(&posix);
        const std::string name = "probe";
        const uint64_t unit = spec.stripe_unit;
        const uint64_t span = 16 << 20;
        Rng rng(seed + i);
        const std::vector<uint8_t> bytes = RandomBytes(rng, unit);
        uint64_t offset = 0;
        bool ok = store.Ensure(name).ok();
        out.write = RatePerSecond([&] {
          ok = ok && store.WriteAt(name, offset, bytes).ok();
          offset = (offset + unit) % span;
          return static_cast<double>(unit);
        });
        offset = 0;
        out.read = RatePerSecond([&] {
          ok = ok && store.ReadAt(name, offset, unit).ok();
          offset = (offset + unit) % span;
          return static_cast<double>(unit);
        });
        return ok;
      });
  caps.store_read_MBps = Sum(rates, &StoreRates::read) / 1e6;
  caps.store_write_MBps = Sum(rates, &StoreRates::write) / 1e6;
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// Socket pump at the data path's real payload: sender/receiver pairs, at
// most nproc threads, default batching on both sides.
void ProbePump(Capacities& caps) {
  constexpr size_t kDatagram = kMaxPacketPayload + 64;  // payload + header room
  constexpr size_t kBatch = 16;
  // One batch in flight per pair stays inside the default socket buffer.
  constexpr uint64_t kWindow = kBatch;
  const unsigned pairs = std::max(1u, std::thread::hardware_concurrency() / 2);
  caps.pump_pairs = pairs;
  struct Pair {
    UdpSocket sender;
    UdpSocket receiver;
    std::atomic<uint64_t> received{0};
  };
  std::vector<std::unique_ptr<Pair>> all;
  for (unsigned i = 0; i < pairs; ++i) {
    auto pair = std::make_unique<Pair>();
    if (!pair->sender.BindLoopback().ok() || !pair->receiver.BindLoopback().ok()) {
      return;
    }
    all.push_back(std::move(pair));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  for (auto& pair_ptr : all) {
    Pair* pair = pair_ptr.get();
    threads.emplace_back([pair] {
      std::vector<UdpSocket::ReceivedDatagram> out;
      while (true) {
        Result<size_t> n = pair->receiver.RecvBatch(100, kBatch, out);
        if (!n.ok()) {
          if (n.code() == StatusCode::kTimedOut) {
            continue;
          }
          return;  // shut down
        }
        pair->received.fetch_add(*n, std::memory_order_relaxed);
      }
    });
    threads.emplace_back([pair, &stop] {
      const std::vector<uint8_t> payload(kDatagram, 0x5A);
      std::vector<OutgoingDatagram> batch(
          kBatch, OutgoingDatagram{UdpEndpoint::Loopback(pair->receiver.local_port()), payload, {}});
      uint64_t sent = 0;
      uint64_t stalled_since = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t received = pair->received.load(std::memory_order_relaxed);
        if (sent - received >= kWindow) {
          // A datagram the kernel dropped never arrives: after a stall,
          // write the window's remainder off as lost.
          const uint64_t now = NowNs();
          if (stalled_since == 0) {
            stalled_since = now;
          } else if (now - stalled_since > 10'000'000) {
            sent = received;
          }
          std::this_thread::yield();
          continue;
        }
        stalled_since = 0;
        (void)pair->sender.SendBatch(batch);
        sent += batch.size();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(kProbeNs));
  uint64_t received = 0;
  for (auto& pair : all) {
    received += pair->received.load();
  }
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  stop = true;
  for (auto& pair : all) {
    pair->receiver.Shutdown();
  }
  for (auto& thread : threads) {
    thread.join();
  }
  caps.pump8k_dgrams_per_s = static_cast<double>(received) / elapsed;
}

// One UdpAgentServer over an in-memory store, driven by a raw READ_REQ
// generator that keeps a fixed window of one-packet requests outstanding on
// one session. Returns false when the server could not be driven.
bool ProbeAgentServerOnce(double& ops_per_s) {
  constexpr uint64_t kObject = 1 << 20;
  constexpr uint64_t kWindow = 32;
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  {
    Result<AgentOpenResult> opened = core.Open("probe", kOpenCreate);
    if (!opened.ok()) {
      return false;
    }
    const std::vector<uint8_t> bytes(kObject, 0xA5);
    (void)core.Write(opened->handle, 0, bytes);
    (void)core.Close(opened->handle);
  }
  UdpAgentServer::Options options;
  options.shards = DefaultShards();
  UdpAgentServer server(&core, options);
  UdpSocket client;
  if (!server.Start().ok() || !client.BindLoopback().ok()) {
    return false;
  }
  Message open;
  open.type = MessageType::kOpen;
  open.request_id = 1;
  open.object_name = "probe";
  if (!client.SendTo(UdpEndpoint::Loopback(server.port()), open.Encode()).ok()) {
    return false;
  }
  Result<UdpSocket::ReceivedDatagram> reply = client.RecvFrom(2000);
  if (!reply.ok()) {
    return false;
  }
  Result<Message> decoded = Message::Decode(reply->data);
  if (!decoded.ok() || decoded->type != MessageType::kOpenReply || decoded->status_code != 0) {
    return false;
  }
  const UdpEndpoint session = UdpEndpoint::Loopback(decoded->data_port);
  const uint32_t handle = decoded->handle;

  uint32_t request_id = 2;
  auto request = [&] {
    Message m;
    m.type = MessageType::kReadReq;
    m.handle = handle;
    m.request_id = request_id++;
    m.offset = (request_id % (kObject / kMaxPacketPayload)) * kMaxPacketPayload;
    m.read_length = kMaxPacketPayload;
    m.window = 1;
    return OutgoingDatagram{session, m.Encode(), {}};
  };
  std::vector<OutgoingDatagram> batch;
  std::vector<UdpSocket::ReceivedDatagram> in;
  uint64_t outstanding = 0;
  uint64_t replies = 0;
  const uint64_t start = NowNs();
  uint64_t now = start;
  while (now - start < kProbeNs) {
    batch.clear();
    while (outstanding < kWindow) {
      batch.push_back(request());
      ++outstanding;
    }
    (void)client.SendBatch(batch);
    Result<size_t> n = client.RecvBatch(20, UdpSocket::kMaxBatch, in);
    if (n.ok()) {
      for (const auto& datagram : in) {
        replies += datagram.data.size() > kMaxPacketPayload ? 1 : 0;
      }
      outstanding -= std::min<uint64_t>(outstanding, *n);
    } else {
      outstanding = 0;  // requests or replies lost: refill the window
    }
    now = NowNs();
  }
  ops_per_s = static_cast<double>(replies) / (static_cast<double>(now - start) / 1e9);
  Message close;
  close.type = MessageType::kClose;
  close.handle = handle;
  close.request_id = request_id++;
  (void)client.SendTo(session, close.Encode());
  server.Stop();
  return replies > 0;
}

// One agent server per live agent, each with its own generator.
void ProbeAgentServer(Capacities& caps) {
  const std::vector<double> rates = Concurrently<double>(
      caps.agent_instances, [](uint32_t, double& out) { return ProbeAgentServerOnce(out); });
  caps.agent_server_ops_per_s = std::accumulate(rates.begin(), rates.end(), 0.0);
}

// A transport that completes every op inline, so only the scheduler runs.
class NullTransport : public AgentTransport {
 public:
  Result<AgentOpenResult> Open(const std::string&, uint32_t) override { return AgentOpenResult{}; }
  Status Write(uint32_t, uint64_t, std::span<const uint8_t>) override { return OkStatus(); }
  Result<BufferSlice> Read(uint32_t, uint64_t, uint64_t length) override {
    return BufferSlice::ZeroPage(length);
  }
  Result<uint64_t> Stat(uint32_t) override { return uint64_t{0}; }
  Status Truncate(uint32_t, uint64_t) override { return OkStatus(); }
  Status Close(uint32_t) override { return OkStatus(); }
  Status Remove(const std::string&) override { return OkStatus(); }
  void StartReadInto(uint32_t, uint64_t, std::span<uint8_t>, WriteCompletion done) override {
    done(OkStatus());
  }
  // UdpTransport's default window.
  uint32_t max_in_flight() const override { return 8; }
};

// DistributionAgent over null transports, batches shaped like one file op:
// `ops_per_column` unit reads on every column. One agent per client thread.
void ProbeDistribution(const WorkloadSpec& spec, Capacities& caps) {
  const uint32_t data_columns = spec.Stripe().DataAgentsPerRow();
  const uint64_t unit_ops = std::max<uint64_t>(1, spec.op_bytes / spec.stripe_unit);
  const uint64_t ops_per_column = std::max<uint64_t>(1, unit_ops / data_columns);
  const std::vector<double> rates =
      Concurrently<double>(caps.client_instances, [&](uint32_t, double& out) {
        std::vector<NullTransport> nulls(spec.agents);
        std::vector<AgentTransport*> columns;
        for (NullTransport& null : nulls) {
          columns.push_back(&null);
        }
        DistributionAgent agent(columns);
        out = RatePerSecond([&] {
          OpBatch batch(&agent);
          uint64_t ops = 0;
          for (uint32_t c = 0; c < spec.agents; ++c) {
            for (uint64_t i = 0; i < ops_per_column; ++i, ++ops) {
              batch.Submit(c, [](AgentTransport* transport, DistributionAgent::Completion done) {
                static uint8_t sink[64];
                transport->StartReadInto(0, 0, sink, std::move(done));
              });
            }
          }
          batch.Wait();
          return static_cast<double>(ops);
        });
        return true;
      });
  caps.distribution_ops_per_s = std::accumulate(rates.begin(), rates.end(), 0.0);
}

}  // namespace

Capacities RunProbes(const WorkloadSpec& spec, const std::string& scratch_dir, uint64_t seed) {
  Capacities caps;
  caps.client_instances = spec.client_threads;
  caps.agent_instances = spec.agents - (spec.degraded ? 1 : 0);
  ProbeCodec(spec, seed, caps);
  ProbeStore(spec, scratch_dir + "/store", seed, caps);
  ProbePump(caps);
  ProbeAgentServer(caps);
  ProbeDistribution(spec, caps);
  // A probe that could not run leaves its capacity at 0.
  const std::pair<const char*, double> measured[] = {
      {"erasure encode", caps.encode_GBps},
      {"erasure update_parity", caps.update_parity_GBps},
      {"erasure reconstruct", caps.reconstruct_GBps},
      {"backing_store read", caps.store_read_MBps},
      {"backing_store write", caps.store_write_MBps},
      {"udp_socket pump", caps.pump8k_dgrams_per_s},
      {"udp_agent_server", caps.agent_server_ops_per_s},
      {"distribution_agent", caps.distribution_ops_per_s},
  };
  for (const auto& [name, value] : measured) {
    if (!(value > 0)) {
      caps.failed.push_back(name);
    }
  }
  return caps;
}

}  // namespace perfbench
