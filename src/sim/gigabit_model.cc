#include "src/sim/gigabit_model.h"

#include <algorithm>
#include <memory>

#include "src/disk/disk_device.h"
#include "src/event/channel.h"
#include "src/event/co_event.h"
#include "src/event/simulator.h"
#include "src/net/sim_host.h"
#include "src/net/token_ring.h"
#include "src/util/metrics.h"
#include "src/util/stats.h"

namespace swift {

namespace {

// Everything one simulation run owns. Declaration order matters: the
// simulator must outlive components holding coroutines.
struct RunState {
  RunState(const GigabitConfig& config, uint64_t seed)
      : config(config),
        rng(seed),
        ring(&sim,
             TokenRing::Config{.name = "ring",
                               .bit_rate = config.ring_bits_per_second,
                               .walk_time = config.ring_walk_time,
                               .header_bytes = 32,
                               .max_message_payload = 1u << 20},
             rng.Fork()),
        cost{config.protocol_fixed_instructions, config.protocol_per_byte_instructions} {
    // Stations: clients first, then agents. Inboxes are unused (delivery
    // timing is modelled inline) but the ring requires attachments.
    for (uint32_t c = 0; c < std::max<uint32_t>(config.num_clients, 1); ++c) {
      clients.push_back(std::make_unique<SimHost>(&sim, "client" + std::to_string(c),
                                                  config.host_mips));
      client_stations.push_back(ring.Attach(&null_inbox));
    }
    for (uint32_t i = 0; i < config.num_disks; ++i) {
      agents.push_back(std::make_unique<SimHost>(&sim, "agent" + std::to_string(i),
                                                 config.host_mips));
      disks.push_back(std::make_unique<DiskDevice>(&sim, config.disk, rng.Fork()));
      agent_stations.push_back(ring.Attach(&null_inbox));
    }
  }

  const GigabitConfig& config;
  Rng rng;
  Simulator sim;
  Channel<Datagram> null_inbox{&sim};
  TokenRing ring;
  std::vector<std::unique_ptr<SimHost>> clients;
  ProtocolCost cost;
  std::vector<StationId> client_stations;
  std::vector<std::unique_ptr<SimHost>> agents;
  std::vector<std::unique_ptr<DiskDevice>> disks;
  std::vector<StationId> agent_stations;

  SimTime warmup = 0;
  RunningStats completion_ms;
  HistogramMetric completion_histogram;
  uint64_t started = 0;
  uint64_t completed = 0;
  uint64_t bytes_delivered = 0;
};

// Units of a request are assigned to disks round-robin; disk d serves
// ceil((units - d) / N) of them.
uint32_t UnitsForDisk(uint64_t total_units, uint32_t disk, uint32_t num_disks) {
  if (disk >= total_units) {
    return 0;
  }
  return static_cast<uint32_t>((total_units - disk + num_disks - 1) / num_disks);
}

// One block travels agent -> ring -> client; protocol cost at both ends.
SimProc TransmitBlockToClient(RunState& s, uint32_t agent, uint32_t client, JoinCounter& done) {
  const uint64_t unit = s.config.transfer_unit;
  co_await s.agents[agent]->Compute(s.cost.InstructionsFor(unit));
  co_await s.ring.Transmit(Datagram{s.agent_stations[agent], s.client_stations[client],
                                    static_cast<uint32_t>(unit), 0, 0, 0});
  co_await s.clients[client]->Compute(s.cost.InstructionsFor(unit));
  done.Done();
}

// Agent side of a read: receive the (multicast) request, hold the disk arm
// for all blocks, hand each block to the network as it comes off the platter
// (§5.1: "Once a block has been read from disk it is scheduled for
// transmission over the network").
SimProc AgentRead(RunState& s, uint32_t agent, uint32_t client, uint32_t blocks,
                  JoinCounter& done) {
  co_await s.agents[agent]->Compute(s.cost.InstructionsFor(s.config.control_packet_bytes));
  DiskDevice& disk = *s.disks[agent];
  co_await disk.arm().Acquire();
  for (uint32_t b = 0; b < blocks; ++b) {
    co_await s.sim.Delay(disk.SampleServiceTime(1, s.config.transfer_unit));
    s.sim.Spawn(TransmitBlockToClient(s, agent, client, done));
  }
  disk.arm().Release();
}

// Agent side of a write: receive each block, write all blocks to disk as one
// multiblock request, then acknowledge.
SimProc AgentWrite(RunState& s, uint32_t agent, uint32_t client, uint32_t blocks,
                   JoinCounter& acks) {
  const uint64_t unit = s.config.transfer_unit;
  for (uint32_t b = 0; b < blocks; ++b) {
    co_await s.agents[agent]->Compute(s.cost.InstructionsFor(unit));
  }
  co_await s.disks[agent]->Transfer(blocks, unit);
  // Acknowledgement: agent -> ring -> client.
  co_await s.agents[agent]->Compute(s.cost.InstructionsFor(s.config.control_packet_bytes));
  co_await s.ring.Transmit(Datagram{s.agent_stations[agent], s.client_stations[client],
                                    s.config.control_packet_bytes, 0, 0, 0});
  co_await s.clients[client]->Compute(s.cost.InstructionsFor(s.config.control_packet_bytes));
  acks.Done();
}

SimProc HandleRequest(RunState& s, bool is_read, uint32_t client) {
  const SimTime start = s.sim.now();
  ++s.started;
  const uint64_t total_units =
      (s.config.request_bytes + s.config.transfer_unit - 1) / s.config.transfer_unit;

  if (is_read) {
    // Multicast request packet.
    co_await s.clients[client]->Compute(s.cost.InstructionsFor(s.config.control_packet_bytes));
    co_await s.ring.Transmit(Datagram{s.client_stations[client], kBroadcast,
                                      s.config.control_packet_bytes, 0, 0, 0});
    // Degraded mode: units that lived on failed disks (the last
    // `failed_disks` of the array) are reconstructed — every surviving disk
    // reads and ships one peer unit, and the client XORs them together.
    const uint32_t survivors = s.config.num_disks - s.config.failed_disks;
    SWIFT_CHECK(survivors >= 1);
    uint32_t lost_units = 0;
    std::vector<uint32_t> per_disk(survivors, 0);
    for (uint32_t d = 0; d < s.config.num_disks; ++d) {
      const uint32_t blocks = UnitsForDisk(total_units, d, s.config.num_disks);
      if (d < survivors) {
        per_disk[d] += blocks;
      } else {
        lost_units += blocks;
      }
    }
    // One reconstruction round per lost unit: survivors - 1 peer reads (the
    // parity rotation means one surviving unit of the row is already part
    // of the direct read; the model charges survivors-1 extra unit reads
    // spread round-robin).
    uint64_t extra_reads = static_cast<uint64_t>(lost_units) * (survivors > 1 ? survivors - 1 : 1);
    for (uint64_t e = 0; e < extra_reads; ++e) {
      ++per_disk[e % survivors];
    }
    const uint64_t arriving_units = total_units - lost_units + lost_units * survivors -
                                    (survivors > 1 ? lost_units : 0);
    JoinCounter done(&s.sim, total_units - lost_units + extra_reads);
    (void)arriving_units;
    for (uint32_t d = 0; d < survivors; ++d) {
      if (per_disk[d] > 0) {
        s.sim.Spawn(AgentRead(s, d, client, per_disk[d], done));
      }
    }
    co_await done;
    if (lost_units > 0) {
      // Client-side XOR over the reconstruction fan-in.
      co_await s.clients[client]->Compute(s.config.parity_instructions_per_byte *
                                          static_cast<double>(extra_reads) *
                                          static_cast<double>(s.config.transfer_unit));
    }
  } else {
    // §6.1.1: computing the check data costs client CPU (an XOR pass over
    // the request) and adds one parity unit per stripe row to the transfer.
    uint64_t write_units = total_units;
    if (s.config.redundancy) {
      const uint32_t data_agents = s.config.num_disks > 1 ? s.config.num_disks - 1 : 1;
      const uint64_t rows = (total_units + data_agents - 1) / data_agents;
      write_units += rows;
      co_await s.clients[client]->Compute(s.config.parity_instructions_per_byte *
                                          static_cast<double>(s.config.request_bytes));
    }
    // Transmit every unit, round-robin over agents, then wait for all
    // acknowledgements that the data is on disk.
    uint32_t writing_agents = 0;
    for (uint32_t d = 0; d < s.config.num_disks; ++d) {
      if (UnitsForDisk(write_units, d, s.config.num_disks) > 0) {
        ++writing_agents;
      }
    }
    JoinCounter acks(&s.sim, writing_agents);
    for (uint64_t u = 0; u < write_units; ++u) {
      const uint32_t d = static_cast<uint32_t>(u % s.config.num_disks);
      co_await s.clients[client]->Compute(s.cost.InstructionsFor(s.config.transfer_unit));
      co_await s.ring.Transmit(Datagram{s.client_stations[client], s.agent_stations[d],
                                        static_cast<uint32_t>(s.config.transfer_unit), 0, 0, 0});
    }
    for (uint32_t d = 0; d < s.config.num_disks; ++d) {
      const uint32_t blocks = UnitsForDisk(write_units, d, s.config.num_disks);
      if (blocks > 0) {
        s.sim.Spawn(AgentWrite(s, d, client, blocks, acks));
      }
    }
    co_await acks;
  }

  ++s.completed;
  if (start >= s.warmup) {
    s.completion_ms.Add(ToMillisecondsF(s.sim.now() - start));
    s.completion_histogram.Record(ToMillisecondsF(s.sim.now() - start));
    s.bytes_delivered += s.config.request_bytes;
  }
}

// Generator: exponential interarrivals, 4:1 read/write split, requests
// assigned to client hosts round-robin.
SimProc Generator(RunState& s, double lambda, SimTime duration) {
  const double mean_gap = 1.0 / lambda;
  uint32_t next_client = 0;
  for (;;) {
    co_await s.sim.Delay(SecondsF(s.rng.ExponentialWithMean(mean_gap)));
    if (s.sim.now() >= duration) {
      co_return;
    }
    const bool is_read = s.rng.Bernoulli(s.config.read_fraction);
    s.sim.Spawn(HandleRequest(s, is_read, next_client));
    next_client = (next_client + 1) % static_cast<uint32_t>(s.clients.size());
  }
}

}  // namespace

GigabitRunResult GigabitModel::Run(double lambda, SimTime duration, SimTime warmup,
                                   uint64_t seed) const {
  RunState state(config_, seed);
  state.warmup = warmup;
  state.sim.Spawn(Generator(state, lambda, duration));
  state.sim.RunUntil(duration);
  // The backlog when the generator stops is the saturation signal: a stable
  // system has only a handful of requests in flight.
  const uint64_t in_flight = state.started - state.completed;
  const bool saturated =
      state.started > 20 && in_flight > std::max<uint64_t>(5, state.started / 4);
  // Drain so every request's completion time is recorded, but bound it (a
  // deeply saturated system would take a long virtual time to empty).
  state.sim.Run(/*max_events=*/in_flight * 10000 + 10000);

  GigabitRunResult result;
  result.offered_rate_per_second = lambda;
  result.requests_completed = state.completion_ms.count();
  result.mean_completion_ms = state.completion_ms.mean();
  result.stddev_completion_ms = state.completion_ms.stddev();
  const HistogramMetric::Snapshot completion = state.completion_histogram.Snap();
  result.p50_completion_ms = completion.P50();
  result.p95_completion_ms = completion.Quantile(0.95);
  result.p99_completion_ms = completion.P99();
  double disk_util = 0;
  for (const auto& disk : state.disks) {
    disk_util += disk->Utilization();
  }
  result.mean_disk_utilization = disk_util / static_cast<double>(state.disks.size());
  result.ring_utilization = state.ring.Utilization();
  const double measured_seconds = ToSecondsF(state.sim.now() - warmup);
  result.client_data_rate =
      measured_seconds > 0 ? static_cast<double>(state.bytes_delivered) / measured_seconds : 0;
  result.saturated = saturated;
  return result;
}

GigabitModel::Sustainable GigabitModel::FindMaxSustainable(SimTime duration, uint64_t seed) const {
  // Sustainable(lambda): mean completion time <= mean interarrival time.
  auto sustainable = [&](double lambda, GigabitRunResult* out) {
    GigabitRunResult r = Run(lambda, duration, duration / 8, seed);
    *out = r;
    if (r.requests_completed == 0) {
      return true;  // too light to measure: trivially sustainable
    }
    return !r.saturated && r.mean_completion_ms <= 1000.0 / lambda;
  };

  GigabitRunResult probe;
  double low = 0.25;
  if (!sustainable(low, &probe)) {
    return Sustainable{low, low * static_cast<double>(config_.request_bytes),
                       probe.mean_completion_ms};
  }
  double high = 0.5;
  while (high < 4096 && sustainable(high, &probe)) {
    low = high;
    high *= 2;
  }
  for (int i = 0; i < 12; ++i) {
    const double mid = 0.5 * (low + high);
    if (sustainable(mid, &probe)) {
      low = mid;
    } else {
      high = mid;
    }
  }
  GigabitRunResult at_low;
  (void)sustainable(low, &at_low);
  Sustainable result;
  result.lambda = low;
  result.data_rate = low * static_cast<double>(config_.request_bytes);
  result.mean_completion_ms = at_low.mean_completion_ms;
  return result;
}

}  // namespace swift
