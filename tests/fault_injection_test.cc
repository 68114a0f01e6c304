// Transient-fault property sweep: random operations on a parity-protected
// object while transports randomly fail for bounded bursts. Every operation
// that reports success must be durable and every read byte-exact — the
// failure paths (mark-failed, retry, degraded write into parity,
// reconstruction) must compose under adversarial timing.
//
// Note the failure model matches the library's contract: a column that
// reports kUnavailable is marked failed *for that file session* and is not
// trusted again (its store may be stale). With single parity that budget is
// one column per file; the sweep injects faults on exactly one random column
// per file, at random moments.

#include <gtest/gtest.h>

#include <cstring>

#include "src/agent/local_cluster.h"
#include "src/core/swift_file.h"
#include "src/util/rng.h"

namespace swift {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return out;
}

class FaultInjectionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultInjectionTest, SuccessfulOpsAreDurableUnderTransientFaults) {
  Rng rng(GetParam());
  constexpr uint32_t kAgents = 4;
  LocalSwiftCluster cluster({.num_agents = kAgents});
  auto file = cluster.CreateFile({.object_name = "obj",
                                  .expected_size = MiB(1),
                                  .typical_request = KiB(12) * (kAgents - 1),
                                  .redundancy = true,
                                  .min_agents = kAgents,
                                  .max_agents = kAgents});
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  // One victim column receives all the transient faults (single-parity
  // budget); which registry agent that is depends on the plan.
  const uint32_t victim_column = static_cast<uint32_t>(rng.UniformInt(0, kAgents - 1));
  const uint32_t victim_agent = cluster.last_plan().agent_ids[victim_column];

  std::vector<uint8_t> reference;
  int faults_injected = 0;
  for (int op = 0; op < 150; ++op) {
    // Randomly arm a burst of transient failures on the victim.
    if (rng.Bernoulli(0.15)) {
      cluster.transport(victim_agent)->FailNextCalls(static_cast<int>(rng.UniformInt(1, 4)));
      ++faults_injected;
    }
    const uint64_t offset = static_cast<uint64_t>(rng.UniformInt(0, KiB(96)));
    const uint64_t length = static_cast<uint64_t>(rng.UniformInt(1, KiB(16)));
    if (rng.Bernoulli(0.6)) {
      std::vector<uint8_t> data = Pattern(length, GetParam() * 1000 + op);
      auto written = (*file)->PWrite(offset, data);
      ASSERT_TRUE(written.ok()) << "op " << op << ": " << written.status().ToString();
      if (offset + length > reference.size()) {
        reference.resize(offset + length, 0);
      }
      std::memcpy(reference.data() + offset, data.data(), length);
    } else {
      std::vector<uint8_t> buffer(length, 0xAB);
      auto n = (*file)->PRead(offset, buffer);
      ASSERT_TRUE(n.ok()) << "op " << op << ": " << n.status().ToString();
      const uint64_t expected =
          offset >= reference.size() ? 0 : std::min(length, reference.size() - offset);
      ASSERT_EQ(*n, expected) << "op " << op;
      for (uint64_t i = 0; i < expected; ++i) {
        ASSERT_EQ(buffer[i], reference[offset + i]) << "op " << op << " byte " << i;
      }
    }
  }
  EXPECT_GT(faults_injected, 5) << "sweep did not exercise the fault paths";

  // The injected kUnavailable faults surface as failed ops on the victim's
  // transport, and only there (read before the crash below adds its own).
  for (uint32_t agent = 0; agent < kAgents; ++agent) {
    const TransportStats stats = cluster.transport(agent)->stats();
    if (agent == victim_agent) {
      EXPECT_GT(stats.ops_failed, 0u) << "injected faults left no failed transport ops";
    } else {
      EXPECT_EQ(stats.ops_failed, 0u) << "agent " << agent << " failed without a fault";
    }
  }

  // Final state must survive the permanent loss of the (possibly stale)
  // victim column via a fresh session.
  cluster.transport(victim_agent)->set_crashed(true);
  auto survivor = cluster.OpenFile("obj");
  ASSERT_TRUE(survivor.ok());
  std::vector<uint8_t> read_back(reference.size());
  ASSERT_TRUE((*survivor)->PRead(0, read_back).ok());
  EXPECT_EQ(read_back, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjectionTest,
                         ::testing::Values(3u, 17u, 101u, 4242u, 777777u));

}  // namespace
}  // namespace swift
