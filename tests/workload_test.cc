// The workload generators.

#include <gtest/gtest.h>

#include "src/sim/workload.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace swift {
namespace {

TEST(WorkloadTest, PoissonRateAndMixConverge) {
  Rng rng(7);
  PoissonConfig config;
  config.requests_per_second = 50;
  config.read_fraction = 0.8;
  auto events = PoissonRequests(config, Seconds(100), rng);
  EXPECT_NEAR(static_cast<double>(events.size()), 5000, 250);
  size_t reads = 0;
  SimTime last = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.arrival, last);  // sorted
    last = e.arrival;
    EXPECT_LT(e.arrival, Seconds(100));
    reads += e.is_read ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(reads) / static_cast<double>(events.size()), 0.8, 0.03);
}

TEST(WorkloadTest, FileSizesHeavyTailed) {
  Rng rng(9);
  FileSystemWorkloadConfig config;
  auto files = FileSystemRequests(config, 20000, rng);
  ASSERT_EQ(files.size(), 20000u);
  size_t small_files = 0;
  uint64_t total_bytes = 0;
  uint64_t bytes_in_large = 0;
  for (const auto& f : files) {
    EXPECT_GE(f.bytes, 128u);
    EXPECT_LE(f.bytes, MiB(16));
    total_bytes += f.bytes;
    if (f.bytes <= KiB(64)) {
      ++small_files;
    }
    if (f.bytes >= MiB(1)) {
      bytes_in_large += f.bytes;
    }
  }
  // Most files are small; most bytes live in large files (the BSD-trace
  // shape the paper's workload assumptions rest on).
  EXPECT_GT(static_cast<double>(small_files) / 20000.0, 0.7);
  EXPECT_GT(static_cast<double>(bytes_in_large) / static_cast<double>(total_bytes), 0.5);
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  Rng a(11);
  Rng b(11);
  FileSystemWorkloadConfig config;
  auto fa = FileSystemRequests(config, 100, a);
  auto fb = FileSystemRequests(config, 100, b);
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].bytes, fb[i].bytes);
    EXPECT_EQ(fa[i].is_read, fb[i].is_read);
  }
}

}  // namespace
}  // namespace swift
