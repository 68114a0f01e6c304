// Coverage for the metrics layer: histogram quantile math, plus N threads
// hammering the same counter/histogram while a reader snapshots, after which
// the quiesced totals must be exactly conserved. Run under the tsan preset
// (ci.sh runs these tests there explicitly) to prove the lock-free paths are
// data-race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace swift {
namespace {

TEST(MetricsTraceTest, CounterConcurrentIncrementsConserved) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTraceTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  gauge.Add(5);
  EXPECT_EQ(gauge.Value(), 12);
}

TEST(MetricsTraceTest, HistogramQuantilesAndAggregates) {
  HistogramMetric histogram;
  for (int v = 1; v <= 1000; ++v) {
    histogram.Record(static_cast<double>(v));
  }
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.sum, 500500.0, 0.001);
  // Geometric buckets grow 7% per step: quantiles are upper bounds within
  // one bucket of the exact value.
  EXPECT_GE(snap.P50(), 500.0);
  EXPECT_LE(snap.P50(), 500.0 * 1.08);
  EXPECT_GE(snap.P90(), 900.0);
  EXPECT_LE(snap.P90(), 900.0 * 1.08);
  EXPECT_GE(snap.P99(), 990.0);
  EXPECT_LE(snap.P99(), 1000.0);
}

// The latency-histogram cases below run on HistogramMetric, the one
// histogram every layer records into.

TEST(LatencyHistogramTest, BasicStats) {
  HistogramMetric histogram;
  EXPECT_EQ(histogram.Snap().count, 0u);
  EXPECT_EQ(histogram.Snap().Quantile(0.5), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) {
    histogram.Record(v);
  }
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 22.0);
  // q = 0 and q = 1 answer the tracked min/max exactly, not a bucket edge.
  EXPECT_DOUBLE_EQ(snap.Quantile(0), 1.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1), 100.0);
}

TEST(LatencyHistogramTest, QuantileAccuracyUniform) {
  HistogramMetric histogram;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    histogram.Record(rng.Uniform(10, 1000));
  }
  const HistogramMetric::Snapshot snap = histogram.Snap();
  // Geometric buckets guarantee ~7% relative error.
  EXPECT_NEAR(snap.P50(), 505, 505 * 0.08);
  EXPECT_NEAR(snap.Quantile(0.95), 950.5, 950.5 * 0.08);
  EXPECT_NEAR(snap.P99(), 990.1, 990.1 * 0.08);
}

TEST(LatencyHistogramTest, HeavyTailP99) {
  HistogramMetric histogram;
  // 99 fast ops, 1 slow op, repeated.
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 99; ++j) {
      histogram.Record(5.0);
    }
    histogram.Record(5000.0);
  }
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_NEAR(snap.P50(), 5.0, 0.5);
  // Exactly 99% of samples are fast, so p99's (inclusive) rank still lands
  // in the fast bucket; anything beyond it must see the tail.
  EXPECT_NEAR(snap.P99(), 5.0, 0.5);
  EXPECT_GE(snap.Quantile(0.995), 4000.0);
}

TEST(LatencyHistogramTest, TinyAndHugeValues) {
  HistogramMetric histogram;
  histogram.Record(0);
  histogram.Record(1e-9);
  histogram.Record(1e18);  // beyond the last bucket boundary: clamped, max still exact
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_DOUBLE_EQ(snap.min, 0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1e18);
}

// Zero-duration events (e.g. every swift_trace_stage_retransmit_us sample)
// land in bucket 0, whose upper edge is 1.0; quantiles must still report 0.
TEST(MetricsTraceTest, HistogramAllZeroSamplesQuantilesAreZero) {
  HistogramMetric histogram;
  for (int i = 0; i < 100; ++i) {
    histogram.Record(0.0);
  }
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  for (double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(MetricsTraceTest, HistogramConcurrentRecordWithReaderConserved) {
  HistogramMetric histogram;
  constexpr int kWriters = 8;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> done{false};

  // A reader snapshots continuously while writers record. Snapshots are
  // weakly consistent (bucket totals and count may transiently disagree),
  // but no value may ever exceed the final total and the count is monotone —
  // a torn read of any word would violate one of these.
  std::thread reader([&] {
    uint64_t last_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      const HistogramMetric::Snapshot snap = histogram.Snap();
      uint64_t bucket_total = 0;
      for (uint64_t b : snap.buckets) {
        bucket_total += b;
      }
      ASSERT_LE(snap.count, kWriters * kPerThread);
      ASSERT_LE(bucket_total, kWriters * kPerThread);
      ASSERT_GE(snap.count, last_count);
      last_count = snap.count;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(1 + (i + static_cast<uint64_t>(t)) % 1000));
      }
    });
  }
  for (auto& thread : writers) {
    thread.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  // Quiesced: totals exactly conserved.
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, kWriters * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, kWriters * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
}

TEST(MetricsTraceTest, RegistryReturnsStablePointersAndRenders) {
  MetricRegistry& registry = MetricRegistry::Global();
  Counter* counter = registry.GetCounter("swift_test_registry_counter_total");
  EXPECT_EQ(counter, registry.GetCounter("swift_test_registry_counter_total"));
  counter->Increment(42);

  Gauge* gauge = registry.GetGauge("swift_test_registry_gauge");
  gauge->Set(-7);

  HistogramMetric* histogram = registry.GetHistogram("swift_test_registry_hist_us");
  histogram->Record(100);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("swift_test_registry_counter_total 42"), std::string::npos);
  EXPECT_NE(text.find("swift_test_registry_gauge -7"), std::string::npos);
  EXPECT_NE(text.find("swift_test_registry_hist_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("swift_test_registry_hist_us{quantile=\"0.5\"}"), std::string::npos);
}

TEST(MetricsTraceTest, RegistryConcurrentGetSameName) {
  MetricRegistry& registry = MetricRegistry::Global();
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* counter = registry.GetCounter("swift_test_registry_race_total");
      counter->Increment();
      seen[static_cast<size_t>(t)] = counter;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0], seen[static_cast<size_t>(t)]);
  }
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

TEST(MetricsTraceTest, ParseLogLevelCaseInsensitive) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARNING"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("Error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("FATAL"), LogLevel::kFatal);
  EXPECT_FALSE(ParseLogLevel("").has_value());
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("debugg").has_value());
}

TEST(MetricsTraceTest, SetMinLogLevelRoundTrip) {
  const LogLevel before = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  SetMinLogLevel(before);
  EXPECT_EQ(MinLogLevel(), before);
}

}  // namespace
}  // namespace swift
