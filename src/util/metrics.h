// Process-wide metrics registry: named sharded counters, gauges, and
// log-scale latency histograms with lock-free recording on the hot path and
// snapshot-on-read. Metric objects are never destroyed once registered, so
// hot paths may cache the returned pointers (typically in a function-local
// static) and record without ever touching the registry lock again.
//
// Consistency model: Record/Increment are relaxed atomic operations; a
// snapshot taken while writers are active is weakly consistent (histogram
// bucket totals and the count may transiently disagree in either direction,
// since the snapshot is not a point-in-time cut) and exact once writers are
// quiescent.

#ifndef SWIFT_SRC_UTIL_METRICS_H_
#define SWIFT_SRC_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace swift {

// Monotonic counter, sharded across cache lines so that many threads
// incrementing the same counter do not contend on one word. Threads are
// assigned shards round-robin on first use.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    ShardForThisThread().value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const;

  // Zeroes all shards. Callers must quiesce writers first (test/bench use).
  void Reset();

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard& ShardForThisThread();
  Shard shards_[kShards];
};

// Instantaneous signed value (queue depths, window occupancy).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// The process's one histogram type: fixed geometric buckets (first bound
// 1.0, 7% growth, 512 buckets) with atomic counters. Record() is lock-free
// and allocation-free, so live metrics, bench harnesses and the virtual-time
// simulator all record here; Snap() copies the buckets into a plain struct
// for quantile queries.
class HistogramMetric {
 public:
  static constexpr size_t kBuckets = 512;

  void Record(double value);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    // Upper bound of the bucket holding the q-quantile sample, clamped to
    // `max`; exact min/max at q = 0/1.
    double Quantile(double q) const;
    double P50() const { return Quantile(0.50); }
    double P90() const { return Quantile(0.90); }
    double P99() const { return Quantile(0.99); }
  };

  Snapshot Snap() const;

  // Zeroes every bucket and the aggregates. Quiesce writers first.
  void Reset();

  // Bucket index for a value, and the upper bound of a bucket (exposed for
  // tests of the bucket math).
  static size_t BucketFor(double value);
  static double BucketUpperBound(size_t bucket);

 private:
  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

// Global name -> metric map. Names follow Prometheus conventions
// ([a-zA-Z_][a-zA-Z0-9_]*); by project convention every name starts with
// "swift_" and counters end in "_total". Get* registers on first use and
// always returns the same pointer for the same name; returned pointers stay
// valid for the life of the process.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  HistogramMetric* GetHistogram(std::string_view name);

  // Prometheus-style text exposition: one "name value" line per counter and
  // gauge; histograms render count/sum/min/max plus p50/p90/p99 quantile
  // sample lines. Deterministic (sorted by name).
  std::string RenderText() const;

  // Zeroes every registered metric (names stay registered). Test/bench use;
  // quiesce writers first.
  void Reset();

 private:
  MetricRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>> histograms_;
};

}  // namespace swift

#endif  // SWIFT_SRC_UTIL_METRICS_H_
