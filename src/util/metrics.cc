#include "src/util/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

namespace swift {

namespace {

// Upper bound of bucket i is kFirstBound * kGrowth^i (geometry: metrics.h).
constexpr double kFirstBound = 1.0;
constexpr double kGrowth = 1.07;

}  // namespace

// ------------------------------------------------------------------ Counter

Counter::Shard& Counter::ShardForThisThread() {
  static std::atomic<uint32_t> next_slot{0};
  thread_local const uint32_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
  return shards_[slot % kShards];
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------- HistogramMetric

size_t HistogramMetric::BucketFor(double value) {
  if (value <= kFirstBound) {
    return 0;
  }
  const double index = std::log(value / kFirstBound) / std::log(kGrowth);
  const size_t bucket = static_cast<size_t>(index) + 1;
  return std::min(bucket, kBuckets - 1);
}

double HistogramMetric::BucketUpperBound(size_t bucket) {
  return kFirstBound * std::pow(kGrowth, static_cast<double>(bucket));
}

void HistogramMetric::Record(double value) {
  if (value < 0) {
    value = 0;
  }
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double observed = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(observed, observed + value, std::memory_order_relaxed)) {
  }
  observed = min_.load(std::memory_order_relaxed);
  while (value < observed &&
         !min_.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }
  observed = max_.load(std::memory_order_relaxed);
  while (value > observed &&
         !max_.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }
}

HistogramMetric::Snapshot HistogramMetric::Snap() const {
  Snapshot snap;
  for (size_t b = 0; b < kBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  const double min = min_.load(std::memory_order_relaxed);
  snap.min = (snap.count > 0 && std::isfinite(min)) ? min : 0.0;
  snap.max = snap.count > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  return snap;
}

void HistogramMetric::Reset() {
  for (size_t b = 0; b < kBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double HistogramMetric::Snapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  if (q <= 0) {
    return min;
  }
  if (q >= 1) {
    return max;
  }
  // Bucket totals may lag `count` by in-flight Records; rank against the
  // bucket population so the scan always terminates inside the array.
  uint64_t population = 0;
  for (uint64_t b : buckets) {
    population += b;
  }
  if (population == 0) {
    return min;
  }
  const uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(population)));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Clamp to the tracked max: the bucket's upper edge can exceed every
      // sample (all-zero samples sit in bucket 0, whose edge is 1).
      return std::min(BucketUpperBound(b), max);
    }
  }
  return max;
}

// ----------------------------------------------------------- MetricRegistry

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

HistogramMetric* MetricRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<HistogramMetric>()).first;
  }
  return it->second.get();
}

std::string MetricRegistry::RenderText() const {
  // Snapshot the (stable) pointers under the lock, render outside it so a
  // slow render never blocks registration.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const HistogramMetric*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      counters.emplace_back(name, counter.get());
    }
    for (const auto& [name, gauge] : gauges_) {
      gauges.emplace_back(name, gauge.get());
    }
    for (const auto& [name, histogram] : histograms_) {
      histograms.emplace_back(name, histogram.get());
    }
  }

  std::ostringstream out;
  for (const auto& [name, counter] : counters) {
    out << name << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges) {
    out << name << " " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms) {
    const HistogramMetric::Snapshot snap = histogram->Snap();
    out << name << "_count " << snap.count << "\n";
    out << name << "_sum " << snap.sum << "\n";
    out << name << "_min " << snap.min << "\n";
    out << name << "_max " << snap.max << "\n";
    out << name << "{quantile=\"0.5\"} " << snap.P50() << "\n";
    out << name << "{quantile=\"0.9\"} " << snap.P90() << "\n";
    out << name << "{quantile=\"0.99\"} " << snap.P99() << "\n";
  }
  return out.str();
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Set(0);
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace swift
