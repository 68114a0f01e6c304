// Clocks, process facts, raw-sample statistics and the deterministic content
// model.

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr size_t kTableWords = 1 << 17;  // 1 MiB of pattern

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint32_t DefaultShards() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

int ProcessThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  int count = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  closedir(dir);
  return count;
}

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

bool TailIsResolved(size_t count, double q) {
  const double rank = std::ceil(q * static_cast<double>(count));
  return static_cast<double>(count) - rank >= 10.0;
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) {
    return summary;
  }
  std::sort(values.begin(), values.end());
  summary.min = values.front();
  summary.max = values.back();
  const size_t n = values.size();
  summary.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return summary;
}

ContentModel::ContentModel(uint64_t seed) : seed_(seed), table_(kTableWords) {
  uint64_t state = SplitMix64(seed ^ 0x5EEDC0DEull);
  for (uint64_t& word : table_) {
    state = SplitMix64(state);
    word = state;
  }
}

uint64_t ContentModel::Key(uint32_t file, uint32_t version) const {
  return SplitMix64(seed_ ^ SplitMix64((static_cast<uint64_t>(file) << 32) | version));
}

// Word w of a version is a table word picked by (w + key), xored with the
// key and with a function of w itself: a unit written to the wrong offset, a
// stale version, another file's bytes or zeros all differ from the model.
void ContentModel::Fill(uint32_t file, uint64_t offset, uint32_t version,
                        std::span<uint8_t> out) const {
  const uint64_t key = Key(file, version);
  const uint64_t first_word = offset / 8;
  const size_t words = out.size() / 8;
  for (size_t i = 0; i < words; ++i) {
    const uint64_t w = first_word + i;
    const uint64_t value =
        table_[(w + key) & (kTableWords - 1)] ^ key ^ (w * 0x9E3779B97F4A7C15ull);
    std::memcpy(out.data() + i * 8, &value, 8);
  }
}

int64_t ContentModel::FirstMismatch(uint32_t file, uint64_t offset, uint32_t version,
                                    std::span<const uint8_t> got) const {
  constexpr size_t kChunk = 64 * 1024;
  thread_local std::vector<uint8_t> expected(kChunk);
  for (size_t done = 0; done < got.size(); done += kChunk) {
    const size_t n = std::min(kChunk, got.size() - done);
    Fill(file, offset + done, version, std::span<uint8_t>(expected.data(), n));
    if (std::memcmp(expected.data(), got.data() + done, n) != 0) {
      for (size_t i = 0; i < n; ++i) {
        if (expected[i] != got[done + i]) {
          return static_cast<int64_t>(done + i);
        }
      }
    }
  }
  return -1;
}

}  // namespace perfbench
