// Unit tests for src/util: status/result plumbing, statistics (the paper's
// 8-sample 90% confidence methodology), units, CRC32 (every kernel against a
// bit-at-a-time reference), and wire buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/units.h"
#include "src/util/wire_buffer.h"

namespace swift {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such object 'movie'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such object 'movie'");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such object 'movie'");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(TimedOutError("x").code(), StatusCode::kTimedOut);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DATA_LOSS");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("bad stripe unit");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgumentError("not positive");
  }
  return v;
}

Status UseAssignOrReturn(int v, int* out) {
  SWIFT_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return OkStatus();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UseAssignOrReturn(-1, &out).code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- Stats ---

TEST(SampleStatsTest, MeanStdDevMinMax) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample (n-1) stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleStatsTest, NinetyPercentConfidenceEightSamples) {
  // The paper's methodology: 8 samples, 90% CI => t(0.95, 7 dof) = 1.895.
  SampleStats s;
  for (int i = 1; i <= 8; ++i) {
    s.Add(static_cast<double>(i));
  }
  const double mean = 4.5;
  const double sd = s.stddev();
  const double half = 1.895 * sd / std::sqrt(8.0);
  auto iv = s.ConfidenceInterval(0.90);
  EXPECT_NEAR(iv.low, mean - half, 1e-9);
  EXPECT_NEAR(iv.high, mean + half, 1e-9);
}

TEST(SampleStatsTest, ReproducesPaperTable1Row) {
  // "Read 6 MB: mean 897, sigma 3.4, CI [894, 899]" — verify our CI math is
  // consistent with the paper's published interval for its own statistics.
  const double sigma = 3.4;
  const double half = StudentTCritical(0.90, 7) * sigma / std::sqrt(8.0);
  EXPECT_NEAR(897 - half, 894.7, 0.5);
  EXPECT_NEAR(897 + half, 899.3, 0.5);
}

TEST(SampleStatsTest, DegenerateCases) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.Add(3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.stddev(), 0.0);
  auto iv = s.ConfidenceInterval();
  EXPECT_EQ(iv.low, 3.0);
  EXPECT_EQ(iv.high, 3.0);
  s.Clear();
  EXPECT_EQ(s.count(), 0u);
}

TEST(StudentTTest, CriticalValues) {
  EXPECT_NEAR(StudentTCritical(0.90, 7), 1.895, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.95, 7), 2.365, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.99, 7), 3.499, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.90, 1), 6.314, 1e-3);
  EXPECT_NEAR(StudentTCritical(0.90, 1000), 1.645, 1e-3);  // normal limit
}

TEST(RunningStatsTest, MatchesSampleStats) {
  SampleStats reference;
  RunningStats streaming;
  Rng rng(1234);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-5, 20);
    reference.Add(v);
    streaming.Add(v);
  }
  EXPECT_EQ(streaming.count(), 1000u);
  EXPECT_NEAR(streaming.mean(), reference.mean(), 1e-9);
  EXPECT_NEAR(streaming.stddev(), reference.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(streaming.min(), reference.min());
  EXPECT_DOUBLE_EQ(streaming.max(), reference.max());
}

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicFromSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.UniformDouble(), b.UniformDouble());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(3.0, 9.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(42);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) {
    s.Add(rng.ExponentialWithMean(16.0));
  }
  EXPECT_NEAR(s.mean(), 16.0, 0.2);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.Fork();
  // Not a rigorous independence test; just confirm the streams differ.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.UniformDouble() != child.UniformDouble()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ----------------------------------------------------------------- Units ---

TEST(UnitsTest, SizesAndTimes) {
  EXPECT_EQ(KiB(3), 3072u);
  EXPECT_EQ(MiB(9), 9u * 1024 * 1024);
  EXPECT_EQ(Milliseconds(16), 16'000'000);
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(ToSecondsF(Milliseconds(1500)), 1.5);
}

TEST(UnitsTest, TransferTime) {
  // 32 KiB at 2.5 decimal-MB/s ~= 13.1 ms (the paper's 37 ms total includes
  // 16 ms seek + 8.3 ms rotation).
  SimTime t = TransferTime(KiB(32), MBPerSecondDecimal(2.5));
  EXPECT_NEAR(ToMillisecondsF(t), 13.1, 0.05);
}

TEST(UnitsTest, RateConversions) {
  EXPECT_DOUBLE_EQ(MegabitsPerSecond(10), 1.25e6);
  EXPECT_DOUBLE_EQ(GigabitsPerSecond(1), 1.25e8);
  EXPECT_NEAR(ToKiBPerSecond(KiBPerSecond(893)), 893, 1e-9);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(KiB(3)), "3.00 KiB");
  EXPECT_EQ(FormatBytes(MiB(9)), "9.00 MiB");
  EXPECT_EQ(FormatRate(KiBPerSecond(893)), "893 KB/s");
  EXPECT_EQ(FormatSimTime(Milliseconds(37)), "37.0 ms");
  EXPECT_EQ(FormatSimTime(Microseconds(105)), "105 us");
}

// ----------------------------------------------------------------- CRC32 ---

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  Rng rng(3);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(0, 100));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(100, 400));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(500));
  EXPECT_EQ(Crc32Final(state), Crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xAB);
  uint32_t before = Crc32(data);
  data[17] ^= 0x10;
  EXPECT_NE(Crc32(data), before);
}

// One bit at a time, straight from the definition: the reference every
// kernel must agree with.
uint32_t ReferenceCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  for (uint8_t b : data) {
    state ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) != 0 ? (state >> 1) ^ 0xEDB88320u : state >> 1;
    }
  }
  return state;
}

std::vector<uint8_t> GoldenPattern(size_t n) {
  std::vector<uint8_t> b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>((i * 131 + 7) & 0xFF);
  }
  return b;
}

// Runs `body` with the dispatched kernel and again with the portable one.
template <typename Body>
void ForEachKernel(Body body) {
  for (bool simd : {true, false}) {
    const bool had_simd = SetCrc32SimdEnabled(simd);
    SCOPED_TRACE(Crc32KernelName());
    body();
    SetCrc32SimdEnabled(had_simd);
  }
}

TEST(Crc32Test, LongBufferGoldenValues) {
  // zlib.crc32 of the pattern's first n bytes: lengths that reach the
  // 64-byte folding kernel, unlike the 9-byte check value.
  const std::vector<uint8_t> b = GoldenPattern(65536);
  const std::span<const uint8_t> all(b);
  ForEachKernel([&] {
    EXPECT_EQ(Crc32(all.first(64)), 0x38e4dbb5u);
    EXPECT_EQ(Crc32(all.first(4096)), 0xa3f5519cu);
    EXPECT_EQ(Crc32(all.first(8192)), 0x9f619db2u);
    EXPECT_EQ(Crc32(all), 0x3a3102b4u);
  });
}

TEST(Crc32Test, KernelsMatchReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 4200;
  constexpr size_t kOffsets = 16;
  std::vector<uint8_t> buf(kMaxLen + kOffsets);
  Rng rng(11);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  // Reference CRCs from an arbitrary starting state for every prefix length
  // at every start offset, built one byte further per length.
  std::vector<uint32_t> starts(kOffsets);
  std::vector<std::vector<uint32_t>> expected(kOffsets, std::vector<uint32_t>(kMaxLen + 1));
  for (size_t off = 0; off < kOffsets; ++off) {
    starts[off] = static_cast<uint32_t>(rng.UniformInt(0, 0xFFFFFFFF));
    uint32_t state = starts[off];
    expected[off][0] = state;
    for (size_t len = 1; len <= kMaxLen; ++len) {
      state = ReferenceCrc32Update(state, std::span<const uint8_t>(&buf[off + len - 1], 1));
      expected[off][len] = state;
    }
  }
  ForEachKernel([&] {
    for (size_t off = 0; off < kOffsets; ++off) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint32_t got =
            Crc32Update(starts[off], std::span<const uint8_t>(buf).subspan(off, len));
        if (got != expected[off][len]) {
          ADD_FAILURE() << "offset " << off << " length " << len << ": got " << std::hex << got
                        << " want " << expected[off][len];
          return;
        }
      }
    }
  });
}

TEST(Crc32Test, RandomIncrementalSplitsMatchReference) {
  std::vector<uint8_t> buf(64 * 1024);
  Rng rng(12);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const uint32_t want = ReferenceCrc32Update(Crc32Init(), buf) ^ 0xFFFFFFFFu;
  ForEachKernel([&] {
    EXPECT_EQ(Crc32(buf), want);
    for (int trial = 0; trial < 50; ++trial) {
      uint32_t state = Crc32Init();
      size_t pos = 0;
      while (pos < buf.size()) {
        // Mostly short pieces, sometimes long ones, so both kernels and the
        // hand-off between them are cut at arbitrary points.
        const int64_t cap = rng.UniformInt(0, 3) == 0 ? 9000 : 130;
        const size_t len = std::min(buf.size() - pos, static_cast<size_t>(rng.UniformInt(0, cap)));
        state = Crc32Update(state, std::span<const uint8_t>(buf).subspan(pos, len));
        pos += len;
      }
      ASSERT_EQ(Crc32Final(state), want) << "trial " << trial;
    }
  });
}

// ----------------------------------------------------------- Wire buffer ---

TEST(WireBufferTest, RoundTripScalars) {
  WireWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789ABCDE);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutString("swift-object");

  WireReader r(w.buffer());
  EXPECT_EQ(r.GetU8(), 0x12);
  EXPECT_EQ(r.GetU16(), 0x3456);
  EXPECT_EQ(r.GetU32(), 0x789ABCDEu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetString(), "swift-object");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireBufferTest, BigEndianLayout) {
  WireWriter w;
  w.PutU32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x01);
  EXPECT_EQ(w.buffer()[3], 0x04);
}

TEST(WireBufferTest, TruncationSetsNotOk) {
  WireWriter w;
  w.PutU16(7);
  WireReader r(w.buffer());
  (void)r.GetU32();  // needs 4 bytes, only 2 present
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.GetU8(), 0u);  // stays not-ok and yields zeros
}

TEST(WireBufferTest, TruncatedStringSetsNotOk) {
  WireWriter w;
  w.PutU16(100);  // claims a 100-byte string, provides none
  WireReader r(w.buffer());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.ok());
}

TEST(WireBufferTest, BytesAndRemaining) {
  WireWriter w;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  w.PutU8(9);
  w.PutBytes(payload);
  WireReader r(w.buffer());
  EXPECT_EQ(r.GetU8(), 9);
  auto first = r.GetBytes(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], 1);
  auto rest = r.GetRemaining();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[2], 5);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace swift
