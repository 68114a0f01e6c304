// Shared-ownership buffer pipeline: slice lifetime (a view must keep its
// block alive after every other owner is gone), the mutate-only-while-unique
// rule, the shared zero page, copy accounting, concurrent shared reads, and
// the recycling of large blocks.
// ci.sh runs this suite under both the tsan and asan-ubsan presets.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/metrics.h"

namespace swift {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

uint64_t CopyBytesCounter() {
  return MetricRegistry::Global().GetCounter("swift_buffer_copy_bytes_total")->Value();
}

TEST(BufferTest, AllocateIsUniqueUntilSliced) {
  Buffer b = Buffer::Allocate(128);
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.size(), 128u);
  EXPECT_TRUE(b.unique());  // mutation is legal here
  std::memset(b.data(), 0xAB, b.size());

  BufferSlice s = b.SliceAll();
  EXPECT_FALSE(b.unique());  // frozen: a reader now shares the block
  EXPECT_EQ(s.size(), 128u);
  EXPECT_EQ(s[0], 0xAB);
  EXPECT_EQ(s.data(), b.data());  // a view, not a copy
}

TEST(BufferTest, SliceOutlivesBuffer) {
  const std::vector<uint8_t> expected = Pattern(4096, 7);
  BufferSlice s;
  {
    Buffer b = Buffer::Allocate(expected.size());
    std::memcpy(b.data(), expected.data(), expected.size());
    s = b.Slice(0, expected.size());
  }  // the Buffer handle dies; the block must not
  EXPECT_EQ(s, expected);
}

TEST(BufferTest, SubSliceAliasesAndPinsTheWholeBlock) {
  const std::vector<uint8_t> expected = Pattern(1000, 3);
  BufferSlice tail;
  {
    Buffer b = Buffer::CopyOf(expected);
    BufferSlice whole = b.SliceAll();
    tail = whole.Slice(900, 100);
    EXPECT_EQ(tail.data(), whole.data() + 900);  // same block, no copy
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tail[i], expected[900 + i]) << i;
  }
}

TEST(BufferTest, FromVectorAdoptsWithoutCopying) {
  std::vector<uint8_t> data = Pattern(2048, 11);
  const uint8_t* heap = data.data();
  const uint64_t before = CopyBytesCounter();
  BufferSlice s = BufferSlice::FromVector(std::move(data));
  EXPECT_EQ(CopyBytesCounter(), before);  // adopted, not copied
  EXPECT_EQ(s.data(), heap);
  EXPECT_EQ(s.size(), 2048u);
}

TEST(BufferTest, CopiesAreCounted) {
  const std::vector<uint8_t> data = Pattern(512, 5);
  const uint64_t before = CopyBytesCounter();
  BufferSlice s = BufferSlice::CopyOf(data);
  EXPECT_EQ(CopyBytesCounter(), before + 512);

  std::vector<uint8_t> dst(512);
  EXPECT_EQ(s.CopyTo(dst), 512u);
  EXPECT_EQ(CopyBytesCounter(), before + 1024);
  EXPECT_EQ(dst, data);

  EXPECT_EQ(s.ToVector(), data);
  EXPECT_EQ(CopyBytesCounter(), before + 1536);
}

TEST(BufferTest, ZeroPageServesSmallLengthsFromOneSharedBlock) {
  BufferSlice a = BufferSlice::ZeroPage(100);
  BufferSlice b = BufferSlice::ZeroPage(kZeroPageSize);
  EXPECT_EQ(a.data(), b.data());  // the process-wide page, not fresh blocks
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], 0u);
  }

  // Past the page size it falls back to a private zeroed block.
  BufferSlice big = BufferSlice::ZeroPage(kZeroPageSize + 1);
  EXPECT_NE(big.data(), a.data());
  EXPECT_EQ(big.size(), kZeroPageSize + 1);
  EXPECT_EQ(big[kZeroPageSize], 0u);
}

TEST(BufferTest, EmptySliceIsSafe) {
  BufferSlice s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.CopyTo(std::span<uint8_t>()), 0u);
  EXPECT_TRUE(s.ToVector().empty());
  EXPECT_EQ(s, BufferSlice());
}

TEST(BufferTest, EqualityIsByContent) {
  const std::vector<uint8_t> data = Pattern(64, 9);
  BufferSlice a = BufferSlice::CopyOf(data);
  BufferSlice b = BufferSlice::CopyOf(data);
  EXPECT_EQ(a, b);  // distinct blocks, same bytes
  EXPECT_EQ(a, data);
  EXPECT_EQ(data, b);
  EXPECT_FALSE(a == BufferSlice::CopyOf(Pattern(64, 10)));
  EXPECT_FALSE(a == BufferSlice::CopyOf(Pattern(63, 9)));
}

// tsan: many threads reading one shared block while owners come and go must
// be race-free — the freeze-on-share convention means readers never see a
// write, and the control block's refcount is the only contended word.
TEST(BufferTest, ConcurrentSharedReadsAreRaceFree) {
  constexpr size_t kBytes = 64 * 1024;
  const std::vector<uint8_t> expected = Pattern(kBytes, 13);
  Buffer b = Buffer::CopyOf(expected);
  BufferSlice root = b.SliceAll();

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&root, t] {
      for (int iter = 0; iter < 50; ++iter) {
        // Each thread re-slices (refcount churn) and checksums its window.
        BufferSlice window = root.Slice((t * 8192) % kBytes, 8192);
        uint64_t sum = 0;
        for (uint8_t byte : window.span()) {
          sum += byte;
        }
        ASSERT_NE(sum, 0u);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(root, expected);
}

// asan: the mutate-after-share escape hatch is copy-on-write — the writer
// takes a counted private copy and the original readers keep the old bytes.
TEST(BufferTest, CopyOnWriteLeavesExistingReadersUntouched) {
  const std::vector<uint8_t> original = Pattern(256, 17);
  Buffer b = Buffer::CopyOf(original);
  BufferSlice reader = b.SliceAll();
  ASSERT_FALSE(b.unique());

  // A producer that must mutate after sharing copies first (the rule the
  // FaultyBackingStore stuck-range path follows).
  Buffer writable = Buffer::CopyOf(reader);
  ASSERT_TRUE(writable.unique());
  std::memset(writable.data(), 0, writable.size());

  EXPECT_EQ(reader, original);  // untouched
  EXPECT_EQ(writable.span()[0], 0u);
}

// A large block goes back to the pool only when its last slice drops: while
// a slice pins it, a new allocation of the same size gets a different block
// and the pinned bytes stay intact; once released, the block is reused.
TEST(BufferTest, LargeBlockIsRecycledOnlyAfterItsLastSliceDrops) {
  constexpr size_t kLarge = 256 * 1024;
  const std::vector<uint8_t> expected = Pattern(kLarge, 23);
  BufferSlice pin;
  const uint8_t* first = nullptr;
  {
    Buffer b = Buffer::Allocate(kLarge);
    std::memcpy(b.data(), expected.data(), kLarge);
    first = b.data();
    pin = b.SliceAll();
  }
  Buffer other = Buffer::Allocate(kLarge);
  EXPECT_NE(other.data(), first);
  std::memset(other.data(), 0xEE, kLarge);
  EXPECT_EQ(pin, expected);

  pin = BufferSlice();
  Buffer reused = Buffer::Allocate(kLarge);
  EXPECT_EQ(reused.data(), first);
  EXPECT_TRUE(reused.unique());
}

// A recycled block comes back zeroed from AllocateZeroed, whatever it held.
TEST(BufferTest, RecycledBlockIsZeroedWhenAskedFor) {
  constexpr size_t kLarge = 64 * 1024;
  {
    Buffer dirty = Buffer::Allocate(kLarge);
    std::memset(dirty.data(), 0x5A, kLarge);
  }
  Buffer zeroed = Buffer::AllocateZeroed(kLarge);
  EXPECT_EQ(zeroed.SliceAll(), std::vector<uint8_t>(kLarge, 0));
}

}  // namespace
}  // namespace swift
