#include "src/util/buffer.h"

#include <sanitizer/asan_interface.h>

#include <cstring>
#include <mutex>

#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace swift {

void CountBufferCopy(size_t bytes) {
  static struct {
    Counter* copies = MetricRegistry::Global().GetCounter("swift_buffer_copies_total");
    Counter* copy_bytes = MetricRegistry::Global().GetCounter("swift_buffer_copy_bytes_total");
  } m;
  m.copies->Increment();
  m.copy_bytes->Increment(bytes);
}

namespace {

// Recycles payload blocks of kMinPooledBlock bytes and up (socket receive
// arenas, reassembly targets, store reads). Those blocks are allocated on one
// thread and released on whichever thread drops the last slice; through
// malloc, every release lands in the allocating thread's arena, and how much
// freed memory each arena keeps resident depends on thread timing, so the
// process's footprint drifted with scheduling. Recycled blocks are handed
// out again instead: the footprint follows the peak number of live blocks.
// At most kMaxPooledBytes of idle blocks are kept, spread over at most
// kMaxSizes distinct sizes; anything past that goes back to malloc.
class BlockPool {
 public:
  static constexpr size_t kMinPooledBlock = 64 * 1024;

  static BlockPool& Global() {
    static BlockPool* pool = new BlockPool();  // never destroyed: deleters outlive statics
    return *pool;
  }

  uint8_t* Take(size_t size) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (SizeClass& c : sizes_) {
        if (c.size == size && !c.idle.empty()) {
          uint8_t* block = c.idle.back();
          c.idle.pop_back();
          idle_bytes_ -= size;
          ASAN_UNPOISON_MEMORY_REGION(block, size);
          return block;
        }
      }
    }
    return new uint8_t[size];
  }

  void Give(uint8_t* block, size_t size) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (idle_bytes_ + size <= kMaxPooledBytes) {
        // This size's class; failing that, a class with no idle blocks
        // changes size, or a new class is opened.
        SizeClass* slot = nullptr;
        for (SizeClass& c : sizes_) {
          if (c.size == size) {
            slot = &c;
            break;
          }
          if (slot == nullptr && c.idle.empty()) {
            slot = &c;
          }
        }
        if (slot == nullptr && sizes_.size() < kMaxSizes) {
          slot = &sizes_.emplace_back();
        }
        if (slot != nullptr) {
          ASAN_POISON_MEMORY_REGION(block, size);  // a stale slice read is still caught
          slot->size = size;
          slot->idle.push_back(block);
          idle_bytes_ += size;
          return;
        }
      }
    }
    delete[] block;
  }

 private:
  static constexpr size_t kMaxPooledBytes = 32 * 1024 * 1024;
  static constexpr size_t kMaxSizes = 8;

  struct SizeClass {
    size_t size = 0;
    std::vector<uint8_t*> idle;
  };

  std::mutex mutex_;
  std::vector<SizeClass> sizes_;
  size_t idle_bytes_ = 0;
};

}  // namespace

Buffer Buffer::Allocate(size_t size) {
  Buffer b;
  if (size >= BlockPool::kMinPooledBlock) {
    b.data_ = std::shared_ptr<uint8_t[]>(BlockPool::Global().Take(size),
                                         [size](uint8_t* block) {
                                           BlockPool::Global().Give(block, size);
                                         });
  } else {
    b.data_ = std::shared_ptr<uint8_t[]>(new uint8_t[size]);
  }
  b.size_ = size;
  return b;
}

Buffer Buffer::AllocateZeroed(size_t size) {
  Buffer b = Allocate(size);
  std::memset(b.data(), 0, size);
  return b;
}

Buffer Buffer::CopyOf(std::span<const uint8_t> bytes) {
  Buffer b = Allocate(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(b.data(), bytes.data(), bytes.size());
    CountBufferCopy(bytes.size());
  }
  return b;
}

BufferSlice Buffer::Slice(size_t offset, size_t length) const {
  SWIFT_CHECK(offset + length <= size_) << "slice [" << offset << ", " << offset + length
                                        << ") outside buffer of " << size_ << " bytes";
  // Aliasing constructor: the slice points at data_+offset but owns the
  // whole block, so the block outlives every slice carved from it.
  return BufferSlice(std::shared_ptr<const uint8_t>(data_, data_.get() + offset), length);
}

BufferSlice Buffer::SliceAll() const { return Slice(0, size_); }

BufferSlice BufferSlice::CopyOf(std::span<const uint8_t> bytes) {
  return Buffer::CopyOf(bytes).SliceAll();
}

BufferSlice BufferSlice::CopyOf(std::string_view text) {
  return CopyOf(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                         text.size()));
}

BufferSlice BufferSlice::FromVector(std::vector<uint8_t>&& bytes) {
  auto owned = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
  const size_t size = owned->size();
  const uint8_t* data = owned->data();
  // Aliasing constructor again: the control block keeps the vector alive,
  // the pointer targets its elements. No bytes move.
  return BufferSlice(std::shared_ptr<const uint8_t>(std::move(owned), data), size);
}

BufferSlice BufferSlice::ZeroPage(size_t length) {
  if (length <= kZeroPageSize) {
    static const Buffer* page = new Buffer(Buffer::AllocateZeroed(kZeroPageSize));
    return page->Slice(0, length);
  }
  return Buffer::AllocateZeroed(length).SliceAll();
}

BufferSlice BufferSlice::Slice(size_t offset, size_t length) const {
  SWIFT_CHECK(offset + length <= size_) << "slice [" << offset << ", " << offset + length
                                        << ") outside slice of " << size_ << " bytes";
  return BufferSlice(std::shared_ptr<const uint8_t>(data_, data_.get() + offset), length);
}

size_t BufferSlice::CopyTo(std::span<uint8_t> dst) const {
  const size_t n = std::min(size_, dst.size());
  if (n > 0) {
    std::memcpy(dst.data(), data_.get(), n);
    CountBufferCopy(n);
  }
  return n;
}

std::vector<uint8_t> BufferSlice::ToVector() const {
  if (size_ > 0) {
    CountBufferCopy(size_);
  }
  return std::vector<uint8_t>(begin(), end());
}

bool operator==(const BufferSlice& a, const BufferSlice& b) {
  return a.size_ == b.size_ &&
         (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
}

bool operator==(const BufferSlice& a, const std::vector<uint8_t>& b) {
  return a.size() == b.size() &&
         (b.empty() || std::memcmp(a.data(), b.data(), b.size()) == 0);
}

}  // namespace swift
