// Shared-ownership payload buffers for the zero-copy data path.
//
// The paper's §3.1 protocol was designed so the kernel could "scatter-gather
// straight into user buffers"; this module is the user-space half of that
// bargain. A `Buffer` is a ref-counted heap block a producer fills exactly
// once; a `BufferSlice` is an immutable (offset, length) view that keeps the
// block alive for as long as any reader holds it. Passing a slice between
// layers moves a pointer, not the bytes, so a received datagram's payload can
// flow from the socket arena through Message::Decode and the transport all
// the way to stripe reassembly without being copied.
//
// Ownership rules (see DESIGN.md §12):
//   * mutable-unique: a producer may write through Buffer::data() only while
//     it holds the sole reference (no slices handed out yet).
//   * immutable-shared: once a slice exists, the block's bytes are frozen;
//     all access goes through const views. Producers that must mutate after
//     sharing copy first (FaultyBackingStore's stuck-range is the one
//     deliberate copy-on-write in the tree).
//
// Every *deliberate* payload copy that remains on the data path is routed
// through CountBufferCopy(), which feeds the `swift_buffer_copies_total` /
// `swift_buffer_copy_bytes_total` metrics — so the copy inventory is
// measured, not asserted.

#ifndef SWIFT_SRC_UTIL_BUFFER_H_
#define SWIFT_SRC_UTIL_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace swift {

class BufferSlice;

// Records one deliberate payload copy of `bytes` bytes in the process-wide
// metrics registry (swift_buffer_copies_total / swift_buffer_copy_bytes_total).
void CountBufferCopy(size_t bytes);

// Size of the process-wide shared zero page used to serve fully-past-EOF
// reads without allocating or memsetting per op.
inline constexpr size_t kZeroPageSize = 64 * 1024;

// Ref-counted mutable heap block. Move-and-copy cheap (shared_ptr). The
// producer that allocated it may write through data()/span() while unique();
// handing out a Slice() freezes the contents by convention.
class Buffer {
 public:
  Buffer() = default;

  // Uninitialized block. The producer must fill every byte it later shares.
  // Blocks of 64 KiB and up are recycled: when the last owner or slice
  // drops, the block returns to a process-wide pool (at most 32 MiB idle)
  // and a later Allocate of the same size hands it out again.
  static Buffer Allocate(size_t size);
  // Zero-filled block (for reassembly targets and zero-extended reads).
  static Buffer AllocateZeroed(size_t size);
  // New block holding a copy of `bytes`; the copy is counted.
  static Buffer CopyOf(std::span<const uint8_t> bytes);

  bool valid() const { return data_ != nullptr; }
  size_t size() const { return size_; }
  uint8_t* data() { return data_.get(); }
  const uint8_t* data() const { return data_.get(); }
  std::span<uint8_t> span() { return {data_.get(), size_}; }
  std::span<const uint8_t> span() const { return {data_.get(), size_}; }

  // True while this Buffer is the sole owner of the block — the only state
  // in which mutation is legal.
  bool unique() const { return data_ && data_.use_count() == 1; }
  long use_count() const { return data_ ? data_.use_count() : 0; }

  // Immutable view of [offset, offset+length); shares ownership of the block.
  BufferSlice Slice(size_t offset, size_t length) const;
  BufferSlice SliceAll() const;

 private:
  std::shared_ptr<uint8_t[]> data_;
  size_t size_ = 0;
};

// Immutable shared view into a Buffer (or an adopted vector / the static
// zero page). Copying a slice copies a pointer; the underlying block lives
// until the last slice over it is destroyed.
class BufferSlice {
 public:
  BufferSlice() = default;

  // New single-owner block holding a copy of `bytes`; the copy is counted.
  static BufferSlice CopyOf(std::span<const uint8_t> bytes);
  static BufferSlice CopyOf(std::string_view text);
  // Takes ownership of `bytes` without copying (the vector's heap block
  // becomes the shared block). For producers that already built a vector.
  static BufferSlice FromVector(std::vector<uint8_t>&& bytes);
  // `length` zero bytes. Served from a process-wide shared page when
  // length <= kZeroPageSize (no allocation, no memset); falls back to a
  // freshly zeroed block otherwise.
  static BufferSlice ZeroPage(size_t length);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* data() const { return data_.get(); }
  const uint8_t* begin() const { return data_.get(); }
  const uint8_t* end() const { return data_.get() + size_; }
  const uint8_t& operator[](size_t i) const { return data_.get()[i]; }

  std::span<const uint8_t> span() const { return {data_.get(), size_}; }
  // Slices convert to read-only spans so CRC/XOR/WireReader call sites take
  // them unchanged.
  operator std::span<const uint8_t>() const { return span(); }

  // Sub-view; aliases the same block.
  BufferSlice Slice(size_t offset, size_t length) const;

  // Copies min(size(), dst.size()) bytes into `dst`; the copy is counted.
  // Returns the byte count copied.
  size_t CopyTo(std::span<uint8_t> dst) const;
  // Counted copy into a fresh vector (test/tooling convenience).
  std::vector<uint8_t> ToVector() const;

  long use_count() const { return data_ ? data_.use_count() : 0; }

  // Content equality (byte-wise), so tests can compare against expected data.
  friend bool operator==(const BufferSlice& a, const BufferSlice& b);
  friend bool operator==(const BufferSlice& a, const std::vector<uint8_t>& b);
  friend bool operator==(const std::vector<uint8_t>& a, const BufferSlice& b) { return b == a; }

 private:
  friend class Buffer;
  BufferSlice(std::shared_ptr<const uint8_t> data, size_t size)
      : data_(std::move(data)), size_(size) {}

  // Aliasing pointer into the owning block; keeps the whole block alive.
  std::shared_ptr<const uint8_t> data_;
  size_t size_ = 0;
};

}  // namespace swift

#endif  // SWIFT_SRC_UTIL_BUFFER_H_
