// Per-tile data memory with capacity accounting.
//
// A tile's memory holds column buffers of the working matrix, plus DMA
// shadow copies. Each buffer is addressed by a BufferKey: a handle that
// packs the owning batch task, the global column index and the shadow
// bit into one 64-bit word, so lookups are integer compares over a small
// flat slot vector (a tile holds a handful of buffers at a time). A
// buffer is a token, not the column's floats: its byte count, which the
// memory accounts, and a provenance stamp the PL sender issued, which a
// fault can corrupt and the Rx boundary checks. The kernels compute on
// the host matrix, so nothing in the fabric needs the floats themselves.
// Allocation is checked against the 4 x 8 KB budget so placement bugs
// that would not fit on silicon fail loudly in simulation. Peak usage is
// tracked for the resource reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace hsvd::versal {

// Handle of one tile-memory buffer: column `column` of batch task `task`,
// either the live buffer or its DMA shadow copy.
class BufferKey {
 public:
  BufferKey(std::uint32_t task, std::uint32_t column)
      : bits_(std::uint64_t{task} << 32 | std::uint64_t{column} << 1) {
    HSVD_REQUIRE(column < (1u << 31), "column index exceeds the key width");
  }

  std::uint32_t task() const { return static_cast<std::uint32_t>(bits_ >> 32); }
  std::uint32_t column() const {
    return static_cast<std::uint32_t>(bits_ >> 1) & 0x7fffffffu;
  }
  bool is_shadow() const { return (bits_ & 1u) != 0; }

  // The DMA shadow copy of this buffer (the "#dma" landing slot).
  BufferKey shadow() const { return BufferKey(bits_ | 1u); }

  friend bool operator==(BufferKey, BufferKey) = default;

 private:
  explicit BufferKey(std::uint64_t bits) : bits_(bits) {}
  std::uint64_t bits_;
};

// One tile-memory buffer: `bytes` of column data under the provenance
// `stamp` the PL sender gave it. Moves and DMA copies carry the stamp
// unchanged; only an injected SEU alters it.
struct Buffer {
  std::uint64_t bytes = 0;
  std::uint64_t stamp = 0;
  friend bool operator==(const Buffer&, const Buffer&) = default;
};

// "c<col>.t<task>", with a "#dma" suffix for a shadow copy: the name
// diagnostics and trace labels use for the buffer.
std::string to_string(BufferKey key);

class TileMemory {
 public:
  explicit TileMemory(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  // Allocates (or replaces) `buffer.bytes` under `key`. Throws
  // std::runtime_error if the tile memory would overflow.
  void store(BufferKey key, Buffer buffer);

  bool contains(BufferKey key) const { return find(key) < slots_.size(); }

  // Throws std::invalid_argument when `key` is absent.
  Buffer load(BufferKey key) const;

  // Removes the buffer, releases its bytes and returns it. Throws
  // std::invalid_argument when `key` is absent.
  Buffer take(BufferKey key);

  // Removes a buffer; no-op if absent.
  void erase(BufferKey key);

  // Removes every buffer whose key satisfies `pred`; returns the number
  // removed. Used to purge a failed task's stranded columns so later
  // tasks on the same tiles do not inherit its memory footprint.
  std::size_t erase_if(const std::function<bool(BufferKey)>& pred);

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t peak_bytes() const { return peak_; }
  std::uint64_t capacity_bytes() const { return capacity_; }

 private:
  struct Slot {
    BufferKey key;
    Buffer buffer;
  };

  // Index of `key`'s slot; slots_.size() when absent.
  std::size_t find(BufferKey key) const;
  // Drops slot `i` (order is not kept), releases its bytes and returns
  // its buffer.
  Buffer remove(std::size_t i);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t peak_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace hsvd::versal
