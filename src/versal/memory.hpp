// Tile data memory: per-tile byte ledgers plus the column tokens whose
// bytes they account.
//
// A column of the working matrix travels through the fabric as a token,
// not as its floats: a byte count, which the memories account, and a
// provenance stamp the PL sender issued, which a fault can corrupt and
// the Rx boundary checks. The kernels compute on the host matrix, so
// nothing in the fabric needs the floats themselves.
//
// Where a token lives is recorded in the token (ColumnToken), not in the
// tile: a task slot owns one token per local column of its block pair,
// holding the tile index and stamp of the live copy and of the DMA
// shadow copy ("#dma") in flight. Each tile keeps only a byte ledger
// (TileMemory), checked against the 4 x 8 KB budget so placement bugs
// that would not fit on silicon fail loudly in simulation, with a sticky
// peak for the resource reports. Every residency check, move, DMA
// resolve and Rx is therefore O(1).
#pragma once

#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace hsvd::versal {

// Name of one tile-memory buffer: column `column` of batch task `task`,
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

// Where one column of a block pair lives: the tile index (the array
// geometry's index_of) and stamp of its live copy, and of its DMA shadow
// copy while a DMA is being resolved. kNoTile marks an absent copy. The
// array's transfer methods update it; a token that never landed (a
// dropped packet, or timing-only execution, which lands nothing) stays
// absent, and every transfer of it is then accounting and timing only.
struct ColumnToken {
  static constexpr int kNoTile = -1;

  explicit ColumnToken(BufferKey k = BufferKey(0, 0)) : key(k) {}

  BufferKey key;
  std::uint64_t bytes = 0;
  int live_tile = kNoTile;
  std::uint64_t live_stamp = 0;
  int shadow_tile = kNoTile;
  std::uint64_t shadow_stamp = 0;
};

// Byte ledger of one tile's data memory.
class TileMemory {
 public:
  explicit TileMemory(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  // Accounts `bytes` more for the buffer `key` names. Throws
  // std::runtime_error, leaving the ledger unchanged, if the tile memory
  // would overflow.
  void charge(BufferKey key, std::uint64_t bytes);

  // Returns `bytes` a departing buffer held.
  void release(std::uint64_t bytes) {
    HSVD_ASSERT(bytes <= used_, "tile memory released more than it holds");
    used_ -= bytes;
  }

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t peak_bytes() const { return peak_; }
  std::uint64_t capacity_bytes() const { return capacity_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t peak_ = 0;
};

}  // namespace hsvd::versal
