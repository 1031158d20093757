// AIE array geometry: tile coordinates and the mirrored core/memory
// layout that motivates the paper's co-design.
//
// Each tile holds a computation core and a memory module side by side.
// In even rows the core sits left of its memory; in odd rows the layout
// is mirrored (paper section III-B). A core can directly access a memory
// module that is physically adjacent to it: its own, the vertical
// neighbours' in the same column, and one horizontal neighbour whose
// memory abuts it (west for even rows, east for odd rows). Every other
// tile-to-tile transfer needs DMA, which costs double memory and runs at
// a lower rate.
#pragma once

#include <string>

#include "common/assert.hpp"

namespace hsvd::versal {

struct TileCoord {
  int row = 0;
  int col = 0;
  friend bool operator==(const TileCoord&, const TileCoord&) = default;
  friend bool operator<(const TileCoord& a, const TileCoord& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  }
};

std::string to_string(const TileCoord& t);

class ArrayGeometry {
 public:
  ArrayGeometry(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int tile_count() const { return rows_ * cols_; }

  bool contains(const TileCoord& t) const {
    return t.row >= 0 && t.row < rows_ && t.col >= 0 && t.col < cols_;
  }

  int index_of(const TileCoord& t) const {
    HSVD_ASSERT(contains(t), "tile out of array");
    return t.row * cols_ + t.col;
  }

  // Inverse of index_of.
  TileCoord coord_of(int index) const { return {index / cols_, index % cols_}; }

  // Physical x position (in half-tile units) of the core / memory module
  // of the given tile. Row parity mirrors the pair.
  int core_x(const TileCoord& t) const {
    return t.row % 2 == 0 ? 2 * t.col : 2 * t.col + 1;
  }
  int memory_x(const TileCoord& t) const {
    return t.row % 2 == 0 ? 2 * t.col + 1 : 2 * t.col;
  }

  // True if the core of `core_tile` can directly read/write the memory
  // module of `mem_tile` (adjacency in the physical module grid).
  bool core_can_access_memory(const TileCoord& core_tile,
                              const TileCoord& mem_tile) const;

  // True if a value produced on `src` can reach the core of `dst` without
  // DMA, i.e. dst's core can read some memory src's core can write:
  // either directly (dst core reads src-accessible memory) -- we model
  // the paper's rule: the transfer is a neighbour access when the
  // producing core can write a memory module the consuming core can read.
  bool neighbour_transfer_possible(const TileCoord& src,
                                   const TileCoord& dst) const;

  // Closed form of neighbour_transfer_possible for tiles inside the
  // array, O(1). A core reaches its own memory, the ones above and below
  // it, and the horizontal one its row parity abuts (west in even rows,
  // east in odd rows), so two tiles share a module when they are
  // horizontal neighbours, when dst is in the next row up or down at
  // src's column or at the column of src's abutting memory, or when they
  // are two rows apart in one column.
  static bool shares_memory_module(const TileCoord& src, const TileCoord& dst) {
    const int dr = dst.row - src.row;
    const int dc = dst.col - src.col;
    switch (dr < 0 ? -dr : dr) {
      case 0: return dc >= -1 && dc <= 1;
      case 1: return dc == 0 || dc == (src.row % 2 == 0 ? -1 : 1);
      case 2: return dc == 0;
      default: return false;
    }
  }

  // Throws std::invalid_argument ("tiles A -> B are not
  // neighbour-accessible") unless both tiles are inside the array and
  // share a memory module: the precondition of every neighbour move.
  void require_neighbour_access(const TileCoord& src,
                                const TileCoord& dst) const;

 private:
  int rows_;
  int cols_;
};

}  // namespace hsvd::versal
