#include "versal/geometry.hpp"

#include <cmath>

#include "common/format.hpp"

namespace hsvd::versal {

std::string to_string(const TileCoord& t) {
  return cat("(", t.row, ",", t.col, ")");
}

ArrayGeometry::ArrayGeometry(int rows, int cols) : rows_(rows), cols_(cols) {
  HSVD_REQUIRE(rows >= 1 && cols >= 1, "array must have positive dimensions");
}

void ArrayGeometry::require_neighbour_access(const TileCoord& src,
                                             const TileCoord& dst) const {
  HSVD_REQUIRE(contains(src) && contains(dst) && shares_memory_module(src, dst),
               cat("tiles ", to_string(src), " -> ", to_string(dst),
                   " are not neighbour-accessible"));
}

bool ArrayGeometry::core_can_access_memory(const TileCoord& core_tile,
                                           const TileCoord& mem_tile) const {
  HSVD_REQUIRE(contains(core_tile) && contains(mem_tile),
               "tiles must be inside the array");
  const int dr = mem_tile.row - core_tile.row;
  const int dx = memory_x(mem_tile) - core_x(core_tile);
  // Adjacency in the physical module grid: side-by-side in the same row,
  // or vertically aligned in an adjacent row.
  if (dr == 0) return dx == 1 || dx == -1;
  if (dr == 1 || dr == -1) return dx == 0;
  return false;
}

bool ArrayGeometry::neighbour_transfer_possible(const TileCoord& src,
                                                const TileCoord& dst) const {
  HSVD_REQUIRE(contains(src) && contains(dst), "tiles must be inside the array");
  if (src == dst) return true;  // same core: data already in reach
  // A transfer avoids DMA when some memory module is adjacent to both the
  // producing core (so it can deposit the result there) and the consuming
  // core (so it can read it back) -- Fig. 4(b)'s relocated-output rule.
  for (int dr = -1; dr <= 1; ++dr) {
    for (int dc = -1; dc <= 1; ++dc) {
      const TileCoord mem{src.row + dr, src.col + dc};
      if (!contains(mem)) continue;
      if (core_can_access_memory(src, mem) && core_can_access_memory(dst, mem)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace hsvd::versal
