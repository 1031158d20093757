// Tests for the AIE array geometry: the mirrored core/memory layout and
// the neighbour-access rules the co-design exploits (section II-B/III-B).
#include <gtest/gtest.h>

#include "versal/geometry.hpp"

namespace hsvd::versal {
namespace {

TEST(Geometry, BoundsChecking) {
  ArrayGeometry geo(8, 50);
  EXPECT_EQ(geo.tile_count(), 400);
  EXPECT_TRUE(geo.contains({0, 0}));
  EXPECT_TRUE(geo.contains({7, 49}));
  EXPECT_FALSE(geo.contains({8, 0}));
  EXPECT_FALSE(geo.contains({0, 50}));
  EXPECT_FALSE(geo.contains({-1, 3}));
  EXPECT_THROW(ArrayGeometry(0, 5), std::invalid_argument);
}

TEST(Geometry, IndexIsRowMajorUnique) {
  ArrayGeometry geo(4, 6);
  EXPECT_EQ(geo.index_of({0, 0}), 0);
  EXPECT_EQ(geo.index_of({1, 0}), 6);
  EXPECT_EQ(geo.index_of({3, 5}), 23);
}

TEST(Geometry, RowParityMirrorsCoreAndMemory) {
  ArrayGeometry geo(4, 4);
  // Even row: core left of memory.
  EXPECT_LT(geo.core_x({0, 2}), geo.memory_x({0, 2}));
  // Odd row: mirrored.
  EXPECT_GT(geo.core_x({1, 2}), geo.memory_x({1, 2}));
}

TEST(Geometry, CoreAccessesOwnMemory) {
  ArrayGeometry geo(8, 8);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      EXPECT_TRUE(geo.core_can_access_memory({r, c}, {r, c}))
          << r << "," << c;
}

TEST(Geometry, CoreAccessesVerticalNeighbours) {
  ArrayGeometry geo(8, 8);
  EXPECT_TRUE(geo.core_can_access_memory({2, 3}, {1, 3}));
  EXPECT_TRUE(geo.core_can_access_memory({2, 3}, {3, 3}));
  EXPECT_FALSE(geo.core_can_access_memory({2, 3}, {4, 3}));  // two rows away
}

TEST(Geometry, HorizontalAccessDependsOnRowParity) {
  ArrayGeometry geo(8, 8);
  // Even row: core at 2c reaches the west neighbour's memory (at 2c-1).
  EXPECT_TRUE(geo.core_can_access_memory({0, 3}, {0, 2}));
  EXPECT_FALSE(geo.core_can_access_memory({0, 3}, {0, 4}));
  // Odd row: mirrored -- east neighbour.
  EXPECT_TRUE(geo.core_can_access_memory({1, 3}, {1, 4}));
  EXPECT_FALSE(geo.core_can_access_memory({1, 3}, {1, 2}));
}

// The asymmetry at the heart of Fig. 3: which diagonal transfer avoids
// DMA flips with the source row's parity.
TEST(Geometry, NeighbourTransferParityAsymmetry) {
  ArrayGeometry geo(8, 8);
  // Even -> odd row: straight and leftward are neighbour transfers.
  EXPECT_TRUE(geo.neighbour_transfer_possible({0, 3}, {1, 3}));
  EXPECT_TRUE(geo.neighbour_transfer_possible({0, 3}, {1, 2}));
  EXPECT_FALSE(geo.neighbour_transfer_possible({0, 3}, {1, 4}));
  // Odd -> even row: straight and rightward.
  EXPECT_TRUE(geo.neighbour_transfer_possible({1, 3}, {2, 3}));
  EXPECT_TRUE(geo.neighbour_transfer_possible({1, 3}, {2, 4}));
  EXPECT_FALSE(geo.neighbour_transfer_possible({1, 3}, {2, 2}));
}

TEST(Geometry, LongDistanceTransfersNeedDma) {
  ArrayGeometry geo(8, 50);
  EXPECT_FALSE(geo.neighbour_transfer_possible({0, 0}, {1, 7}));
  EXPECT_FALSE(geo.neighbour_transfer_possible({0, 0}, {3, 0}));
  EXPECT_FALSE(geo.neighbour_transfer_possible({2, 10}, {2, 12}));
}

TEST(Geometry, SameTileIsAlwaysReachable) {
  ArrayGeometry geo(8, 8);
  EXPECT_TRUE(geo.neighbour_transfer_possible({5, 5}, {5, 5}));
}

TEST(Geometry, TransfersWithinRow) {
  ArrayGeometry geo(8, 8);
  // Horizontal one-step transfers share the memory between the cores.
  EXPECT_TRUE(geo.neighbour_transfer_possible({0, 3}, {0, 2}) ||
              geo.neighbour_transfer_possible({0, 3}, {0, 4}));
}

// The simulator checks every neighbour move with the O(1) closed form;
// it must agree with the module-grid scan on the whole VCK190 array, for
// sources and destinations of both row parities.
TEST(Geometry, ClosedFormAgreesWithModuleGridScan) {
  const ArrayGeometry geo(8, 50);
  int mismatches = 0;
  int reachable[2] = {0, 0};  // per source row parity, excluding src == dst
  for (int sr = 0; sr < geo.rows(); ++sr) {
    for (int sc = 0; sc < geo.cols(); ++sc) {
      for (int dr = 0; dr < geo.rows(); ++dr) {
        for (int dc = 0; dc < geo.cols(); ++dc) {
          const TileCoord src{sr, sc};
          const TileCoord dst{dr, dc};
          const bool scan = geo.neighbour_transfer_possible(src, dst);
          if (ArrayGeometry::shares_memory_module(src, dst) != scan) {
            ++mismatches;
            ADD_FAILURE() << to_string(src) << " -> " << to_string(dst)
                          << ": scan says " << scan;
          }
          if (scan && !(src == dst)) ++reachable[sr % 2];
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(reachable[0], 0);
  EXPECT_GT(reachable[1], 0);
}

}  // namespace
}  // namespace hsvd::versal
