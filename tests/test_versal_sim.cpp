// Tests for the Versal simulator substrate: tile memory ledgers and
// column tokens, timelines/channels, packets, and the array-level
// transfer mechanisms.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "versal/array.hpp"
#include "versal/memory.hpp"
#include "versal/packet.hpp"
#include "versal/timeline.hpp"

namespace hsvd::versal {
namespace {

// Column buffers of one task; tests that need no particular key use these.
const BufferKey kA{0, 1};
const BufferKey kB{0, 2};

// A token for a column of `floats` words carrying `stamp`.
Buffer column(std::uint64_t floats, std::uint64_t stamp = 0) {
  return Buffer{floats * sizeof(float), stamp};
}

// Lands `payload` on tile `tile` as `token`'s live copy, the way a Tx
// packet does.
void land(AieArraySim& sim, int tile, ColumnToken& token, Buffer payload) {
  Packet p;
  p.header = {0, token.key.column(), token.key.task()};
  p.payload = payload;
  sim.stream_packet(tile, p, 0.0, &token);
}

TEST(TileMemory, StoresAndLoads) {
  TileMemory mem(1024);
  mem.charge(kA, 8);
  EXPECT_EQ(mem.used_bytes(), 8u);
  EXPECT_EQ(mem.peak_bytes(), 8u);
  EXPECT_EQ(mem.capacity_bytes(), 1024u);
}

TEST(TileMemory, OverflowThrows) {
  TileMemory mem(16);  // room for 4 floats
  mem.charge(kA, 16);
  try {
    mem.charge(kB.shadow(), 4);
    FAIL() << "overflow not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(
        e.what(),
        "tile memory overflow: need 20 bytes of 16 storing 'c2.t0#dma'");
  }
  // A failed charge leaves the ledger unchanged.
  EXPECT_EQ(mem.used_bytes(), 16u);
  EXPECT_EQ(mem.peak_bytes(), 16u);
}

TEST(TileMemory, ReplacingABufferReaccountsItsBytes) {
  // A column moving between two tiles: the source releases exactly what
  // the destination charges, and each tile keeps its own peak.
  AieArraySim sim(ArrayGeometry(4, 4), vck190());
  const int src = sim.geometry().index_of({1, 1});
  const int dst = sim.geometry().index_of({1, 2});
  ColumnToken a(kA);
  ColumnToken b(kB);
  land(sim, src, a, column(4, 1));
  land(sim, src, b, column(2, 2));
  EXPECT_EQ(sim.memory(src).used_bytes(), 24u);
  sim.neighbour_move(src, dst, a, 16);
  EXPECT_EQ(sim.memory(src).used_bytes(), 8u);
  EXPECT_EQ(sim.memory(dst).used_bytes(), 16u);
  EXPECT_EQ(a.live_tile, dst);
  EXPECT_EQ(a.live_stamp, 1u);
  sim.neighbour_move(src, dst, b, 8);
  EXPECT_EQ(sim.memory(src).used_bytes(), 0u);
  EXPECT_EQ(sim.memory(dst).used_bytes(), 24u);
  EXPECT_EQ(sim.memory(src).peak_bytes(), 24u);
  EXPECT_EQ(sim.memory(dst).peak_bytes(), 24u);
}

TEST(TileMemory, EraseReleasesCapacity) {
  TileMemory mem(16);
  mem.charge(kA, 16);
  mem.release(16);
  EXPECT_EQ(mem.used_bytes(), 0u);
  EXPECT_EQ(mem.peak_bytes(), 16u);  // peak is sticky
  mem.charge(kB, 16);                // fits again
  EXPECT_EQ(mem.used_bytes(), 16u);
}

TEST(TileMemory, MissingBufferThrows) {
  AieArraySim sim(ArrayGeometry(4, 4), vck190());
  ColumnToken ghost(BufferKey(9, 9));
  try {
    sim.take(sim.geometry().index_of({2, 2}), ghost);
    FAIL() << "take of an absent column succeeded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("missing buffer 'c9.t9'"),
              std::string::npos);
  }
  // A column live elsewhere is just as missing here.
  land(sim, sim.geometry().index_of({1, 1}), ghost, column(2));
  EXPECT_THROW(sim.take(sim.geometry().index_of({2, 2}), ghost),
               std::invalid_argument);
  EXPECT_EQ(sim.memory(sim.geometry().index_of({2, 2})).used_bytes(), 0u);
}

TEST(TileMemory, TakeMovesTheBufferOut) {
  AieArraySim sim(ArrayGeometry(4, 4), vck190());
  const int tile = sim.geometry().index_of({1, 1});
  ColumnToken a(kA);
  ColumnToken b(kB);
  land(sim, tile, a, column(3, 5));
  land(sim, tile, b, column(1, 6));
  EXPECT_EQ(sim.take(tile, a), column(3, 5));
  EXPECT_EQ(a.live_tile, ColumnToken::kNoTile);
  EXPECT_EQ(sim.memory(tile).used_bytes(), 4u);
  EXPECT_THROW(sim.take(tile, a), std::invalid_argument);  // taken once only
  EXPECT_EQ(b.live_stamp, 6u);
}

TEST(TileMemory, PurgingTaskOneKeepsTaskTwelve) {
  // Task 1 must not claim task 12's columns, nor columns whose column,
  // not task, is 1; a purge releases live and shadow copies alike.
  AieArraySim sim(ArrayGeometry(4, 4), vck190());
  const int t0 = sim.geometry().index_of({1, 1});
  const int t1 = sim.geometry().index_of({3, 3});
  std::vector<ColumnToken> table{ColumnToken(BufferKey(1, 3)),
                                 ColumnToken(BufferKey(12, 1)),
                                 ColumnToken(BufferKey(2, 11)),
                                 ColumnToken(BufferKey(1, 12))};
  land(sim, t0, table[0], column(1));
  sim.dma_move(t0, t1, table[0], 0.0, 4);
  land(sim, t0, table[1], column(2));
  sim.dma_move(t0, t1, table[1], 0.0, 8);
  land(sim, t0, table[2], column(3));
  land(sim, t0, table[3], column(1));
  EXPECT_EQ(sim.purge(table, 1), 3u);
  EXPECT_EQ(table[0].live_tile, ColumnToken::kNoTile);
  EXPECT_EQ(table[0].shadow_tile, ColumnToken::kNoTile);
  EXPECT_EQ(table[3].live_tile, ColumnToken::kNoTile);
  EXPECT_EQ(table[1].live_tile, t0);
  EXPECT_EQ(table[1].shadow_tile, t1);
  EXPECT_EQ(table[2].live_tile, t0);
  EXPECT_EQ(sim.memory(t0).used_bytes(), 5u * sizeof(float));
  EXPECT_EQ(sim.memory(t1).used_bytes(), 2u * sizeof(float));
}

TEST(BufferKey, LiveAndShadowKeysAreDistinct) {
  const BufferKey live(3, 7);
  const BufferKey shadow = live.shadow();
  EXPECT_NE(live, shadow);
  EXPECT_EQ(shadow, live.shadow());
  EXPECT_EQ(shadow.task(), 3u);
  EXPECT_EQ(shadow.column(), 7u);
  EXPECT_FALSE(live.is_shadow());
  EXPECT_TRUE(shadow.is_shadow());
  EXPECT_NE(BufferKey(3, 7), BufferKey(7, 3));
  EXPECT_EQ(to_string(live), "c7.t3");
  EXPECT_EQ(to_string(shadow), "c7.t3#dma");
  // Both copies of one column coexist in a tile (the DMA 2x cost) until
  // the consumer resolves the shadow.
  AieArraySim sim(ArrayGeometry(4, 4), vck190());
  const int src = sim.geometry().index_of({1, 1});
  const int dst = sim.geometry().index_of({1, 2});
  ColumnToken token(live);
  land(sim, src, token, column(2, 1));
  ColumnToken resident(BufferKey(3, 8));
  land(sim, dst, resident, column(2, 9));
  sim.dma_move(src, dst, token, 0.0, 8);
  EXPECT_EQ(sim.memory(dst).used_bytes(), 16u);
  EXPECT_EQ(token.live_tile, src);
  EXPECT_EQ(token.shadow_tile, dst);
  EXPECT_TRUE(sim.resolve_dma(src, dst, token));
  EXPECT_EQ(token.live_tile, dst);
  EXPECT_EQ(token.live_stamp, 1u);
  EXPECT_EQ(token.shadow_tile, ColumnToken::kNoTile);
  EXPECT_EQ(sim.memory(src).used_bytes(), 0u);
  EXPECT_EQ(sim.memory(dst).used_bytes(), 16u);
  EXPECT_FALSE(sim.resolve_dma(src, dst, token));  // nothing left to resolve
}

TEST(Timeline, SerializesOperations) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.schedule(0.0, 2.0), 2.0);
  // Ready earlier than the resource frees: starts at 2.
  EXPECT_DOUBLE_EQ(t.schedule(1.0, 1.0), 3.0);
  // Ready later than free: idle gap allowed.
  EXPECT_DOUBLE_EQ(t.schedule(10.0, 1.0), 11.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(), 4.0);
}

TEST(Channel, TransferTimeFollowsRate) {
  Channel ch("c", 1e9);  // 1 GB/s
  EXPECT_DOUBLE_EQ(ch.transfer_duration(1e6), 1e-3);
  const double done1 = ch.transfer(0.0, 1e6);
  const double done2 = ch.transfer(0.0, 1e6);  // queued behind the first
  EXPECT_DOUBLE_EQ(done1, 1e-3);
  EXPECT_DOUBLE_EQ(done2, 2e-3);
}

TEST(Packet, BytesIncludeHeaderBeat) {
  Packet p;
  EXPECT_EQ(p.bytes(), 16u);  // a header beat even without payload
  p.payload = column(128);
  EXPECT_EQ(p.bytes(), 16u + 512u);
}

TEST(ForwardingTable, BindsAndRejectsDuplicates) {
  ForwardingTable table;
  table.bind(3, {1, 2});
  EXPECT_EQ(table.routes().at(3), (TileCoord{1, 2}));
  EXPECT_THROW(table.bind(3, {0, 0}), std::invalid_argument);
  EXPECT_EQ(table.routes().count(9), 0u);
}

class ArraySimTest : public ::testing::Test {
 protected:
  ArraySimTest() : geo_(8, 8), sim_(geo_, vck190()) {}
  ArrayGeometry geo_;
  AieArraySim sim_;
};

TEST_F(ArraySimTest, NeighbourMoveTransfersOwnership) {
  const int src = geo_.index_of({0, 3});
  const int dst = geo_.index_of({1, 3});
  ColumnToken token(kA);
  land(sim_, src, token, column(3, 42));
  sim_.neighbour_move(src, dst, token, 12);
  EXPECT_EQ(token.live_tile, dst);
  EXPECT_EQ(token.live_stamp, 42u);
  EXPECT_EQ(sim_.memory(src).used_bytes(), 0u);
  EXPECT_EQ(sim_.memory(dst).used_bytes(), 12u);
  EXPECT_EQ(sim_.stats().neighbour_transfers, 1u);
  EXPECT_EQ(sim_.utilization(1.0).total_neighbour_bytes(), 12u);
}

TEST_F(ArraySimTest, NeighbourMoveRejectsNonNeighbours) {
  // Adjacency is checked once, when a dataflow is compiled, with the
  // geometry's precondition.
  try {
    geo_.require_neighbour_access({0, 0}, {4, 4});
    FAIL() << "non-neighbours accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "tiles (0,0) -> (4,4) are not neighbour-accessible"),
              std::string::npos);
  }
  EXPECT_NO_THROW(geo_.require_neighbour_access({0, 3}, {1, 3}));
  EXPECT_THROW(geo_.require_neighbour_access({0, 0}, {0, 9}),
               std::invalid_argument);  // off the array
}

TEST_F(ArraySimTest, DmaMoveDuplicatesBuffer) {
  const int src = geo_.index_of({0, 0});
  const int dst = geo_.index_of({5, 5});
  ColumnToken token(kA);
  land(sim_, src, token, column(4, 11));
  const double done = sim_.dma_move(src, dst, token, 0.0, 16);
  EXPECT_GT(done, 0.0);
  // Shadow copy coexists with the original: the 2x memory cost, counted
  // by bytes, and the shadow carries the original's stamp.
  EXPECT_EQ(token.live_tile, src);
  EXPECT_EQ(token.shadow_tile, dst);
  EXPECT_EQ(token.shadow_stamp, 11u);
  EXPECT_EQ(sim_.memory(src).used_bytes(), 16u);
  EXPECT_EQ(sim_.memory(dst).used_bytes(), 16u);
  EXPECT_EQ(sim_.stats().dma_transfers, 1u);
  EXPECT_EQ(sim_.stats().dma_bytes, 16u);
}

TEST_F(ArraySimTest, DmaChargesSetupPlusTransfer) {
  // 1 KB over the DMA engine at 4 B/cycle @ 1.25 GHz plus the 300-cycle
  // buffer-descriptor/lock setup.
  ColumnToken token(kA);
  land(sim_, geo_.index_of({0, 0}), token, column(256));
  const double done = sim_.dma_move(geo_.index_of({0, 0}),
                                    geo_.index_of({3, 3}), token, 0.0, 1024);
  EXPECT_NEAR(done, sim_.dma_setup_seconds() + 1024.0 / (4.0 * 1.25e9), 1e-12);
  EXPECT_GT(sim_.dma_setup_seconds(), 0.0);
}

TEST_F(ArraySimTest, TimingOnlyDmaUsesByteHint) {
  // A token that never landed is moved by accounting and timing alone.
  ColumnToken token(kA);
  const double done = sim_.dma_move(geo_.index_of({0, 0}),
                                    geo_.index_of({3, 3}), token, 0.0, 2048);
  EXPECT_NEAR(done, sim_.dma_setup_seconds() + 2048.0 / (4.0 * 1.25e9), 1e-12);
  EXPECT_EQ(sim_.stats().dma_bytes, 2048u);
  EXPECT_EQ(token.shadow_tile, ColumnToken::kNoTile);
  EXPECT_EQ(sim_.memory(geo_.index_of({3, 3})).used_bytes(), 0u);
}

TEST_F(ArraySimTest, StreamPacketStoresPayloadAndSerializes) {
  const int tile = geo_.index_of({2, 2});
  Packet p;
  p.header = {0, 7, 0};
  p.payload = column(64, 5);
  ColumnToken token(BufferKey(0, 7));
  const double t1 = sim_.stream_packet(tile, p, 0.0, &token);
  const double t2 = sim_.stream_packet(tile, p, 0.0, nullptr);
  EXPECT_GT(t2, t1);  // same port: serialized
  EXPECT_NEAR(t2 - t1, (16.0 + 256.0) / (4.0 * 1.25e9), 1e-15);
  EXPECT_EQ(token.live_tile, tile);
  EXPECT_EQ(token.live_stamp, 5u);
  EXPECT_EQ(token.bytes, 256u);
  // The timing-only packet lands nothing.
  EXPECT_EQ(sim_.memory(tile).used_bytes(), 256u);
  EXPECT_EQ(sim_.stats().stream_packets, 2u);
  EXPECT_EQ(sim_.stats().stream_bytes, 2u * (16u + 256u));
}

TEST_F(ArraySimTest, KernelsAccumulateUtilization) {
  sim_.run_kernel(geo_.index_of({1, 1}), 0.0, 1e-6);
  sim_.run_kernel(geo_.index_of({1, 1}), 0.0, 1e-6);
  EXPECT_EQ(sim_.stats().kernel_invocations, 2u);
  // One active core busy 2 us over a 4 us makespan: 50%.
  EXPECT_NEAR(sim_.core_utilization(4e-6), 0.5, 1e-9);
}

TEST_F(ArraySimTest, ResetTimeClearsTimelinesButKeepsStats) {
  sim_.run_kernel(geo_.index_of({1, 1}), 0.0, 1e-6);
  sim_.reset_time();
  EXPECT_DOUBLE_EQ(sim_.core({1, 1}).next_free(), 0.0);
  EXPECT_EQ(sim_.stats().kernel_invocations, 1u);  // stats are cumulative
}

TEST_F(ArraySimTest, PeakMemoryAggregates) {
  ColumnToken a(kA);
  ColumnToken b(kB);
  land(sim_, geo_.index_of({0, 0}), a, column(100));
  land(sim_, geo_.index_of({3, 3}), b, column(50));
  sim_.take(geo_.index_of({0, 0}), a);
  EXPECT_EQ(sim_.peak_memory_bytes(), 600u);
}

}  // namespace
}  // namespace hsvd::versal
