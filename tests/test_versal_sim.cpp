// Tests for the Versal simulator substrate: tile memory accounting,
// timelines/channels, packets, and the array-level transfer mechanisms.
#include <gtest/gtest.h>

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

TEST(TileMemory, StoresAndLoads) {
  TileMemory mem(1024);
  mem.store(kA, column(2, 7));
  EXPECT_TRUE(mem.contains(kA));
  EXPECT_EQ(mem.load(kA), column(2, 7));
  EXPECT_EQ(mem.used_bytes(), 8u);
}

TEST(TileMemory, OverflowThrows) {
  TileMemory mem(16);  // room for 4 floats
  mem.store(kA, column(4, 1));
  EXPECT_THROW(mem.store(kB, column(1)), std::runtime_error);
  // Replacing an existing buffer of equal size is fine.
  mem.store(kA, column(4, 9));
  EXPECT_EQ(mem.load(kA).stamp, 9u);
}

TEST(TileMemory, ReplacingABufferReaccountsItsBytes) {
  TileMemory mem(32);  // room for 8 floats
  mem.store(kA, column(4));
  mem.store(kA, column(2));  // shrink in place
  EXPECT_EQ(mem.used_bytes(), 8u);
  mem.store(kB, column(6));  // fits only because kA shrank
  EXPECT_EQ(mem.used_bytes(), 32u);
  // Growing kA past the budget throws and leaves the accounting alone.
  EXPECT_THROW(mem.store(kA, column(3)), std::runtime_error);
  EXPECT_EQ(mem.used_bytes(), 32u);
  EXPECT_EQ(mem.load(kA).bytes, 8u);
  mem.store(kB, column(1));  // shrinking kB frees room for kA to grow
  mem.store(kA, column(7));
  EXPECT_EQ(mem.used_bytes(), 32u);
  EXPECT_EQ(mem.peak_bytes(), 32u);
}

TEST(TileMemory, EraseReleasesCapacity) {
  TileMemory mem(16);
  mem.store(kA, column(4));
  mem.erase(kA);
  EXPECT_EQ(mem.used_bytes(), 0u);
  EXPECT_EQ(mem.peak_bytes(), 16u);  // peak is sticky
  mem.store(kB, column(4));          // fits again
  EXPECT_TRUE(mem.contains(kB));
}

TEST(TileMemory, MissingBufferThrows) {
  TileMemory mem(64);
  const BufferKey ghost{9, 9};
  EXPECT_THROW(mem.load(ghost), std::invalid_argument);
  EXPECT_THROW(mem.take(ghost), std::invalid_argument);
  mem.erase(ghost);  // erase of absent key is a no-op
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(TileMemory, TakeMovesTheBufferOut) {
  TileMemory mem(64);
  mem.store(kA, column(3, 5));
  mem.store(kB, column(1, 6));
  EXPECT_EQ(mem.take(kA), column(3, 5));
  EXPECT_FALSE(mem.contains(kA));
  EXPECT_EQ(mem.used_bytes(), 4u);
  EXPECT_THROW(mem.take(kA), std::invalid_argument);  // taken once only
  EXPECT_EQ(mem.load(kB).stamp, 6u);
}

TEST(TileMemory, PurgingTaskOneKeepsTaskTwelve) {
  // Task 1 must not claim task 12's buffers (the ".t1" vs ".t12" edge of
  // a string key), nor buffers whose column, not task, is 1.
  TileMemory mem(1024);
  mem.store(BufferKey(1, 3), column(1));
  mem.store(BufferKey(1, 3).shadow(), column(1));
  mem.store(BufferKey(12, 1), column(2));
  mem.store(BufferKey(12, 1).shadow(), column(2));
  mem.store(BufferKey(2, 11), column(3));
  mem.store(BufferKey(1, 12), column(1));
  const std::size_t removed =
      mem.erase_if([](BufferKey key) { return key.task() == 1; });
  EXPECT_EQ(removed, 3u);
  EXPECT_FALSE(mem.contains(BufferKey(1, 3)));
  EXPECT_FALSE(mem.contains(BufferKey(1, 3).shadow()));
  EXPECT_FALSE(mem.contains(BufferKey(1, 12)));
  EXPECT_TRUE(mem.contains(BufferKey(12, 1)));
  EXPECT_TRUE(mem.contains(BufferKey(12, 1).shadow()));
  EXPECT_TRUE(mem.contains(BufferKey(2, 11)));
  EXPECT_EQ(mem.used_bytes(), 7u * sizeof(float));
  EXPECT_EQ(mem.load(BufferKey(2, 11)).bytes, 3u * sizeof(float));
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
  // Both copies of one column coexist in a tile (the DMA 2x cost).
  TileMemory mem(64);
  mem.store(live, column(2, 1));
  mem.store(shadow, column(2, 3));
  EXPECT_EQ(mem.used_bytes(), 16u);
  EXPECT_EQ(mem.load(live).stamp, 1u);
  EXPECT_EQ(mem.load(shadow).stamp, 3u);
  mem.erase(shadow);
  EXPECT_TRUE(mem.contains(live));
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
  EXPECT_TRUE(table.has(3));
  EXPECT_EQ(table.route(3), (TileCoord{1, 2}));
  EXPECT_THROW(table.bind(3, {0, 0}), std::invalid_argument);
  EXPECT_THROW(table.route(9), std::invalid_argument);
}

class ArraySimTest : public ::testing::Test {
 protected:
  ArraySimTest() : geo_(8, 8), sim_(geo_, vck190()) {}
  ArrayGeometry geo_;
  AieArraySim sim_;
};

TEST_F(ArraySimTest, NeighbourMoveTransfersOwnership) {
  sim_.memory({0, 3}).store(kA, column(3, 42));
  sim_.neighbour_move({0, 3}, {1, 3}, kA);
  EXPECT_FALSE(sim_.memory({0, 3}).contains(kA));
  EXPECT_EQ(sim_.memory({1, 3}).load(kA), column(3, 42));
  EXPECT_EQ(sim_.stats().neighbour_transfers, 1u);
  EXPECT_EQ(sim_.utilization(1.0).total_neighbour_bytes(), 12u);
}

TEST_F(ArraySimTest, NeighbourMoveRejectsNonNeighbours) {
  EXPECT_THROW(sim_.neighbour_move({0, 0}, {4, 4}, kA), std::invalid_argument);
}

TEST_F(ArraySimTest, DmaMoveDuplicatesBuffer) {
  sim_.memory({0, 0}).store(kA, column(4, 11));
  const double done = sim_.dma_move({0, 0}, {5, 5}, kA, 0.0);
  EXPECT_GT(done, 0.0);
  // Shadow copy coexists with the original: the 2x memory cost, counted
  // by bytes, and the shadow carries the original's stamp.
  EXPECT_TRUE(sim_.memory({0, 0}).contains(kA));
  EXPECT_EQ(sim_.memory({5, 5}).load(kA.shadow()), column(4, 11));
  EXPECT_EQ(sim_.memory({0, 0}).used_bytes(), 16u);
  EXPECT_EQ(sim_.memory({5, 5}).used_bytes(), 16u);
  EXPECT_EQ(sim_.stats().dma_transfers, 1u);
  EXPECT_EQ(sim_.stats().dma_bytes, 16u);
}

TEST_F(ArraySimTest, DmaChargesSetupPlusTransfer) {
  // 1 KB over the DMA engine at 4 B/cycle @ 1.25 GHz plus the 300-cycle
  // buffer-descriptor/lock setup.
  sim_.memory({0, 0}).store(kA, column(256));
  const double done = sim_.dma_move({0, 0}, {3, 3}, kA, 0.0);
  EXPECT_NEAR(done, sim_.dma_setup_seconds() + 1024.0 / (4.0 * 1.25e9), 1e-12);
  EXPECT_GT(sim_.dma_setup_seconds(), 0.0);
}

TEST_F(ArraySimTest, TimingOnlyDmaUsesByteHint) {
  const double done = sim_.dma_move({0, 0}, {3, 3}, kA, 0.0, 2048);
  EXPECT_NEAR(done, sim_.dma_setup_seconds() + 2048.0 / (4.0 * 1.25e9), 1e-12);
  EXPECT_EQ(sim_.stats().dma_bytes, 2048u);
}

TEST_F(ArraySimTest, StreamPacketStoresPayloadAndSerializes) {
  Packet p;
  p.header = {0, 7, 0};
  p.payload = column(64, 5);
  const double t1 = sim_.stream_packet({2, 2}, p, 0.0, true);
  const double t2 = sim_.stream_packet({2, 2}, p, 0.0, false);
  EXPECT_GT(t2, t1);  // same port: serialized
  EXPECT_NEAR(t2 - t1, (16.0 + 256.0) / (4.0 * 1.25e9), 1e-15);
  EXPECT_EQ(sim_.memory({2, 2}).load(BufferKey(0, 7)), column(64, 5));
  EXPECT_EQ(sim_.stats().stream_packets, 2u);
  EXPECT_EQ(sim_.stats().stream_bytes, 2u * (16u + 256u));
}

TEST_F(ArraySimTest, KernelsAccumulateUtilization) {
  sim_.run_kernel({1, 1}, 0.0, 1e-6);
  sim_.run_kernel({1, 1}, 0.0, 1e-6);
  EXPECT_EQ(sim_.stats().kernel_invocations, 2u);
  // One active core busy 2 us over a 4 us makespan: 50%.
  EXPECT_NEAR(sim_.core_utilization(4e-6), 0.5, 1e-9);
}

TEST_F(ArraySimTest, ResetTimeClearsTimelinesButKeepsStats) {
  sim_.run_kernel({1, 1}, 0.0, 1e-6);
  sim_.reset_time();
  EXPECT_DOUBLE_EQ(sim_.core({1, 1}).next_free(), 0.0);
  EXPECT_EQ(sim_.stats().kernel_invocations, 1u);  // stats are cumulative
}

TEST_F(ArraySimTest, PeakMemoryAggregates) {
  sim_.memory({0, 0}).store(kA, column(100));
  sim_.memory({3, 3}).store(kB, column(50));
  sim_.memory({0, 0}).erase(kA);
  EXPECT_EQ(sim_.peak_memory_bytes(), 600u);
}

}  // namespace
}  // namespace hsvd::versal
