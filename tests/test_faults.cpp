// Tests for the fault injection subsystem (versal/faults.hpp): trigger
// semantics, per-resource counting, deterministic derived randomness, and
// the AieArraySim hooks that consult it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "versal/array.hpp"
#include "versal/faults.hpp"
#include "versal/resources.hpp"

namespace hsvd::versal {
namespace {

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i) + 0.5f;
  return v;
}

TEST(FaultChecksum, SensitiveToSingleBit) {
  std::vector<float> a = ramp(64);
  std::vector<float> b = a;
  const std::uint64_t ca = buffer_checksum(a);
  EXPECT_EQ(ca, buffer_checksum(b));  // deterministic
  std::uint32_t bits;
  std::memcpy(&bits, &b[17], sizeof(bits));
  bits ^= 1u << 13;
  std::memcpy(&b[17], &bits, sizeof(bits));
  EXPECT_NE(ca, buffer_checksum(b));
}

TEST(FaultChecksum, BufferChecksumKnownAnswer) {
  // FNV-1a keys the result cache and picks sampled attestations; pinning
  // one value keeps both digests from moving silently.
  EXPECT_EQ(buffer_checksum(ramp(64)), 0x7824937ef7629533ull);
  EXPECT_EQ(buffer_checksum({}), 1469598103934665603ull);
}

TEST(FaultChecksum, FabricChecksumDetectsEverySingleBitFlip) {
  // The Rx boundary compares a column's stamp with the one the sender
  // issued, so an SEU is caught exactly when its flip changes the stamp.
  // Every flip changes exactly one stamp bit, and its diagnostic still
  // names a bit of a word inside the column. Length 1 and 3 are odd
  // columns; 64 is a full column of the default shapes.
  for (const std::uint64_t words : {1u, 2u, 3u, 33u, 64u}) {
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
      FaultPlan plan;
      plan.seed = seed;
      plan.faults.push_back(
          {FaultKind::kMemoryBitFlip, {0, 0}, 0, 0, 0.0, 1.0});
      FaultInjector inj(plan);
      const Buffer sent{words * sizeof(float), 0x0123456789abcdefull ^ seed};
      Buffer staged = sent;
      ASSERT_TRUE(inj.corrupt_payload({0, 0}, staged));
      ASSERT_EQ(staged.bytes, sent.bytes);
      ASSERT_EQ(std::popcount(staged.stamp ^ sent.stamp), 1)
          << "words=" << words << " seed=" << seed;
      unsigned bit = 99;
      unsigned long long word = ~0ull;
      const std::string detail = inj.events().front().detail;
      ASSERT_EQ(std::sscanf(detail.c_str(), "bit %u of word %llu", &bit, &word),
                2)
          << detail;
      EXPECT_LT(bit, 32u) << detail;
      EXPECT_LT(word, words) << detail;
    }
  }
}

TEST(FaultKinds, NamesAndCorruptionClass) {
  EXPECT_STREQ(to_string(FaultKind::kTileHang), "tile-hang");
  EXPECT_STREQ(to_string(FaultKind::kPlioDegrade), "plio-degrade");
  EXPECT_TRUE(corrupts(FaultKind::kTileHang));
  EXPECT_TRUE(corrupts(FaultKind::kMemoryBitFlip));
  EXPECT_TRUE(corrupts(FaultKind::kStreamDrop));
  EXPECT_TRUE(corrupts(FaultKind::kDmaDrop));
  EXPECT_FALSE(corrupts(FaultKind::kStreamStall));
  EXPECT_FALSE(corrupts(FaultKind::kDmaStall));
  EXPECT_FALSE(corrupts(FaultKind::kPlioDegrade));
}

TEST(FaultInjector, HangFiresAtOrdinalAndIsSticky) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kTileHang, {2, 3}, 0, 2, 0.0, 1.0});
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.hang_core({2, 3}));  // op 0
  EXPECT_FALSE(inj.hang_core({2, 3}));  // op 1
  EXPECT_TRUE(inj.hang_core({2, 3}));   // op 2: triggers
  EXPECT_TRUE(inj.hang_core({2, 3}));   // sticky ever after
  // Other tiles have their own counters and never hang.
  EXPECT_FALSE(inj.hang_core({2, 4}));
  EXPECT_EQ(inj.event_count(), 1u);
}

TEST(FaultInjector, StreamDropFiresExactlyOnceAtItsOrdinal) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kStreamDrop, {1, 1}, 0, 1, 0.0, 1.0});
  FaultInjector inj(plan);
  bool drop = false;
  EXPECT_EQ(inj.on_stream({1, 1}, &drop), 0.0);
  EXPECT_FALSE(drop);                    // op 0: not yet
  EXPECT_EQ(inj.on_stream({1, 1}, &drop), 0.0);
  EXPECT_TRUE(drop);                     // op 1: fires
  drop = false;
  EXPECT_EQ(inj.on_stream({1, 1}, &drop), 0.0);
  EXPECT_FALSE(drop);                    // one-shot: op 2 is clean
}

TEST(FaultInjector, StallDelaysWithoutDropping) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kDmaStall, {0, 5}, 0, 0, 3e-6, 1.0});
  FaultInjector inj(plan);
  bool drop = false;
  EXPECT_DOUBLE_EQ(inj.on_dma({0, 5}, &drop), 3e-6);
  EXPECT_FALSE(drop);
  EXPECT_DOUBLE_EQ(inj.on_dma({0, 5}, &drop), 0.0);  // one-shot
}

TEST(FaultInjector, BitFlipIsSingleBitAndSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 77;
  plan.faults.push_back({FaultKind::kMemoryBitFlip, {4, 4}, 0, 0, 0.0, 1.0});

  const Buffer original{32 * sizeof(float), 0x5eed};
  Buffer first = original;
  FaultInjector a(plan);
  EXPECT_TRUE(a.corrupt_payload({4, 4}, first));

  // Exactly one stamp bit differs from the original; the size is intact.
  EXPECT_EQ(std::popcount(first.stamp ^ original.stamp), 1);
  EXPECT_EQ(first.bytes, original.bytes);

  // A fresh injector with the same plan corrupts the same bit.
  Buffer second = original;
  FaultInjector b(plan);
  EXPECT_TRUE(b.corrupt_payload({4, 4}, second));
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.events().front().detail, b.events().front().detail);

  // A different seed (almost surely) picks a different bit.
  plan.seed = 78;
  Buffer third = original;
  FaultInjector c(plan);
  EXPECT_TRUE(c.corrupt_payload({4, 4}, third));
  EXPECT_NE(first, third);

  // An empty buffer has no bit to flip: the op is counted, nothing fires.
  plan.seed = 77;
  FaultInjector d(plan);
  Buffer empty{0, 0x5eed};
  EXPECT_FALSE(d.corrupt_payload({4, 4}, empty));
  EXPECT_EQ(empty.stamp, 0x5eedu);
  EXPECT_EQ(d.event_count(), 0u);
}

TEST(FaultInjector, ResetRearms) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kStreamDrop, {0, 0}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  bool drop = false;
  inj.on_stream({0, 0}, &drop);
  EXPECT_TRUE(drop);
  EXPECT_EQ(inj.event_count(), 1u);
  inj.reset();
  EXPECT_EQ(inj.event_count(), 0u);
  drop = false;
  inj.on_stream({0, 0}, &drop);
  EXPECT_TRUE(drop);  // counter and armed state both rewound
}

TEST(FaultInjector, PlioScaleCombinesPerSlot) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kPlioDegrade, {-1, -1}, 1, 0, 0.0, 0.5});
  plan.faults.push_back({FaultKind::kPlioDegrade, {-1, -1}, 1, 0, 0.0, 0.5});
  FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.plio_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(inj.plio_scale(1), 0.25);
}

// --- AieArraySim hook integration -------------------------------------

TEST(FaultArray, HungCoreReportsUnreachableCompletion) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kTileHang, {3, 3}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  const ArrayGeometry& geo = array.geometry();
  EXPECT_TRUE(std::isinf(array.run_kernel(geo.index_of({3, 3}), 0.0, 1e-6)));
  // Healthy tiles are untouched.
  EXPECT_DOUBLE_EQ(array.run_kernel(geo.index_of({3, 4}), 0.0, 1e-6), 1e-6);
  // The hung core's timeline stays empty: no phantom busy time.
  EXPECT_DOUBLE_EQ(array.core({3, 3}).busy_seconds(), 0.0);
}

TEST(FaultArray, DroppedDmaNeverLandsTheShadow) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kDmaDrop, {1, 1}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  const int src = array.geometry().index_of({1, 1});
  const int dst = array.geometry().index_of({5, 5});
  // Lands `stamp` on the source tile as `token`'s live copy.
  const auto land = [&](ColumnToken& token, std::uint64_t stamp) {
    Packet packet;
    packet.payload = Buffer{64, stamp};
    array.stream_packet(src, packet, 0.0, &token);
  };
  ColumnToken c0(BufferKey(0, 0));
  land(c0, 1);
  const double done = array.dma_move(src, dst, c0, 0.0, 64);
  EXPECT_GT(done, 0.0);  // the engine still burned its time
  EXPECT_EQ(c0.shadow_tile, ColumnToken::kNoTile);
  EXPECT_EQ(array.memory(dst).used_bytes(), 0u);
  EXPECT_FALSE(array.resolve_dma(src, dst, c0));
  EXPECT_EQ(c0.live_tile, src);  // source intact
  // The next DMA from the same tile is clean (one-shot).
  ColumnToken c1(BufferKey(0, 1));
  land(c1, 2);
  array.dma_move(src, dst, c1, 0.0, 64);
  EXPECT_EQ(c1.shadow_tile, dst);
  EXPECT_EQ(c1.shadow_stamp, 2u);
  EXPECT_EQ(array.memory(dst).used_bytes(), 64u);
}

TEST(FaultArray, StreamBitFlipIsCaughtByChecksum) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.seed = 9;
  plan.faults.push_back({FaultKind::kMemoryBitFlip, {2, 7}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  Packet packet;
  packet.header = {0, 4, 2};
  packet.payload = Buffer{24 * sizeof(float), /*stamp=*/1234};
  const int tile = array.geometry().index_of({2, 7});
  ColumnToken token(BufferKey(2, 4));
  array.stream_packet(tile, packet, 0.0, &token);
  ASSERT_EQ(token.live_tile, tile);
  const Buffer stored = array.take(tile, token);
  EXPECT_NE(stored.stamp, packet.payload.stamp);
  EXPECT_EQ(stored.bytes, packet.payload.bytes);
  ASSERT_EQ(inj.events().size(), 1u);
  EXPECT_EQ(inj.events().front().kind, FaultKind::kMemoryBitFlip);
}

TEST(FaultArray, StallStretchesTheTimelineOnly) {
  AieArraySim clean_array(ArrayGeometry(8, 50), vck190());
  AieArraySim stalled_array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kStreamStall, {0, 2}, 0, 0, 5e-6, 1.0});
  FaultInjector inj(plan);
  stalled_array.attach_faults(&inj);
  Packet packet;
  packet.header = {0, 0, 0};
  packet.payload = Buffer{16 * sizeof(float), /*stamp=*/77};
  const int tile = clean_array.geometry().index_of({0, 2});
  ColumnToken clean(BufferKey(0, 0));
  ColumnToken stalled(BufferKey(0, 0));
  const double clean_done =
      clean_array.stream_packet(tile, packet, 0.0, &clean);
  const double stalled_done =
      stalled_array.stream_packet(tile, packet, 0.0, &stalled);
  EXPECT_NEAR(stalled_done - clean_done, 5e-6, 1e-12);
  // Payload intact: stalls never corrupt.
  EXPECT_EQ(stalled_array.take(tile, stalled), clean_array.take(tile, clean));
}

}  // namespace
}  // namespace hsvd::versal
