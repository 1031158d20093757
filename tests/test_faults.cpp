// Tests for the fault injection subsystem (versal/faults.hpp): trigger
// semantics, per-resource counting, deterministic derived randomness, and
// the AieArraySim hooks that consult it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
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
  // Lengths 0..33 cover every split of a column into four-word lane
  // blocks, leftover words and an odd trailing float; 64 is a full
  // column of the default shapes. ramp() values are distinct, so every
  // swap below really changes the buffer.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 33; ++n) lengths.push_back(n);
  lengths.push_back(64);
  for (const std::size_t n : lengths) {
    std::vector<float> column = ramp(n);
    const std::uint64_t clean = fabric_checksum(column);
    EXPECT_EQ(clean, fabric_checksum(ramp(n))) << "n=" << n;  // deterministic
    int missed = 0;
    for (std::size_t word = 0; word < n; ++word) {
      for (int bit = 0; bit < 32; ++bit) {
        std::uint32_t bits;
        std::memcpy(&bits, &column[word], sizeof(bits));
        bits ^= 1u << bit;
        std::memcpy(&column[word], &bits, sizeof(bits));
        if (fabric_checksum(column) == clean) ++missed;
        bits ^= 1u << bit;
        std::memcpy(&column[word], &bits, sizeof(bits));
      }
    }
    EXPECT_EQ(missed, 0) << "n=" << n;
    // Adjacent floats trading places, and adjacent 64-bit words (float
    // pairs, which land in neighbouring lanes) trading places.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      std::swap(column[i], column[i + 1]);
      EXPECT_NE(fabric_checksum(column), clean) << "n=" << n << " swap " << i;
      std::swap(column[i], column[i + 1]);
    }
    const auto swap_words = [&column](std::size_t i) {
      const auto at = column.begin() + static_cast<std::ptrdiff_t>(i);
      std::swap_ranges(at, at + 2, at + 2);
    };
    for (std::size_t i = 0; i + 3 < n; i += 2) {
      swap_words(i);
      EXPECT_NE(fabric_checksum(column), clean)
          << "n=" << n << " word swap " << i / 2;
      swap_words(i);
    }
    // A truncated buffer (one float short) mismatches too.
    if (n > 0) {
      EXPECT_NE(fabric_checksum(std::span<const float>(column).first(n - 1)),
                clean)
          << "n=" << n;
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

  const std::vector<float> original = ramp(32);
  std::vector<float> first = original;
  FaultInjector a(plan);
  EXPECT_TRUE(a.corrupt_payload({4, 4}, first));

  // Exactly one bit differs from the original.
  int flipped_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    std::uint32_t x, y;
    std::memcpy(&x, &original[i], sizeof(x));
    std::memcpy(&y, &first[i], sizeof(y));
    flipped_bits += std::popcount(x ^ y);
  }
  EXPECT_EQ(flipped_bits, 1);

  // A fresh injector with the same plan corrupts the same bit.
  std::vector<float> second = original;
  FaultInjector b(plan);
  EXPECT_TRUE(b.corrupt_payload({4, 4}, second));
  EXPECT_EQ(first, second);

  // A different seed (almost surely) picks a different bit.
  plan.seed = 78;
  std::vector<float> third = original;
  FaultInjector c(plan);
  EXPECT_TRUE(c.corrupt_payload({4, 4}, third));
  EXPECT_NE(first, third);
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
  EXPECT_TRUE(std::isinf(array.run_kernel({3, 3}, 0.0, 1e-6)));
  // Healthy tiles are untouched.
  EXPECT_DOUBLE_EQ(array.run_kernel({3, 4}, 0.0, 1e-6), 1e-6);
  // The hung core's timeline stays empty: no phantom busy time.
  EXPECT_DOUBLE_EQ(array.core({3, 3}).busy_seconds(), 0.0);
}

TEST(FaultArray, DroppedDmaNeverLandsTheShadow) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kDmaDrop, {1, 1}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  const BufferKey c0(0, 0);
  array.memory({1, 1}).store(c0, ramp(16));
  const double done = array.dma_move({1, 1}, {5, 5}, c0, 0.0);
  EXPECT_GT(done, 0.0);  // the engine still burned its time
  EXPECT_FALSE(array.memory({5, 5}).contains(c0.shadow()));
  EXPECT_TRUE(array.memory({1, 1}).contains(c0));  // source intact
  // The next DMA from the same tile is clean (one-shot).
  const BufferKey c1(0, 1);
  array.memory({1, 1}).store(c1, ramp(16));
  array.dma_move({1, 1}, {5, 5}, c1, 0.0);
  EXPECT_TRUE(array.memory({5, 5}).contains(c1.shadow()));
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
  packet.payload = ramp(24);
  const std::uint64_t sent = buffer_checksum(packet.payload);
  array.stream_packet({2, 7}, packet, 0.0, /*store_payload=*/true);
  ASSERT_TRUE(array.memory({2, 7}).contains(BufferKey(2, 4)));
  const auto stored = array.memory({2, 7}).load(BufferKey(2, 4));
  EXPECT_NE(buffer_checksum(stored), sent);
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
  packet.payload = ramp(16);
  const double clean_done =
      clean_array.stream_packet({0, 2}, packet, 0.0, true);
  const double stalled_done =
      stalled_array.stream_packet({0, 2}, packet, 0.0, true);
  EXPECT_NEAR(stalled_done - clean_done, 5e-6, 1e-12);
  // Payload intact: stalls never corrupt.
  EXPECT_EQ(stalled_array.memory({0, 2}).load(BufferKey(0, 0)),
            clean_array.memory({0, 2}).load(BufferKey(0, 0)));
}

}  // namespace
}  // namespace hsvd::versal
