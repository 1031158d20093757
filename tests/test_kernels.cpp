// Tests for the functional AIE kernels and the kernel timing model.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "accel/kernels.hpp"
#include "common/rng.hpp"
#include "linalg/generators.hpp"
#include "linalg/ops.hpp"
#include "perfmodel/aie_timing.hpp"

namespace hsvd::accel {
namespace {

// Runs the layer kernel on a one-pair layer: columns 0 and 1 of `a`,
// with their squared norms as the Gram cache.
OrthKernelResult orth_one(linalg::MatrixF& a) {
  float aii = linalg::dot<float>(a.col(0), a.col(0));
  float ajj = linalg::dot<float>(a.col(1), a.col(1));
  const OrthPair pair{a.col(0).data(), a.col(1).data(), &aii, &ajj};
  OrthKernelResult r;
  orth_layer(std::span<const OrthPair>(&pair, 1), a.rows(),
             std::span<OrthKernelResult>(&r, 1));
  return r;
}

TEST(OrthKernel, OrthogonalizesPair) {
  Rng rng(42);
  auto a = linalg::random_gaussian(64, 2, rng).cast<float>();
  auto r = orth_one(a);
  EXPECT_TRUE(r.rotated);
  EXPECT_GT(r.coherence, 0.0);
  EXPECT_NEAR(linalg::dot<float>(a.col(0), a.col(1)), 0.0f, 1e-4f);
}

TEST(OrthKernel, IdentityOnOrthogonalPair) {
  linalg::MatrixF a(4, 2);
  a(0, 0) = 1.0f;
  a(1, 1) = 1.0f;
  auto r = orth_one(a);
  EXPECT_FALSE(r.rotated);
  EXPECT_EQ(r.coherence, 0.0);
}

TEST(OrthKernel, ZeroColumnIsFixedPoint) {
  linalg::MatrixF a(4, 2);
  a(0, 0) = 3.0f;
  auto r = orth_one(a);
  EXPECT_FALSE(r.rotated);
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
}

TEST(OrthKernel, LayerMatchesPairsRunOneByOne) {
  // A layer's pairs touch disjoint columns, so running them as one layer
  // must give the same bits -- columns, cached norms, coherence -- as one
  // one-pair layer after another, for every pair count up to P_eng = 11.
  Rng rng(77);
  for (std::size_t k = 1; k <= 11; ++k) {
    const auto start = linalg::random_gaussian(37, 2 * k, rng).cast<float>();
    auto layer = start;
    auto serial = start;
    std::vector<float> layer_norms(2 * k), serial_norms(2 * k);
    for (std::size_t c = 0; c < 2 * k; ++c) {
      layer_norms[c] = serial_norms[c] =
          linalg::dot<float>(start.col(c), start.col(c));
    }
    // Pair p rotates columns (2k-1-p, p): not adjacent in memory.
    std::vector<OrthPair> pairs;
    for (std::size_t p = 0; p < k; ++p) {
      const std::size_t l = 2 * k - 1 - p;
      pairs.push_back({layer.col(l).data(), layer.col(p).data(),
                       &layer_norms[l], &layer_norms[p]});
    }
    std::vector<OrthKernelResult> results(k);
    orth_layer(pairs, start.rows(), results);
    for (std::size_t p = 0; p < k; ++p) {
      const std::size_t l = 2 * k - 1 - p;
      const OrthPair one{serial.col(l).data(), serial.col(p).data(),
                         &serial_norms[l], &serial_norms[p]};
      OrthKernelResult r;
      orth_layer(std::span<const OrthPair>(&one, 1), start.rows(),
                 std::span<OrthKernelResult>(&r, 1));
      EXPECT_EQ(r.coherence, results[p].coherence) << "k=" << k << " p=" << p;
      EXPECT_EQ(r.rotated, results[p].rotated);
    }
    EXPECT_EQ(0, std::memcmp(layer.data().data(), serial.data().data(),
                             layer.data().size_bytes()))
        << "k=" << k;
    EXPECT_EQ(0, std::memcmp(layer_norms.data(), serial_norms.data(),
                             layer_norms.size() * sizeof(float)))
        << "k=" << k;
  }
}

TEST(NormKernel, NormalizesColumn) {
  linalg::MatrixF a(2, 1);
  a(0, 0) = 3.0f;
  a(1, 0) = 4.0f;
  auto r = norm_kernel(a.col(0));
  EXPECT_FLOAT_EQ(r.sigma, 5.0f);
  EXPECT_FLOAT_EQ(a(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(a(1, 0), 0.8f);
}

TEST(NormKernel, ZeroColumnStaysZero) {
  linalg::MatrixF a(3, 1);
  auto r = norm_kernel(a.col(0));
  EXPECT_FLOAT_EQ(r.sigma, 0.0f);
  EXPECT_FLOAT_EQ(a(2, 0), 0.0f);
}

TEST(KernelTiming, ScalesLinearlyWithColumnLength) {
  perf::AieKernelModel model;
  const double t128 = model.orth_seconds(128);
  const double t256 = model.orth_seconds(256);
  const double t512 = model.orth_seconds(512);
  // Affine in m: equal second differences.
  EXPECT_NEAR(t512 - t256, 2 * (t256 - t128), 1e-15);
  EXPECT_GT(t128, model.orth_overhead_cycles / model.clock_hz);
}

TEST(KernelTiming, NormIsCheaperThanOrth) {
  perf::AieKernelModel model;
  for (std::size_t m : {64u, 128u, 1024u}) {
    EXPECT_LT(model.norm_seconds(m), model.orth_seconds(m));
  }
}

TEST(PlioTiming, BandwidthCapsApply) {
  perf::PlioModel plio;
  versal::DeviceResources dev = versal::vck190();
  // At modest PL frequency the PL side is the bottleneck: 16 B/cycle.
  const double t = plio.tx_seconds(16.0 * 208.3e6, 208.3e6, dev);
  EXPECT_NEAR(t, 1.0, 1e-9);
  // At absurd PL frequency the physical 32 GB/s cap binds.
  const double capped = plio.tx_seconds(32e9, 10e9, dev);
  EXPECT_NEAR(capped, 1.0, 1e-9);
  // The AIE->PL direction has the lower 24 GB/s cap.
  EXPECT_GT(plio.rx_seconds(32e9, 10e9, dev), capped);
}

}  // namespace
}  // namespace hsvd::accel
