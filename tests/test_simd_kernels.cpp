// Scalar-vs-vector parity for the runtime-dispatched fp32 hot-path
// kernels (common/simd.hpp): dot, dot_pairs, apply_rotation.
//
// The dispatch contract is *bit* identity, not tolerance: every target
// implements the same 8-lane accumulator model -- same per-lane
// accumulation order, same pairwise reduction tree, same scalar tail, no
// FMA contraction, no DAZ/FTZ. These tests pin that contract across odd
// lengths and remainder tails (every n mod 8), denormal inputs, and
// +-Inf / NaN propagation, comparing raw float bit patterns throughout.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace hsvd {
namespace {

std::uint32_t bits(float v) {
  std::uint32_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Independent re-implementation of the documented 8-lane model, used as
// the ground truth the scalar kernels are checked against (the AVX2
// kernels are then checked against the scalar ones, closing the chain).
constexpr std::size_t kLanes = 8;

float model_reduce(float lane[kLanes]) {
  for (std::size_t step = 1; step < kLanes; step *= 2) {
    for (std::size_t l = 0; l + step < kLanes; l += 2 * step) {
      lane[l] += lane[l + step];
    }
  }
  return lane[0];
}

float model_dot(const std::vector<float>& a, const std::vector<float>& b) {
  float lane[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= a.size(); i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) lane[l] += a[i + l] * b[i + l];
  }
  float s = 0.0f;
  for (; i < a.size(); ++i) s += a[i] * b[i];
  return model_reduce(lane) + s;
}

// Deterministic inputs mixing magnitudes from denormal (~1e-41) to 1e6,
// signs, and exact zeros -- a worst case for summation-order identity.
std::vector<float> make_input(std::size_t n, std::uint64_t salt) {
  Rng rng(0x51D0 + salt);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, -41.0 + 47.0 * rng.uniform());
    const double sign = rng.below(2) == 0 ? 1.0 : -1.0;
    v[i] = i % 13 == 7 ? 0.0f : static_cast<float>(sign * mag);
  }
  return v;
}

// Lengths covering every tail residue (n mod 8 in 0..7), the empty
// vector, sub-lane-width vectors, and a few larger sizes.
const std::vector<std::size_t>& lengths() {
  static const std::vector<std::size_t> all = [] {
    std::vector<std::size_t> n;
    for (std::size_t i = 0; i <= 70; ++i) n.push_back(i);
    n.push_back(128);
    n.push_back(509);  // prime: 63 full lanes + 5-element tail
    n.push_back(512);
    return n;
  }();
  return all;
}

bool have_avx2() {
  return simd::avx2_compiled() && simd::avx2_supported();
}

// ---- Scalar kernels vs the documented model ------------------------------

TEST(SimdKernels, ScalarDotMatchesLaneModelBitwise) {
  const simd::Kernels& k = simd::scalar_kernels();
  ASSERT_EQ(k.lane_width, 8);
  for (std::size_t n : lengths()) {
    const auto a = make_input(n, 1);
    const auto b = make_input(n, 2);
    EXPECT_EQ(bits(k.dot(a.data(), b.data(), n)), bits(model_dot(a, b)))
        << "n=" << n;
  }
}

TEST(SimdKernels, ScalarRotationMatchesElementwiseReference) {
  const simd::Kernels& k = simd::scalar_kernels();
  const float c = 0.8f, s = -0.6f;
  for (std::size_t n : lengths()) {
    auto x = make_input(n, 5);
    auto y = make_input(n, 6);
    std::vector<float> rx(n), ry(n);
    for (std::size_t i = 0; i < n; ++i) {
      rx[i] = c * x[i] - s * y[i];
      ry[i] = s * x[i] + c * y[i];
    }
    k.apply_rotation(x.data(), y.data(), n, c, s);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(x[i]), bits(rx[i])) << "n=" << n << " i=" << i;
      ASSERT_EQ(bits(y[i]), bits(ry[i])) << "n=" << n << " i=" << i;
    }
  }
}

// ---- AVX2 vs scalar, bit for bit -----------------------------------------

TEST(SimdKernels, Avx2DotBitIdenticalToScalar) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  const simd::Kernels& sc = simd::scalar_kernels();
  const simd::Kernels& vx = simd::avx2_kernels();
  ASSERT_EQ(vx.lane_width, sc.lane_width);
  for (std::size_t n : lengths()) {
    const auto a = make_input(n, 7);
    const auto b = make_input(n, 8);
    EXPECT_EQ(bits(vx.dot(a.data(), b.data(), n)),
              bits(sc.dot(a.data(), b.data(), n)))
        << "n=" << n;
  }
}

TEST(SimdKernels, Avx2RotationBitIdenticalToScalar) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  const float c = 0.28735631f, s = 0.95782629f;
  for (std::size_t n : lengths()) {
    auto xs = make_input(n, 11);
    auto ys = make_input(n, 12);
    auto xv = xs;
    auto yv = ys;
    simd::scalar_kernels().apply_rotation(xs.data(), ys.data(), n, c, s);
    simd::avx2_kernels().apply_rotation(xv.data(), yv.data(), n, c, s);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(xv[i]), bits(xs[i])) << "n=" << n << " i=" << i;
      ASSERT_EQ(bits(yv[i]), bits(ys[i])) << "n=" << n << " i=" << i;
    }
  }
}

// ---- Denormals and non-finite guard behavior -----------------------------

TEST(SimdKernels, DenormalProductsStayBitIdentical) {
  // Products of ~1e-30 operands land deep in the denormal range; the
  // contract forbids DAZ/FTZ, so both paths must keep the exact
  // gradually-underflowed bits.
  const std::size_t n = 37;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 1e-30f * static_cast<float>(i + 1);
    b[i] = (i % 2 == 0 ? 1e-12f : -1e-12f) * static_cast<float>(i + 3);
  }
  const float sc = simd::scalar_kernels().dot(a.data(), b.data(), n);
  EXPECT_NE(sc, 0.0f);  // a DAZ/FTZ path would flush this to zero
  EXPECT_GT(std::fabs(sc), 0.0f);
  EXPECT_LT(std::fabs(sc), std::numeric_limits<float>::min());
  if (have_avx2()) {
    EXPECT_EQ(bits(simd::avx2_kernels().dot(a.data(), b.data(), n)),
              bits(sc));
  }
}

TEST(SimdKernels, InfAndNanPropagateIdentically) {
  // Poison a single element -- in a full lane block and in the tail --
  // with +-Inf or NaN; both paths must produce the same bit pattern
  // (Inf, -Inf, or a NaN with identical payload propagation).
  const std::size_t n = 21;  // 2 lane blocks + 5-element tail
  const float poisons[] = {std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN()};
  for (float poison : poisons) {
    for (std::size_t at : {std::size_t{3}, std::size_t{18}}) {
      auto a = make_input(n, 13);
      const auto b = make_input(n, 14);
      a[at] = poison;
      const float sc = simd::scalar_kernels().dot(a.data(), b.data(), n);
      EXPECT_FALSE(std::isfinite(sc))
          << "poison=" << poison << " at=" << at;
      if (have_avx2()) {
        const float vx = simd::avx2_kernels().dot(a.data(), b.data(), n);
        EXPECT_EQ(bits(vx), bits(sc)) << "poison=" << poison << " at=" << at;
      }
      // The engine's guard: a poisoned column makes its Gram entries
      // non-finite on every path, which the accelerator's detection
      // points catch.
      const float* left[] = {a.data(), a.data()};
      const float* right[] = {a.data(), b.data()};
      float gram[2];
      simd::active().dot_pairs(left, right, 2, n, gram);
      EXPECT_FALSE(std::isfinite(gram[0]));
      EXPECT_FALSE(std::isfinite(gram[1]));
    }
  }
}

// ---- dot_pairs: one layer's dots at once ---------------------------------

// Pair counts 1..9 cover one interleaved group of four, a remainder of
// one to three, and two full groups plus a remainder; lengths cover every
// tail residue up to 33 and the accelerator's n = 64 and 256.
const std::vector<std::size_t>& pair_lengths() {
  static const std::vector<std::size_t> all = [] {
    std::vector<std::size_t> n;
    for (std::size_t i = 0; i <= 33; ++i) n.push_back(i);
    n.push_back(64);
    n.push_back(256);
    return n;
  }();
  return all;
}

// `count` pairs over distinct columns, with pair p's left column poisoned
// per `poison` (0: none, 1: +Inf, 2: NaN, 3: -Inf at position p % n).
struct PairInputs {
  std::vector<std::vector<float>> cols;
  std::vector<const float*> left;
  std::vector<const float*> right;
};

PairInputs make_pairs(std::size_t count, std::size_t n, int poison) {
  PairInputs in;
  for (std::size_t c = 0; c < 2 * count; ++c) {
    in.cols.push_back(make_input(n, 100 + 2 * count + c));
  }
  if (poison != 0 && n > 0) {
    const float values[] = {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::infinity()};
    for (std::size_t p = 0; p < count; ++p) {
      in.cols[2 * p][p % n] = values[poison - 1];
    }
  }
  for (std::size_t p = 0; p < count; ++p) {
    in.left.push_back(in.cols[2 * p].data());
    in.right.push_back(in.cols[2 * p + 1].data());
  }
  return in;
}

TEST(SimdKernels, ScalarDotPairsMatchesPerPairDotBitwise) {
  const simd::Kernels& k = simd::scalar_kernels();
  for (int poison = 0; poison <= 3; ++poison) {
    for (std::size_t count = 1; count <= 9; ++count) {
      for (std::size_t n : pair_lengths()) {
        const PairInputs in = make_pairs(count, n, poison);
        std::vector<float> out(count);
        k.dot_pairs(in.left.data(), in.right.data(), count, n, out.data());
        for (std::size_t p = 0; p < count; ++p) {
          ASSERT_EQ(bits(out[p]), bits(k.dot(in.left[p], in.right[p], n)))
              << "poison=" << poison << " count=" << count << " n=" << n
              << " p=" << p;
        }
      }
    }
  }
}

TEST(SimdKernels, Avx2DotPairsBitIdenticalToScalar) {
  if (!have_avx2()) GTEST_SKIP() << "AVX2 unavailable on this host/build";
  const simd::Kernels& sc = simd::scalar_kernels();
  const simd::Kernels& vx = simd::avx2_kernels();
  for (int poison = 0; poison <= 3; ++poison) {
    for (std::size_t count = 1; count <= 9; ++count) {
      for (std::size_t n : pair_lengths()) {
        const PairInputs in = make_pairs(count, n, poison);
        std::vector<float> a(count), b(count);
        sc.dot_pairs(in.left.data(), in.right.data(), count, n, a.data());
        vx.dot_pairs(in.left.data(), in.right.data(), count, n, b.data());
        for (std::size_t p = 0; p < count; ++p) {
          ASSERT_EQ(bits(b[p]), bits(a[p]))
              << "poison=" << poison << " count=" << count << " n=" << n
              << " p=" << p;
          // ... and equal to the AVX2 single dot of the same pair.
          ASSERT_EQ(bits(b[p]), bits(vx.dot(in.left[p], in.right[p], n)));
        }
      }
    }
  }
}

TEST(SimdKernels, DotPairsKeepsDenormalProducts) {
  // Four denormal-product pairs in one interleaved group: no DAZ/FTZ on
  // any path, every pair bit-identical to its own dot.
  const std::size_t n = 37;
  std::vector<std::vector<float>> cols(8, std::vector<float>(n));
  for (std::size_t c = 0; c < cols.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      const float scale =
          c % 2 == 0 ? 1e-30f : ((i + c) % 2 == 0 ? 1e-12f : -1e-12f);
      cols[c][i] = scale * static_cast<float>(i + c + 1);
    }
  }
  const float* left[] = {cols[0].data(), cols[2].data(), cols[4].data(),
                         cols[6].data()};
  const float* right[] = {cols[1].data(), cols[3].data(), cols[5].data(),
                          cols[7].data()};
  std::vector<const simd::Kernels*> targets{&simd::scalar_kernels()};
  if (have_avx2()) targets.push_back(&simd::avx2_kernels());
  for (const simd::Kernels* k : targets) {
    float out[4];
    k->dot_pairs(left, right, 4, n, out);
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_NE(out[p], 0.0f) << k->name;
      EXPECT_LT(std::fabs(out[p]), std::numeric_limits<float>::min())
          << k->name;
      EXPECT_EQ(bits(out[p]),
                bits(simd::scalar_kernels().dot(left[p], right[p], n)))
          << k->name << " p=" << p;
    }
  }
}

// ---- Dispatch seam -------------------------------------------------------

TEST(SimdKernels, ActiveIsAlwaysAValidTarget) {
  const simd::Kernels& k = simd::active();
  EXPECT_EQ(k.lane_width, 8);
  const bool is_scalar = &k == &simd::scalar_kernels();
  const bool is_avx2 = have_avx2() && &k == &simd::avx2_kernels();
  EXPECT_TRUE(is_scalar || is_avx2) << "active() returned " << k.name;
}

TEST(SimdKernels, SetActiveForTestingRoundTrips) {
  const simd::Kernels* prev =
      simd::set_active_for_testing(&simd::scalar_kernels());
  EXPECT_EQ(&simd::active(), &simd::scalar_kernels());
  simd::set_active_for_testing(prev);
  EXPECT_EQ(&simd::active(), prev);
}

TEST(SimdKernels, EnvOverrideForcesScalar) {
  // set_active_for_testing(nullptr) re-runs the startup resolution, so
  // the environment seam is testable in-process.
  const simd::Kernels* prev = simd::set_active_for_testing(nullptr);
  const char* env = std::getenv("HSVD_SIMD");
  const std::string saved = env != nullptr ? env : "";
  ASSERT_EQ(setenv("HSVD_SIMD", "scalar", 1), 0);
  simd::set_active_for_testing(nullptr);
  EXPECT_EQ(&simd::active(), &simd::scalar_kernels());
  if (env != nullptr) {
    ASSERT_EQ(setenv("HSVD_SIMD", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("HSVD_SIMD"), 0);
  }
  simd::set_active_for_testing(prev);
}

}  // namespace
}  // namespace hsvd
