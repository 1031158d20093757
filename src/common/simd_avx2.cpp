// AVX2 implementations of the fp32 hot-path kernels.
//
// This translation unit is the only one compiled with -mavx2, and it is
// compiled with -ffp-contract=off: the bit-identity contract with the
// scalar 8-lane model (common/simd.cpp) forbids FMA contraction, because
// a fused multiply-add rounds once where mul+add rounds twice. Each
// kernel keeps the same 8 accumulator lanes (one __m256), the same
// per-lane accumulation order over i, the same scalar tail loop, and
// funnels the lanes through the same pairwise reduction tree -- so the
// results match the scalar model bit for bit, including NaN/Inf
// propagation and denormals (no DAZ/FTZ is ever enabled here).
#include "common/simd.hpp"

#if defined(HSVD_HAVE_AVX2)

#include <immintrin.h>

namespace hsvd::simd {

namespace {

constexpr std::size_t kLanes = 8;

// Same tree as simd.cpp's reduce_lanes: (0+1)+(2+3) ...
float reduce_lanes(float lane[kLanes]) {
  for (std::size_t step = 1; step < kLanes; step *= 2) {
    for (std::size_t l = 0; l + step < kLanes; l += 2 * step) {
      lane[l] += lane[l + step];
    }
  }
  return lane[0];
}

// The stored lanes plus the scalar tail from element i on, reduced as
// every target reduces. Always inlined: a call out of an AVX function
// here compiles without the vzeroupper that the kernel's own return gets,
// and the dirty upper ymm state then slows the caller's SSE code.
[[gnu::always_inline]] inline float finish_dot(float lane[kLanes],
                                              const float* a, const float* b,
                                              std::size_t i, std::size_t n) {
  float s = 0.0f;
  for (; i < n; ++i) s += a[i] * b[i];
  return reduce_lanes(lane) + s;
}

float avx2_dot(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
  }
  alignas(32) float lane[kLanes];
  _mm256_store_ps(lane, acc);
  return finish_dot(lane, a, b, i, n);
}

// G pairs in one pass: G independent accumulators, each updated in the
// same order over i as avx2_dot's single one, so each pair's result is
// bit-identical to its own dot while the G add chains overlap.
// The g loops are unrolled so the accumulators live in registers.
template <std::size_t G>
void dot_group(const float* const* a, const float* const* b, std::size_t n,
               float* out) {
  const float* pa[G];
  const float* pb[G];
  __m256 acc[G];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) {
    pa[g] = a[g];
    pb[g] = b[g];
    acc[g] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      acc[g] = _mm256_add_ps(acc[g], _mm256_mul_ps(_mm256_loadu_ps(pa[g] + i),
                                                   _mm256_loadu_ps(pb[g] + i)));
    }
  }
  alignas(32) float lane[G][kLanes];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) _mm256_store_ps(lane[g], acc[g]);
  for (std::size_t g = 0; g < G; ++g) {
    out[g] = finish_dot(lane[g], pa[g], pb[g], i, n);
  }
}

// Four pairs at a time; a remainder of two or three pairs is one more
// interleaved group, a single pair a plain dot.
void avx2_dot_pairs(const float* const* a, const float* const* b,
                    std::size_t count, std::size_t n, float* out) {
  std::size_t p = 0;
  for (; p + 4 <= count; p += 4) dot_group<4>(a + p, b + p, n, out + p);
  switch (count - p) {
    case 3: dot_group<3>(a + p, b + p, n, out + p); break;
    case 2: dot_group<2>(a + p, b + p, n, out + p); break;
    case 1: out[p] = avx2_dot(a[p], b[p], n); break;
    default: break;
  }
}

void avx2_apply_rotation(float* x, float* y, std::size_t n, float c,
                         float s) {
  const __m256 vc = _mm256_set1_ps(c);
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(
        x + i, _mm256_sub_ps(_mm256_mul_ps(vc, vx), _mm256_mul_ps(vs, vy)));
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_mul_ps(vs, vx), _mm256_mul_ps(vc, vy)));
  }
  for (; i < n; ++i) {
    const float xi = x[i];
    const float yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

const Kernels kAvx2{"avx2", static_cast<int>(kLanes), avx2_dot,
                    avx2_dot_pairs, avx2_apply_rotation};

}  // namespace

bool avx2_compiled() { return true; }

bool avx2_supported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Kernels& avx2_kernels() { return kAvx2; }

}  // namespace hsvd::simd

#endif  // HSVD_HAVE_AVX2
