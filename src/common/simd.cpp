#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace hsvd::simd {

namespace {

constexpr std::size_t kLanes = 8;

// Pairwise lane reduction: (0+1)+(2+3) ... matches the AIE kernel's
// adder tree. Every implementation funnels its accumulators through this
// exact tree so the result is independent of the vector ISA.
float reduce_lanes(float lane[kLanes]) {
  for (std::size_t step = 1; step < kLanes; step *= 2) {
    for (std::size_t l = 0; l + step < kLanes; l += 2 * step) {
      lane[l] += lane[l + step];
    }
  }
  return lane[0];
}

float scalar_dot(const float* a, const float* b, std::size_t n) {
  float lane[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] += a[i + l] * b[i + l];
    }
  }
  float s = 0.0f;
  for (; i < n; ++i) s += a[i] * b[i];
  return reduce_lanes(lane) + s;
}

void scalar_dot_pairs(const float* const* a, const float* const* b,
                      std::size_t count, std::size_t n, float* out) {
  for (std::size_t p = 0; p < count; ++p) out[p] = scalar_dot(a[p], b[p], n);
}

// The rotation kernel's columns are always distinct buffers (a pair of
// different matrix columns), so the pointers may be declared restrict --
// without it the auto-vectorizer has to version the loop for aliasing
// and gives up under -O2's cost model. The 8-wide chunking mirrors the
// lane model; per-element arithmetic is position-independent, so this is
// bit-identical to a plain scalar loop, and -O3's extra unrolling is
// safe here. It is set per function, so the dot loops keep the file's
// flags.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("O3")))
#endif
void scalar_apply_rotation(float* x, float* y, std::size_t n, float c,
                           float s) {
  float* __restrict px = x;
  float* __restrict py = y;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const float xi = px[i + l];
      const float yi = py[i + l];
      px[i + l] = c * xi - s * yi;
      py[i + l] = s * xi + c * yi;
    }
  }
  for (; i < n; ++i) {
    const float xi = px[i];
    const float yi = py[i];
    px[i] = c * xi - s * yi;
    py[i] = s * xi + c * yi;
  }
}

const Kernels kScalar{"scalar", static_cast<int>(kLanes), scalar_dot,
                      scalar_dot_pairs, scalar_apply_rotation};

// Startup decision: env override first, then cpuid. Returning the
// scalar set is always safe.
const Kernels* resolve_startup() {
  const char* mode = std::getenv("HSVD_SIMD");
  if (mode != nullptr) {
    if (std::strcmp(mode, "scalar") == 0) return &kScalar;
    if (std::strcmp(mode, "avx2") == 0) {
      return avx2_compiled() && avx2_supported() ? &avx2_kernels() : &kScalar;
    }
    // "auto" or anything unrecognized: fall through to detection.
  }
  if (avx2_compiled() && avx2_supported()) return &avx2_kernels();
  return &kScalar;
}

std::atomic<const Kernels*>& active_slot() {
  static std::atomic<const Kernels*> slot{resolve_startup()};
  return slot;
}

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

#if !defined(HSVD_HAVE_AVX2)
bool avx2_compiled() { return false; }
bool avx2_supported() { return false; }
const Kernels& avx2_kernels() { return kScalar; }
#endif

const Kernels& active() {
  return *active_slot().load(std::memory_order_acquire);
}

const Kernels* set_active_for_testing(const Kernels* k) {
  const Kernels* next = k != nullptr ? k : resolve_startup();
  return active_slot().exchange(next, std::memory_order_acq_rel);
}

}  // namespace hsvd::simd
