// Runtime-dispatched SIMD kernels for the fp32 hot path.
//
// The paper's AIE vector units are 8-lane fp32 MACs (Table IV); the host
// mirrors them with an 8-accumulator-lane model whose summation tree is
// fixed (pairwise (0+1)+(2+3)... reduction). This header is the dispatch
// seam: `active()` resolves once, at first use, to the widest
// implementation the build and the CPU both support -- AVX2 when
// HSVD_ENABLE_AVX2 compiled it in and cpuid reports it, the portable
// scalar model otherwise -- and every implementation is required to be
// BIT-IDENTICAL to the scalar 8-lane model: same per-lane accumulation
// order, same reduction tree, same tail handling, no FMA contraction.
// Factors therefore do not depend on which path ran, and the
// differential harness pins {scalar, avx2} against each other bitwise.
//
// Override (resolved before cpuid):
//   HSVD_SIMD=scalar|avx2|auto  -- explicit path selection; requesting
//                                  avx2 on an unsupported host falls
//                                  back to scalar.
#pragma once

#include <cstddef>

namespace hsvd::simd {

// One resolved kernel set. All pointers are non-null.
struct Kernels {
  const char* name;  // "scalar" or "avx2"
  int lane_width;    // accumulator lanes of the summation model (8)
  float (*dot)(const float* a, const float* b, std::size_t n);
  // out[p] = dot(a[p], b[p], n) for p < count, each bit-identical to the
  // single dot: the pairs of one orth-layer at once. The AVX2 target
  // interleaves four pairs' accumulators, so four independent add chains
  // hide the latency a single dot is bound by; every pair keeps its own
  // lane order, tail and reduction tree.
  void (*dot_pairs)(const float* const* a, const float* const* b,
                    std::size_t count, std::size_t n, float* out);
  void (*apply_rotation)(float* x, float* y, std::size_t n, float c,
                         float s);
};

// The kernel set every other implementation must match bit for bit.
const Kernels& scalar_kernels();

// True when the build compiled the AVX2 translation unit in.
bool avx2_compiled();
// True when the running CPU supports AVX2 (false on non-x86 builds).
bool avx2_supported();
// The AVX2 kernel set; only callable when avx2_compiled().
const Kernels& avx2_kernels();

// The dispatch decision, made once at first use (env overrides, then
// cpuid) and stable for the life of the process unless a test overrides
// it.
const Kernels& active();

// Test/bench hook: forces `k` as the active set (nullptr restores the
// startup decision). Returns the previously active set. Not safe while
// other threads are inside a kernel -- call between runs only.
const Kernels* set_active_for_testing(const Kernels* k);

}  // namespace hsvd::simd
