// Functional AIE kernels: the arithmetic that runs on orth-AIEs and
// norm-AIEs. Shared by the accelerator's functional path; timing comes
// from perf::AieKernelModel so the simulator and the analytic model agree
// on per-kernel cost by construction.
#pragma once

#include <cstddef>
#include <span>

namespace hsvd::accel {

// One orth-AIE's work in a layer: a column pair (`rows` floats each) and
// the pair's cached squared column norms. This is the accelerator's
// per-task Gram cache (the host analogue of keeping the diagonal in the
// orth-AIE's registers across visits): `aii` / `ajj` carry the norms in
// and are updated in place from the rotation closed form, so only the
// off-diagonal dot touches the column data.
struct OrthPair {
  float* left = nullptr;
  float* right = nullptr;
  float* aii = nullptr;
  float* ajj = nullptr;
};

struct OrthKernelResult {
  double coherence = 0.0;  // eq. (6) measure of the pair before rotation
  bool rotated = false;
};

// Orthogonalizes one orth-layer's column pairs in place (lines 9-12 of
// Algorithm 1): the pairs' off-diagonal dots, then per pair the rotation
// closed form, the update and the norm update. The P_eng engines of a
// layer rotate disjoint columns at once, so the pairs must not share a
// column; their dots then go through one interleaved dot_pairs call
// (common/simd.hpp), and every result -- columns, norms, coherence -- is
// bit-identical to running the pairs one after another. `results` has
// one entry per pair.
void orth_layer(std::span<const OrthPair> pairs, std::size_t rows,
                std::span<OrthKernelResult> results);

struct NormKernelResult {
  float sigma = 0.0f;
};

// Normalizes one column in place (line 23 of Algorithm 1): sigma = ||b||,
// u = b / sigma. Zero columns keep sigma = 0 and are left untouched.
NormKernelResult norm_kernel(std::span<float> column);

}  // namespace hsvd::accel
