#include "accel/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "jacobi/rotation.hpp"
#include "linalg/ops.hpp"

namespace hsvd::accel {

void orth_layer(std::span<const OrthPair> pairs, std::size_t rows,
                std::span<OrthKernelResult> results) {
  HSVD_REQUIRE(results.size() == pairs.size(),
               "orth_layer: one result per pair");
  const simd::Kernels& kernels = simd::active();
  // Off-diagonal dots, a bounded chunk of pairs per call (a layer has
  // P_eng <= 11 pairs, so one chunk in practice).
  constexpr std::size_t kChunk = 16;
  const float* left[kChunk];
  const float* right[kChunk];
  float aij[kChunk];
  for (std::size_t base = 0; base < pairs.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, pairs.size() - base);
    for (std::size_t p = 0; p < count; ++p) {
      left[p] = pairs[base + p].left;
      right[p] = pairs[base + p].right;
    }
    kernels.dot_pairs(left, right, count, rows, aij);
    for (std::size_t p = 0; p < count; ++p) {
      const OrthPair& pair = pairs[base + p];
      float& aii = *pair.aii;
      float& ajj = *pair.ajj;
      OrthKernelResult& out = results[base + p];
      out.coherence = jacobi::pair_coherence(aii, ajj, aij[p]);
      const auto rot = jacobi::compute_rotation(aii, ajj, aij[p]);
      out.rotated = !rot.identity;
      if (!out.rotated) continue;
      kernels.apply_rotation(pair.left, pair.right, rows, rot.c, rot.s);
      linalg::rotated_norms(aii, ajj, aij[p], rot.c, rot.s, aii, ajj);
      // Cancellation noise from a dominant pair can leave a tracked norm
      // negative; refresh from the column (see hestenes.cpp).
      if (!(aii > 0.0f)) aii = kernels.dot(pair.left, pair.left, rows);
      if (!(ajj > 0.0f)) ajj = kernels.dot(pair.right, pair.right, rows);
    }
  }
}

NormKernelResult norm_kernel(std::span<float> column) {
  NormKernelResult out;
  out.sigma = linalg::norm2<float>(column);
  if (out.sigma > 0.0f) {
    const float inv = 1.0f / out.sigma;
    for (float& v : column) v *= inv;
  }
  return out;
}

}  // namespace hsvd::accel
