// Basic dense operations on Matrix<T>: products, transpose, norms, and the
// vector kernels the Jacobi rotations are built from.
//
// The column kernels (dot, apply_rotation) are the host's hot path:
// they mirror the paper's 8-lane fp32 vector units (Table IV) with 8
// independent accumulator lanes. The lane split changes the summation
// tree relative to a strict left-to-right reduction, so values can
// differ from a scalar loop in the last ulp; all consumers tolerate that
// (and tests pin it down).
//
// The fp32 instantiations route through hsvd::simd::active() -- genuine
// AVX2 intrinsics when the build and the CPU support them, the portable
// scalar 8-lane model otherwise. Every dispatch target is bit-identical
// to the scalar model by contract (common/simd.hpp), so results never
// depend on which path ran. Other element types (double, complex) keep
// the generic 8-lane template below.
#pragma once

#include <cmath>
#include <span>
#include <type_traits>

#include "common/simd.hpp"
#include "linalg/matrix.hpp"

namespace hsvd::linalg {

inline constexpr std::size_t kDotLanes = 8;

template <typename T>
T dot(std::span<const T> a, std::span<const T> b) {
  HSVD_REQUIRE(a.size() == b.size(), "dot: length mismatch");
  const std::size_t n = a.size();
  if constexpr (std::is_same_v<T, float>) {
    return simd::active().dot(a.data(), b.data(), n);
  }
  const T* pa = a.data();
  const T* pb = b.data();
  T lane[kDotLanes] = {};
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (std::size_t l = 0; l < kDotLanes; ++l) {
      lane[l] += pa[i + l] * pb[i + l];
    }
  }
  T s{};
  const T* qa = pa + i;
  const T* qb = pb + i;
  for (const T* end = pa + n; qa != end; ++qa, ++qb) s += *qa * *qb;
  // Pairwise lane reduction: (0+1)+(2+3) ... matches the AIE kernel's
  // adder tree and keeps the result independent of vector width.
  for (std::size_t step = 1; step < kDotLanes; step *= 2) {
    for (std::size_t l = 0; l + step < kDotLanes; l += 2 * step) {
      lane[l] += lane[l + step];
    }
  }
  return lane[0] + s;
}

template <typename T>
T norm2(std::span<const T> a) {
  return std::sqrt(dot(a, a));
}

template <typename T>
Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b) {
  HSVD_REQUIRE(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix<T> c(a.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const T bkj = b(k, j);
      if (bkj == T{}) continue;
      auto ak = a.col(k);
      auto cj = c.col(j);
      for (std::size_t i = 0; i < a.rows(); ++i) cj[i] += ak[i] * bkj;
    }
  }
  return c;
}

template <typename T>
Matrix<T> transpose(const Matrix<T>& a) {
  Matrix<T> t(a.cols(), a.rows());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) t(j, i) = a(i, j);
  return t;
}

template <typename T>
T frobenius_norm(const Matrix<T>& a) {
  T s{};
  for (T v : a.data()) s += v * v;
  return std::sqrt(s);
}

// Scales column c of m in place.
template <typename T>
void scale_col(Matrix<T>& m, std::size_t c, T factor) {
  for (T& v : m.col(c)) v *= factor;
}

// Applies a plane rotation to two equal-length columns in place:
//   [x, y] <- [c*x - s*y, s*x + c*y].
// This is the sign convention under which the closed form of the paper's
// eqs. (4)-(5) orthogonalizes the pair (t solves t^2 + 2*tau*t - 1 = 0).
// Fused: both columns are read and written in one 8-lane pass (each
// element is touched exactly once), instead of a rotate-x pass followed
// by a rotate-y pass. Per-element arithmetic is unchanged, so this is
// bit-identical to the scalar reference loop.
template <typename T>
void apply_rotation(std::span<T> x, std::span<T> y, T c, T s) {
  HSVD_REQUIRE(x.size() == y.size(), "rotation: length mismatch");
  const std::size_t n = x.size();
  if constexpr (std::is_same_v<T, float>) {
    simd::active().apply_rotation(x.data(), y.data(), n, c, s);
    return;
  }
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (std::size_t l = 0; l < kDotLanes; ++l) {
      const T xi = x[i + l];
      const T yi = y[i + l];
      x[i + l] = c * xi - s * yi;
      y[i + l] = s * xi + c * yi;
    }
  }
  for (; i < n; ++i) {
    const T xi = x[i];
    const T yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// Closed-form update of the squared column norms after apply_rotation
// with parameters (c, s): given the pre-rotation Gram entries, the new
// diagonal entries are
//   ||x'||^2 = c^2 aii - 2cs aij + s^2 ajj
//   ||y'||^2 = s^2 aii + 2cs aij + c^2 ajj.
// This is what lets the Hestenes sweep maintain per-column norms
// incrementally (one O(rows) dot per pair for aij) instead of re-deriving
// aii/ajj by two more dots at every visit.
template <typename T>
void rotated_norms(T aii, T ajj, T aij, T c, T s, T& aii_out, T& ajj_out) {
  const T cc = c * c;
  const T ss = s * s;
  const T cs2 = T{2} * c * s * aij;
  aii_out = cc * aii - cs2 + ss * ajj;
  ajj_out = ss * aii + cs2 + cc * ajj;
}

}  // namespace hsvd::linalg
