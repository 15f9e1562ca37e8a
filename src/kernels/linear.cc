#include "kernels/linear.h"

#include <cmath>

#include "kernels/arena.h"
#include "kernels/dispatch.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"

namespace scis::kernels {

namespace {

// Sigmoid is absent: the kernels store acc + bias for it and then run the
// vectorized SigmoidInPlace over the finished rows (the scalar SigmoidD
// inside the tile store would keep the store loop from vectorizing).
inline double ApplyAct(Act act, double z) {
  switch (act) {
    case Act::kIdentity:
    case Act::kSigmoid:
      return z;
    case Act::kRelu:
      return z > 0 ? z : 0.0;
    case Act::kTanh:
      return std::tanh(z);
  }
  return z;
}

// Bias + activation at the tile store; w < kColTile only on the last panel.
inline void StoreActTileRow(Act act, const double* __restrict acc,
                            const double* __restrict bias,
                            double* __restrict orow, size_t w) {
  for (size_t c = 0; c < w; ++c) orow[c] = ApplyAct(act, acc[c] + bias[c]);
}

// The sigmoid epilogue over `rows` finished output rows of width n. It
// evaluates the same SigmoidD(acc + bias) as a store-time sigmoid would.
inline void FinishRows(Act act, double* y, size_t rows, size_t n) {
  if (act == Act::kSigmoid) SigmoidInPlace(y, rows * n);
}

}  // namespace

SCIS_KERNEL_CLONES
void LinearForwardRows(const double* __restrict x, const double* __restrict wp,
                       const double* __restrict bias, double* __restrict y,
                       size_t i0, size_t i1, size_t k, size_t n, Act act) {
  // Same tile walk as MatMulRowsPacked (kernels/matmul.cc); only the store
  // differs, so every accumulator keeps the historic ascending-p association.
  const size_t panels = NumPanels(n);
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict arows = x + i * k;
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = wp + t * k * kColTile;
      double acc[kRowTile][kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double* __restrict bv = bt + p * kColTile;
        for (size_t r = 0; r < kRowTile; ++r) {
          const double av = arows[r * k + p];
          for (size_t c = 0; c < kColTile; ++c) acc[r][c] += av * bv[c];
        }
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreActTileRow(act, acc[r], bias + j0, y + (i + r) * n + j0, w);
      }
    }
    FinishRows(act, y + i * n, kRowTile, n);
  }
  for (; i < i1; ++i) {  // leftover rows, one output row per tile
    const double* __restrict arow = x + i * k;
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = wp + t * k * kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        const double* __restrict bv = bt + p * kColTile;
        for (size_t c = 0; c < kColTile; ++c) acc[c] += av * bv[c];
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      StoreActTileRow(act, acc, bias + j0, y + i * n + j0, w);
    }
    FinishRows(act, y + i * n, 1, n);
  }
}

SCIS_KERNEL_CLONES
void LinearForwardRowsSmallN(const double* __restrict x,
                             const double* __restrict w,
                             const double* __restrict bias,
                             double* __restrict y, size_t i0, size_t i1,
                             size_t k, size_t n, Act act) {
  // Per-element association matches the packed kernel exactly: acc starts at
  // 0.0 and streams p ascending; only the memory walk differs (row-major W,
  // no pack pass, no padded columns). Column blocks keep the accumulator
  // width a compile-time constant so the tile lives in registers; the tail
  // block (w < kColTile) computes only its real columns.
  static_assert(kRowTile == 4 && kColTile == 4,
                "hand-unrolled tile below assumes a 4x4 register tile");
  const size_t nb = n / kColTile * kColTile;
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict a0 = x + i * k;
    const double* __restrict a1 = a0 + k;
    const double* __restrict a2 = a1 + k;
    const double* __restrict a3 = a2 + k;
    for (size_t j0 = 0; j0 < nb; j0 += kColTile) {
      // 16 named accumulators: the SLP vectorizer keeps the whole tile in
      // registers, which the array-indexed form fails to do (the row loop
      // is never fully unrolled and the tile spills to the stack).
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      const double* __restrict bv = w + j0;
      for (size_t p = 0; p < k; ++p, bv += n) {
        const double b0 = bv[0], b1 = bv[1], b2 = bv[2], b3 = bv[3];
        const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        c00 += v0 * b0; c01 += v0 * b1; c02 += v0 * b2; c03 += v0 * b3;
        c10 += v1 * b0; c11 += v1 * b1; c12 += v1 * b2; c13 += v1 * b3;
        c20 += v2 * b0; c21 += v2 * b1; c22 += v2 * b2; c23 += v2 * b3;
        c30 += v3 * b0; c31 += v3 * b1; c32 += v3 * b2; c33 += v3 * b3;
      }
      const double acc[kRowTile][kColTile] = {{c00, c01, c02, c03},
                                              {c10, c11, c12, c13},
                                              {c20, c21, c22, c23},
                                              {c30, c31, c32, c33}};
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreActTileRow(act, acc[r], bias + j0, y + (i + r) * n + j0,
                        kColTile);
      }
    }
    if (nb < n) {
      const size_t tw = n - nb;
      double acc[kRowTile][kColTile] = {};
      const double* __restrict bv = w + nb;
      for (size_t p = 0; p < k; ++p, bv += n) {
        const double v[kRowTile] = {a0[p], a1[p], a2[p], a3[p]};
        for (size_t r = 0; r < kRowTile; ++r) {
          for (size_t c = 0; c < tw; ++c) acc[r][c] += v[r] * bv[c];
        }
      }
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreActTileRow(act, acc[r], bias + nb, y + (i + r) * n + nb, tw);
      }
    }
    FinishRows(act, y + i * n, kRowTile, n);
  }
  for (; i < i1; ++i) {  // leftover rows
    const double* __restrict arow = x + i * k;
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
      const size_t tw = n - j0 < kColTile ? n - j0 : kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        const double* __restrict bv = w + p * n + j0;
        for (size_t c = 0; c < tw; ++c) acc[c] += av * bv[c];
      }
      StoreActTileRow(act, acc, bias + j0, y + i * n + j0, tw);
    }
    FinishRows(act, y + i * n, 1, n);
  }
}

SCIS_KERNEL_CLONES
void MatMulTransARowsSmallN(const double* __restrict a, size_t ma,
                            const double* __restrict b,
                            double* __restrict out, size_t i0, size_t i1,
                            size_t k, size_t n) {
  static_assert(kRowTile == 4 && kColTile == 4,
                "hand-unrolled tile below assumes a 4x4 register tile");
  const size_t nb = n / kColTile * kColTile;
  // a's 4-column block a(·, i..i+3), transposed once per row tile into four
  // contiguous k-long rows s0..s3. The tile then reads it exactly as
  // LinearForwardRowsSmallN reads x: four scalar broadcast loads per p. Read
  // in place, the four values are adjacent, so the vectorizer loads them as
  // one vector and spends a shuffle per broadcast, and their k rows sit one
  // a-row stride apart, which at a power-of-two stride (a 128-wide plan or
  // input) maps them onto a few L1 sets.
  ScopedScratch scratch(k * kRowTile);
  double* __restrict s0 = scratch.data();
  double* __restrict s1 = s0 + k;
  double* __restrict s2 = s1 + k;
  double* __restrict s3 = s2 + k;
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    for (size_t p = 0; p < k; ++p) {
      const double* __restrict src = a + p * ma + i;
      s0[p] = src[0];
      s1[p] = src[1];
      s2[p] = src[2];
      s3[p] = src[3];
    }
    for (size_t j0 = 0; j0 < nb; j0 += kColTile) {
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      const double* __restrict bv = b + j0;
      for (size_t p = 0; p < k; ++p, bv += n) {
        const double b0 = bv[0], b1 = bv[1], b2 = bv[2], b3 = bv[3];
        const double v0 = s0[p], v1 = s1[p], v2 = s2[p], v3 = s3[p];
        c00 += v0 * b0; c01 += v0 * b1; c02 += v0 * b2; c03 += v0 * b3;
        c10 += v1 * b0; c11 += v1 * b1; c12 += v1 * b2; c13 += v1 * b3;
        c20 += v2 * b0; c21 += v2 * b1; c22 += v2 * b2; c23 += v2 * b3;
        c30 += v3 * b0; c31 += v3 * b1; c32 += v3 * b2; c33 += v3 * b3;
      }
      const double acc[kRowTile][kColTile] = {{c00, c01, c02, c03},
                                              {c10, c11, c12, c13},
                                              {c20, c21, c22, c23},
                                              {c30, c31, c32, c33}};
      for (size_t r = 0; r < kRowTile; ++r) {
        double* __restrict orow = out + (i + r) * n + j0;
        for (size_t c = 0; c < kColTile; ++c) orow[c] += acc[r][c];
      }
    }
    if (nb < n) {
      const size_t tw = n - nb;
      double acc[kRowTile][kColTile] = {};
      const double* __restrict bv = b + nb;
      for (size_t p = 0; p < k; ++p, bv += n) {
        const double v[kRowTile] = {s0[p], s1[p], s2[p], s3[p]};
        for (size_t r = 0; r < kRowTile; ++r) {
          for (size_t c = 0; c < tw; ++c) acc[r][c] += v[r] * bv[c];
        }
      }
      for (size_t r = 0; r < kRowTile; ++r) {
        double* __restrict orow = out + (i + r) * n + nb;
        for (size_t c = 0; c < tw; ++c) orow[c] += acc[r][c];
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
      const size_t tw = n - j0 < kColTile ? n - j0 : kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = a[p * ma + i];
        const double* __restrict bv = b + p * n + j0;
        for (size_t c = 0; c < tw; ++c) acc[c] += av * bv[c];
      }
      double* __restrict orow = out + i * n + j0;
      for (size_t c = 0; c < tw; ++c) orow[c] += acc[c];
    }
  }
}

namespace {

// Body of the two a·bᵀ entry points below. kUpper starts each 4-row tile's
// column walk at the tile's first row (b is a, the Gram case), so only the
// upper block triangle is computed. Every output element is one
// ascending-p dot starting at 0.0 either way; tiling only interleaves them.
template <bool kUpper>
__attribute__((always_inline)) inline void TransBRowsSmallN(
    const double* __restrict a, const double* __restrict b,
    double* __restrict out, size_t i0, size_t i1, size_t k, size_t n) {
  static_assert(kRowTile == 4 && kColTile == 4,
                "hand-unrolled tile below assumes a 4x4 register tile");
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict a0 = a + i * k;
    const double* __restrict a1 = a0 + k;
    const double* __restrict a2 = a1 + k;
    const double* __restrict a3 = a2 + k;
    size_t j0 = kUpper ? i : 0;
    for (; j0 + kColTile <= n; j0 += kColTile) {
      const double* __restrict r0 = b + j0 * k;
      const double* __restrict r1 = r0 + k;
      const double* __restrict r2 = r1 + k;
      const double* __restrict r3 = r2 + k;
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      for (size_t p = 0; p < k; ++p) {
        const double b0 = r0[p], b1 = r1[p], b2 = r2[p], b3 = r3[p];
        const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        c00 += v0 * b0; c01 += v0 * b1; c02 += v0 * b2; c03 += v0 * b3;
        c10 += v1 * b0; c11 += v1 * b1; c12 += v1 * b2; c13 += v1 * b3;
        c20 += v2 * b0; c21 += v2 * b1; c22 += v2 * b2; c23 += v2 * b3;
        c30 += v3 * b0; c31 += v3 * b1; c32 += v3 * b2; c33 += v3 * b3;
      }
      double* __restrict o0 = out + i * n + j0;
      o0[0] = c00; o0[1] = c01; o0[2] = c02; o0[3] = c03;
      double* __restrict o1 = o0 + n;
      o1[0] = c10; o1[1] = c11; o1[2] = c12; o1[3] = c13;
      double* __restrict o2 = o1 + n;
      o2[0] = c20; o2[1] = c21; o2[2] = c22; o2[3] = c23;
      double* __restrict o3 = o2 + n;
      o3[0] = c30; o3[1] = c31; o3[2] = c32; o3[3] = c33;
    }
    for (size_t j = j0; j < n; ++j) {  // leftover columns: plain dots
      const double* __restrict brow = b + j * k;
      const double* __restrict ar[kRowTile] = {a0, a1, a2, a3};
      for (size_t r = 0; r < kRowTile; ++r) {
        double s = 0.0;
        for (size_t p = 0; p < k; ++p) s += ar[r][p] * brow[p];
        out[(i + r) * n + j] = s;
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows: plain dots
    const double* __restrict arow = a + i * k;
    for (size_t j = kUpper ? i : 0; j < n; ++j) {
      const double* __restrict brow = b + j * k;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      out[i * n + j] = s;
    }
  }
}

}  // namespace

SCIS_KERNEL_CLONES
void MatMulTransBRowsSmallN(const double* a, const double* b, double* out,
                            size_t i0, size_t i1, size_t k, size_t n) {
  TransBRowsSmallN<false>(a, b, out, i0, i1, k, n);
}

SCIS_KERNEL_CLONES
void GramUpperRowsSmallN(const double* a, double* out, size_t i0, size_t i1,
                         size_t k, size_t n) {
  TransBRowsSmallN<true>(a, a, out, i0, i1, k, n);
}

SCIS_KERNEL_CLONES
void ActBackwardArray(Act act, const double* __restrict g,
                      const double* __restrict y, double* __restrict dz,
                      size_t n) {
  // Per-element grouping mirrors the historic unfused backward: the local
  // derivative d is formed first, then multiplied by the incoming gradient.
  switch (act) {
    case Act::kIdentity:
      for (size_t i = 0; i < n; ++i) dz[i] = g[i];
      break;
    case Act::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        const double d = y[i] * (1.0 - y[i]);
        dz[i] = g[i] * d;
      }
      break;
    case Act::kRelu:
      for (size_t i = 0; i < n; ++i) {
        dz[i] = g[i] * (y[i] > 0 ? 1.0 : 0.0);
      }
      break;
    case Act::kTanh:
      for (size_t i = 0; i < n; ++i) {
        const double d = 1.0 - y[i] * y[i];
        dz[i] = g[i] * d;
      }
      break;
  }
}

SCIS_KERNEL_CLONES
void ColSumAcc(const double* __restrict a, size_t rows, size_t cols,
               double* __restrict out) {
  for (size_t i = 0; i < rows; ++i) {
    const double* __restrict row = a + i * cols;
    for (size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
}

}  // namespace scis::kernels
