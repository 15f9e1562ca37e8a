// Fused linear-layer kernels: forward act(X·W + b) in one register-tiled
// pass over the packed matmul layout, and the matching backward pieces.
//
// Forward reuses the kernels/matmul micro-kernel structure verbatim — the
// kRowTile × kColTile accumulator tile streams the full inner dimension in
// ascending-p order — and applies the bias add and activation at the tile
// store, so one layer is one pass over the output instead of three
// (MatMul, AddRowBroadcast, activation) with two intermediate matrices.
// Sigmoid is the exception: the tile store writes acc + bias and a
// vectorized SigmoidInPlace runs over each finished 4-row block while it is
// still in L1, because a scalar sigmoid call in the store loop costs ~2.5×.
//
// Determinism: an accumulator that starts at +0.0 can never end at -0.0, so
// `act(acc + b)` is bit-identical to the unfused `(0 += acc) + b` store of
// the historic composition at any thread count (callers chunk output rows
// with RowAlignedGrain, as for the plain matmul). The sigmoid epilogue is
// kernels/elementwise's SigmoidInPlace, the same SigmoidD (kernels/act.h)
// expression the unfused SigmoidArray evaluates.
#ifndef SCIS_KERNELS_LINEAR_H_
#define SCIS_KERNELS_LINEAR_H_

#include <cstddef>

namespace scis::kernels {

// Activation applied at the tile store. Softplus is absent by design: its
// derivative needs the pre-activation, which a fused node does not keep
// (the tape falls back to an unfused softplus on top of kIdentity).
enum class Act { kIdentity, kSigmoid, kRelu, kTanh };

// y rows [i0, i1) = act(x·W + bias), with x row-major (rows × k), the k×n
// weight matrix packed into wp (kernels/matmul.h PackPanels layout), and
// bias a length-n row. Overwrites y (no zeroing needed).
void LinearForwardRows(const double* x, const double* wp, const double* bias,
                       double* y, size_t i0, size_t i1, size_t k, size_t n,
                       Act act);

// Widest output for which the direct (pack-free) forward and trans-A row
// kernels below apply (the a·bᵀ kernels take any width). The register tile
// walks 4-column blocks, so any width works; the bound marks where the
// weight matrix stops being cache-resident (64 columns at the paper's layer
// depths keeps W under ~100 KB) and the packed-panel walk of
// kernels/matmul.h starts to win back through contiguous panel reuse.
inline constexpr size_t kSmallNMax = 64;

// LinearForwardRows for n ≤ kSmallNMax with W row-major and unpacked: one
// accumulator row per output row streams the full inner dimension in the
// same ascending-p order as the packed kernel, so results are bit-identical
// to it (and to the unfused composition) — it just skips the per-step pack
// pass and the padded panel columns.
void LinearForwardRowsSmallN(const double* x, const double* w,
                             const double* bias, double* y, size_t i0,
                             size_t i1, size_t k, size_t n, Act act);

// out rows [i0, i1) += aᵀ·b for n ≤ kSmallNMax with b row-major and
// unpacked — the dW = Xᵀ·dz backward without packing dz first, and the
// Pᵀ·A masked-OT gradient. a is the k × ma matrix; each 4-column strip of
// it is staged into per-thread scratch once per row tile. Ascending-p
// accumulation into a zeroed out keeps it bit-identical to the packed
// variant.
void MatMulTransARowsSmallN(const double* a, size_t ma, const double* b,
                            double* out, size_t i0, size_t i1, size_t k,
                            size_t n);

// out rows [i0, i1) = a·bᵀ, a (rows × k) and b (n × k) both row-major — the
// dX = dz·Wᵀ backward and the masked-OT cost. kSmallNMax does not apply:
// any n works. Each output element is one ascending-p dot of an a row with
// a b row, the exact association of MatMulTransBRows (kernels/matmul.h);
// the register tile just runs 16 of those chains at once.
void MatMulTransBRowsSmallN(const double* a, const double* b, double* out,
                            size_t i0, size_t i1, size_t k, size_t n);

// The Gram case b = a of MatMulTransBRowsSmallN (a is n × k, any n),
// computing only the upper block triangle: each 4-row tile starting at row
// i fills columns [i, n), and each leftover row i fills [i, n). Callers use
// the cells with column ≥ row; those are bit-identical to the full product
// (a_i·a_j and a_j·a_i are the same products in the same order).
void GramUpperRowsSmallN(const double* a, double* out, size_t i0, size_t i1,
                         size_t k, size_t n);

// dz[i] = g[i] · act'(y[i]) where y is the saved forward output — the
// activation backward for every Act except kIdentity (whose dz is g).
void ActBackwardArray(Act act, const double* g, const double* y, double* dz,
                      size_t n);

// out[j] += Σ_i a(i, j) over all rows, row-major a (rows × cols), serial in
// row order — the bias gradient, association-identical to ColSum.
void ColSumAcc(const double* a, size_t rows, size_t cols, double* out);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_LINEAR_H_
