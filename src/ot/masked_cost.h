// Masking ground-cost of Definition 2: the squared-Euclidean cost between
// mask-projected rows, C_m[i][j] = || m_i ⊙ a_i − m'_j ⊙ b_j ||², and the
// Prop.-1 envelope gradients of <P, C_m>.
//
// Dense path: every piece is a GEMM over the mask projections A = a ⊙ m_a
// and B = b ⊙ m_b, which a caller computes once and shares between solves
// (ProjectMaskedRows). The cost is max(‖A_i‖² + ‖B_j‖² − 2·A_i·B_j, 0) and
// the gradients are 2·m ⊙ (rowsum(P)·A − P·B) and its transposed twin, on
// the register-tiled kernels of kernels/linear.h (the gradients, whose
// output width is d, fall back to the packed kernels of kernels/matmul.h
// above kSmallNMax columns). Each product is one
// ascending-index chain, so results are bit-identical at any thread count
// and to the historic per-row axpy form (testkit's ReferenceMaskedOtGrad*).
#ifndef SCIS_OT_MASKED_COST_H_
#define SCIS_OT_MASKED_COST_H_

#include <vector>

#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace scis {

// One side of a masked OT problem: proj = x ⊙ m and its squared row norms.
struct MaskedRows {
  Matrix proj;
  std::vector<double> sq_norms;  // kernels::SquaredNorm of each proj row
};

MaskedRows ProjectMaskedRows(const Matrix& x, const Matrix& m);

// The (n,m) Def.-2 cost between two projected sides.
Matrix MaskedCost(const MaskedRows& a, const MaskedRows& b);

// MaskedCost(a, a). The cost is exactly symmetric (the same products and
// sums in the same order), so only the upper triangle is computed and the
// lower one is mirrored from it.
Matrix MaskedSelfCost(const MaskedRows& a);

// Envelope gradient of <P, C_m> with respect to the rows of the source side
// (plan rows), given its mask ma:  2·ma ⊙ (rowsum(P)·A − P·B).
Matrix MaskedGradRows(const Matrix& plan, const MaskedRows& a,
                      const Matrix& ma, const MaskedRows& b);

// The same with respect to the rows of the target side (plan columns),
// given its mask mb:  2·mb ⊙ (colsum(P)·B − Pᵀ·A), with no transposed copy
// of the plan.
Matrix MaskedGradCols(const Matrix& plan, const MaskedRows& a,
                      const MaskedRows& b, const Matrix& mb);

// a: (n,d) with mask ma (n,d in {0,1}); b: (m,d) with mask mb.
// Returns the (n,m) masking cost matrix.
Matrix MaskedCostMatrix(const Matrix& a, const Matrix& ma, const Matrix& b,
                        const Matrix& mb);

// Envelope-theorem gradient of <P, C_m> with respect to the rows of `a`:
//   ∂/∂a_i = Σ_j P_ij · 2 (m_i⊙a_i − m'_j⊙b_j) ⊙ m_i          (Prop. 1)
// Returns an (n,d) matrix.
Matrix MaskedOtGradWrtA(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb);

// Same but with respect to the rows of `b` (cost is symmetric in sign):
//   ∂/∂b_j = Σ_i P_ij · 2 (m'_j⊙b_j − m_i⊙a_i) ⊙ m'_j
Matrix MaskedOtGradWrtB(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb);

// Sparse-plan overloads for the low-rank Sinkhorn path: identical math on a
// truncated plan, O(nnz·d) instead of O(n·m·d) — the dense n×m plan is
// never materialized. The CSR row iteration visits columns in stored order,
// so results are a pure function of the plan (deterministic).
Matrix MaskedOtGradWrtA(const SparseMatrix& plan, const Matrix& a,
                        const Matrix& ma, const Matrix& b, const Matrix& mb);
Matrix MaskedOtGradWrtB(const SparseMatrix& plan, const Matrix& a,
                        const Matrix& ma, const Matrix& b, const Matrix& mb);

}  // namespace scis

#endif  // SCIS_OT_MASKED_COST_H_
