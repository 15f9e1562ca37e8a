#include "ot/masked_cost.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "kernels/elementwise.h"
#include "kernels/linear.h"
#include "kernels/matmul.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "tensor/matrix_ops.h"

namespace scis {

namespace {

// Row grain of one fused op: GrainForWork's target on its total work, but
// never fewer than kMinChunkRows output rows (a quarter of DIM's 128-row
// batch; the 32k default alone cuts a ~100 µs GEMM into ~3 µs chunks that
// cost more to dispatch than they save). Tile-aligned, and a function of
// the shape only, as runtime/parallel_for.h requires.
size_t FusedGrain(size_t rows, size_t work_per_row) {
  constexpr size_t kMinChunkRows = 32;
  return kernels::RowAlignedGrain(
      std::max(kMinChunkRows, runtime::GrainForWork(rows, work_per_row)));
}

}  // namespace

MaskedRows ProjectMaskedRows(const Matrix& x, const Matrix& m) {
  SCIS_TRACE_SPAN("ot.masked_cost");
  SCIS_CHECK(x.SameShape(m));
  const size_t n = x.rows(), d = x.cols();
  MaskedRows out{Matrix(n, d), std::vector<double>(n)};
  runtime::ParallelFor(0, n, FusedGrain(n, d), [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      const double* xi = x.row_data(i);
      const double* mi = m.row_data(i);
      double* pi = out.proj.row_data(i);
      for (size_t k = 0; k < d; ++k) pi[k] = xi[k] * mi[k];
      out.sq_norms[i] = kernels::SquaredNorm(pi, d);
    }
  });
  return out;
}

Matrix MaskedCost(const MaskedRows& a, const MaskedRows& b) {
  SCIS_TRACE_SPAN("ot.masked_cost");
  SCIS_CHECK_EQ(a.proj.cols(), b.proj.cols());
  const size_t n = a.proj.rows(), m = b.proj.rows(), d = a.proj.cols();
  Matrix cost(n, m);
  runtime::ParallelFor(0, n, FusedGrain(n, m * d), [&](size_t r0, size_t r1) {
    kernels::MatMulTransBRowsSmallN(a.proj.data(), b.proj.data(), cost.data(),
                                    r0, r1, d, m);
    for (size_t i = r0; i < r1; ++i) {
      kernels::SquaredDistanceRow(a.sq_norms[i], b.sq_norms.data(),
                                  cost.row_data(i), m);
    }
  });
  return cost;
}

Matrix MaskedSelfCost(const MaskedRows& a) {
  SCIS_TRACE_SPAN("ot.masked_cost");
  const size_t n = a.proj.rows(), d = a.proj.cols();
  const std::vector<double>& sq = a.sq_norms;
  Matrix cost(n, n);
  // A chunk owns its rows' upper cells and mirrors them into column slots
  // left of every later chunk's first row, which no other chunk writes.
  runtime::ParallelFor(0, n, FusedGrain(n, n * d / 2),
                       [&](size_t r0, size_t r1) {
    kernels::GramUpperRowsSmallN(a.proj.data(), cost.data(), r0, r1, d, n);
    for (size_t i = r0; i < r1; ++i) {
      kernels::SquaredDistanceRow(sq[i], sq.data() + i, cost.row_data(i) + i,
                                  n - i);
    }
    // Mirror a 4-row tile at a time, so each lower row takes one contiguous
    // write (a column walk at a power-of-two row stride thrashes L1).
    for (size_t i = r0; i < r1; i += kernels::kRowTile) {
      const size_t ie = std::min(i + kernels::kRowTile, r1);
      for (size_t j = i + 1; j < n; ++j) {
        double* cj = cost.row_data(j);
        for (size_t r = i; r < ie && r < j; ++r) cj[r] = cost(r, j);
      }
    }
  });
  return cost;
}

Matrix MaskedGradRows(const Matrix& plan, const MaskedRows& a,
                      const Matrix& ma, const MaskedRows& b) {
  SCIS_TRACE_SPAN("ot.masked_grad");
  SCIS_CHECK_EQ(plan.rows(), a.proj.rows());
  SCIS_CHECK_EQ(plan.cols(), b.proj.rows());
  SCIS_CHECK_EQ(a.proj.cols(), b.proj.cols());
  SCIS_CHECK(ma.SameShape(a.proj));
  const size_t n = plan.rows(), m = plan.cols(), d = a.proj.cols();
  const bool small = d <= kernels::kSmallNMax;
  // grad starts as P·B (acc + 0.0 == acc: an accumulator from +0.0 is never
  // -0.0) and is finished in place, row by row.
  Matrix grad = small ? Matrix(n, d) : MatMul(plan, b.proj);
  const std::vector<double> zero_bias(small ? d : 0, 0.0);
  runtime::ParallelFor(0, n, FusedGrain(n, m * d), [&](size_t r0, size_t r1) {
    if (small) {
      kernels::LinearForwardRowsSmallN(plan.data(), b.proj.data(),
                                       zero_bias.data(), grad.data(), r0, r1,
                                       m, d, kernels::Act::kIdentity);
    }
    for (size_t i = r0; i < r1; ++i) {
      kernels::MaskedGradEnvelope(ma.row_data(i), a.proj.row_data(i),
                                  kernels::Sum(plan.row_data(i), m),
                                  grad.row_data(i), d);
    }
  });
  return grad;
}

Matrix MaskedGradCols(const Matrix& plan, const MaskedRows& a,
                      const MaskedRows& b, const Matrix& mb) {
  SCIS_TRACE_SPAN("ot.masked_grad");
  SCIS_CHECK_EQ(plan.rows(), a.proj.rows());
  SCIS_CHECK_EQ(plan.cols(), b.proj.rows());
  SCIS_CHECK_EQ(a.proj.cols(), b.proj.cols());
  SCIS_CHECK(mb.SameShape(b.proj));
  const size_t n = plan.rows(), m = plan.cols(), d = b.proj.cols();
  const bool small = d <= kernels::kSmallNMax;
  // grad starts as Pᵀ·A (the trans-A kernel adds into zeros) and is
  // finished in place with the plan's column sums.
  Matrix grad = small ? Matrix(m, d) : MatMulTransA(plan, a.proj);
  std::vector<double> colsum(m);
  runtime::ParallelFor(0, m, FusedGrain(m, n * d), [&](size_t r0, size_t r1) {
    if (small) {
      kernels::MatMulTransARowsSmallN(plan.data(), m, a.proj.data(),
                                      grad.data(), r0, r1, n, d);
    }
    kernels::ColumnSums(plan.data(), n, m, r0, r1, colsum.data() + r0);
    for (size_t j = r0; j < r1; ++j) {
      kernels::MaskedGradEnvelope(mb.row_data(j), b.proj.row_data(j),
                                  colsum[j], grad.row_data(j), d);
    }
  });
  return grad;
}

Matrix MaskedCostMatrix(const Matrix& a, const Matrix& ma, const Matrix& b,
                        const Matrix& mb) {
  return MaskedCost(ProjectMaskedRows(a, ma), ProjectMaskedRows(b, mb));
}

Matrix MaskedOtGradWrtA(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  return MaskedGradRows(plan, ProjectMaskedRows(a, ma), ma,
                        ProjectMaskedRows(b, mb));
}

Matrix MaskedOtGradWrtB(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  return MaskedGradCols(plan, ProjectMaskedRows(a, ma),
                        ProjectMaskedRows(b, mb), mb);
}

Matrix MaskedOtGradWrtA(const SparseMatrix& plan, const Matrix& a,
                        const Matrix& ma, const Matrix& b, const Matrix& mb) {
  SCIS_CHECK_EQ(plan.rows(), a.rows());
  SCIS_CHECK_EQ(plan.cols(), b.rows());
  const size_t n = a.rows(), d = a.cols();
  const std::vector<size_t>& row_ptr = plan.row_ptr();
  const std::vector<size_t>& col_idx = plan.col_idx();
  const std::vector<double>& vals = plan.values();
  const size_t avg_nnz = n > 0 ? std::max<size_t>(1, plan.nnz() / n) : 1;
  Matrix grad(n, d);
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, avg_nnz * d),
                       [&](size_t rb, size_t re) {
    for (size_t i = rb; i < re; ++i) {
      const double* ai = a.row_data(i);
      const double* mi = ma.row_data(i);
      double* gi = grad.row_data(i);
      const double prow =
          kernels::Sum(vals.data() + row_ptr[i], row_ptr[i + 1] - row_ptr[i]);
      for (size_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
        const double pij = vals[t];
        if (pij == 0.0) continue;
        const size_t j = col_idx[t];
        kernels::ScaledMulAdd(-pij, mb.row_data(j), b.row_data(j), gi, d);
      }
      kernels::MaskedGradFinish(mi, ai, prow, gi, d);
    }
  });
  return grad;
}

Matrix MaskedOtGradWrtB(const SparseMatrix& plan, const Matrix& a,
                        const Matrix& ma, const Matrix& b, const Matrix& mb) {
  // Transpose by edge swap, then reuse the A-side kernel (the SparseMatrix
  // constructor re-sorts into CSR over the swapped axes).
  const std::vector<size_t>& row_ptr = plan.row_ptr();
  const std::vector<size_t>& col_idx = plan.col_idx();
  const std::vector<double>& vals = plan.values();
  std::vector<Edge> edges;
  edges.reserve(plan.nnz());
  for (size_t i = 0; i < plan.rows(); ++i) {
    for (size_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
      edges.push_back(Edge{col_idx[t], i, vals[t]});
    }
  }
  return MaskedOtGradWrtA(SparseMatrix(plan.cols(), plan.rows(), std::move(edges)),
                          b, mb, a, ma);
}

}  // namespace scis
