// FusedOtGlue: the GEMM form of DIM's masked-OT glue (ot/masked_cost.h,
// ot/divergence.cc) against the pre-GEMM composition kept in testkit
// (ReferenceMaskedCost → SolveSinkhorn → per-row axpy gradients). Every
// comparison is memcmp: the fused path keeps each product's ascending-index
// association, so values, gradients and signed zeros must match exactly, at
// any thread count. Also covers the kernels the fused path adds (Gram upper
// triangle, column sums, in-place sigmoid epilogue).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/elementwise.h"
#include "kernels/linear.h"
#include "kernels/matmul.h"
#include "ot/divergence.h"
#include "ot/masked_cost.h"
#include "runtime/runtime.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "testkit/oracles.h"

namespace scis {
namespace {

const std::vector<size_t> kRows = {1, 2, 3, 5, 127, 128, 130};
const std::vector<size_t> kCols = {1, 3, 9, 22, 64, 65, 100};

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Values in [-1, 1] with a Bernoulli mask whose first row and first column
// are all missing when the shape leaves other cells observed. A masked
// negative entry projects to -0.0, and a fully-missing column makes its
// P·B entries +0.0: together they exercise the envelope's `0 − P·B`
// signed-zero case (writing −P·B instead fails three tests below).
struct Side {
  Matrix x, m;
};

Side MakeSide(Rng& rng, size_t n, size_t d) {
  Side s{rng.UniformMatrix(n, d, -1.0, 1.0), rng.BernoulliMatrix(n, d, 0.7)};
  if (n > 1) {
    for (size_t k = 0; k < d; ++k) s.m(0, k) = 0.0;
  }
  if (d > 1) {
    for (size_t i = 0; i < n; ++i) s.m(i, 0) = 0.0;
  }
  return s;
}

SinkhornOptions Opts(double lambda) {
  SinkhornOptions o;
  o.lambda = lambda;
  o.max_iters = 100;
  o.tol = 1e-7;
  o.rank = 0;
  return o;
}

// The target side's row count differs from the source's.
size_t OtherRows(size_t i) { return kRows[(i + 3) % kRows.size()]; }

TEST(FusedOtGlueTest, CostMatchesReferenceBitwise) {
  Rng rng(11);
  for (size_t i = 0; i < kRows.size(); ++i) {
    for (const size_t d : kCols) {
      const size_t n = kRows[i], m = OtherRows(i);
      const Side a = MakeSide(rng, n, d), b = MakeSide(rng, m, d);
      const Matrix ref = testkit::ReferenceMaskedCost(a.x, a.m, b.x, b.m);
      EXPECT_TRUE(SameBits(MaskedCostMatrix(a.x, a.m, b.x, b.m), ref))
          << "n=" << n << " m=" << m << " d=" << d;
    }
  }
}

TEST(FusedOtGlueTest, SymmetricSelfCostEqualsFullCost) {
  Rng rng(12);
  for (const size_t n : kRows) {
    for (const size_t d : kCols) {
      const Side a = MakeSide(rng, n, d);
      const MaskedRows rows = ProjectMaskedRows(a.x, a.m);
      const Matrix self = MaskedSelfCost(rows);
      EXPECT_TRUE(SameBits(self, MaskedCost(rows, rows)))
          << "n=" << n << " d=" << d;
      EXPECT_TRUE(
          SameBits(self, testkit::ReferenceMaskedCost(a.x, a.m, a.x, a.m)))
          << "n=" << n << " d=" << d;
    }
  }
}

// Small λ drives some plan entries to exact zeros (the reference skips
// them; the GEMM adds their ±0 products), large λ is DIM's setting.
TEST(FusedOtGlueTest, GradientsMatchReferenceBitwise) {
  Rng rng(13);
  for (const double lambda : {0.002, 130.0}) {
    for (size_t i = 0; i < kRows.size(); ++i) {
      for (const size_t d : kCols) {
        const size_t n = kRows[i], m = OtherRows(i);
        const Side a = MakeSide(rng, n, d), b = MakeSide(rng, m, d);
        const Matrix plan =
            SolveSinkhorn(testkit::ReferenceMaskedCost(a.x, a.m, b.x, b.m),
                          Opts(lambda))
                .plan;
        EXPECT_TRUE(SameBits(
            MaskedOtGradWrtA(plan, a.x, a.m, b.x, b.m),
            testkit::ReferenceMaskedOtGradWrtA(plan, a.x, a.m, b.x, b.m)))
            << "A side: lambda=" << lambda << " n=" << n << " m=" << m
            << " d=" << d;
        EXPECT_TRUE(SameBits(
            MaskedOtGradWrtB(plan, a.x, a.m, b.x, b.m),
            testkit::ReferenceMaskedOtGradWrtB(plan, a.x, a.m, b.x, b.m)))
            << "B side: lambda=" << lambda << " n=" << n << " m=" << m
            << " d=" << d;
      }
    }
  }
}

TEST(FusedOtGlueTest, TrainingStepMatchesReferenceBitwise) {
  Rng rng(14);
  for (const size_t n : kRows) {
    if (n < 2) continue;  // a training batch has at least two rows
    for (const size_t d : kCols) {
      const Side data = MakeSide(rng, n, d);
      const Matrix xbar = rng.UniformMatrix(n, d, -1.0, 1.0);
      const DivergenceResult fused =
          MsDivergenceForTraining(xbar, data.x, data.m, Opts(130.0));
      const DivergenceResult ref = testkit::ReferenceMsStep(
          xbar, data.m, data.x, data.m, Opts(130.0), /*with_bb=*/false,
          /*with_grad=*/true);
      EXPECT_TRUE(SameBits(fused.value, ref.value)) << "n=" << n << " d=" << d;
      EXPECT_TRUE(SameBits(fused.grad_xbar, ref.grad_xbar))
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(FusedOtGlueTest, MaskedDivergenceMatchesReferenceBitwise) {
  Rng rng(15);
  for (size_t i = 0; i < kRows.size(); ++i) {
    for (const size_t d : kCols) {
      const size_t n = kRows[i], m = OtherRows(i);
      const Side a = MakeSide(rng, n, d), b = MakeSide(rng, m, d);
      for (const bool with_grad : {false, true}) {
        const DivergenceResult fused =
            MsDivergenceMasked(a.x, a.m, b.x, b.m, Opts(0.5), with_grad);
        const DivergenceResult ref = testkit::ReferenceMsStep(
            a.x, a.m, b.x, b.m, Opts(0.5), /*with_bb=*/true, with_grad);
        EXPECT_TRUE(SameBits(fused.value, ref.value))
            << "n=" << n << " m=" << m << " d=" << d;
        EXPECT_TRUE(SameBits(fused.grad_xbar, ref.grad_xbar))
            << "n=" << n << " m=" << m << " d=" << d;
      }
    }
  }
}

TEST(FusedOtGlueTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(16);
  for (const size_t n : {5, 128, 130}) {
    for (const size_t d : {9, 64, 100}) {
      const Side a = MakeSide(rng, n, d), b = MakeSide(rng, n + 3, d);
      const Matrix xbar = rng.UniformMatrix(n, d, -1.0, 1.0);
      runtime::SetNumThreads(1);
      const DivergenceResult ref = testkit::ReferenceMsStep(
          xbar, a.m, a.x, a.m, Opts(130.0), false, true);
      const DivergenceResult ref_bb =
          testkit::ReferenceMsStep(a.x, a.m, b.x, b.m, Opts(0.5), true, true);
      for (const int threads : {1, 2, 4}) {
        runtime::SetNumThreads(threads);
        const DivergenceResult fused =
            MsDivergenceForTraining(xbar, a.x, a.m, Opts(130.0));
        EXPECT_TRUE(SameBits(fused.value, ref.value));
        EXPECT_TRUE(SameBits(fused.grad_xbar, ref.grad_xbar))
            << "threads=" << threads << " n=" << n << " d=" << d;
        const DivergenceResult fused_bb =
            MsDivergenceMasked(a.x, a.m, b.x, b.m, Opts(0.5), true);
        EXPECT_TRUE(SameBits(fused_bb.value, ref_bb.value));
        EXPECT_TRUE(SameBits(fused_bb.grad_xbar, ref_bb.grad_xbar))
            << "threads=" << threads << " n=" << n << " d=" << d;
        const MaskedRows rows = ProjectMaskedRows(a.x, a.m);
        EXPECT_TRUE(SameBits(MaskedSelfCost(rows), MaskedCost(rows, rows)));
      }
    }
  }
  runtime::SetNumThreads(0);
}

TEST(FusedOtGlueTest, GramUpperMatchesFullProduct) {
  Rng rng(19);
  for (const size_t n : {1, 3, 4, 9, 130}) {
    for (const size_t k : {1, 7, 64}) {
      const Matrix a = rng.UniformMatrix(n, k, -1.0, 1.0);
      Matrix full(n, n), upper(n, n);
      kernels::MatMulTransBRowsSmallN(a.data(), a.data(), full.data(), 0, n,
                                      k, n);
      // Two chunks, the second starting on a tile boundary.
      const size_t split = kernels::RowAlignedGrain(n / 2);
      kernels::GramUpperRowsSmallN(a.data(), upper.data(), 0,
                                   std::min(split, n), k, n);
      kernels::GramUpperRowsSmallN(a.data(), upper.data(), std::min(split, n),
                                   n, k, n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i; j < n; ++j) {
          EXPECT_TRUE(SameBits(upper(i, j), full(i, j)))
              << "n=" << n << " k=" << k << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(FusedOtGlueTest, ColumnSumsMatchSumOverTranspose) {
  Rng rng(20);
  for (const size_t rows : {1, 7, 8, 9, 130}) {
    const Matrix a = rng.UniformMatrix(rows, 13, -1.0, 1.0);
    const Matrix t = Transpose(a);
    std::vector<double> sums(13);
    kernels::ColumnSums(a.data(), rows, 13, 0, 5, sums.data());
    kernels::ColumnSums(a.data(), rows, 13, 5, 13, sums.data() + 5);
    for (size_t j = 0; j < 13; ++j) {
      EXPECT_TRUE(SameBits(sums[j], kernels::Sum(t.row_data(j), rows)))
          << "rows=" << rows << " j=" << j;
    }
  }
}

// The sigmoid epilogue of the fused linear kernels: bias-added rows, then
// SigmoidInPlace, must equal an identity pass followed by SigmoidArray.
TEST(FusedOtGlueTest, SigmoidEpilogueMatchesSigmoidArray) {
  Rng rng(21);
  for (const size_t rows : {1, 5, 128}) {
    for (const size_t n : {3, 9, 64, 70}) {
      const size_t k = 11;
      const Matrix x = rng.UniformMatrix(rows, k, -3.0, 3.0);
      const Matrix w = rng.UniformMatrix(k, n, -1.0, 1.0);
      const Matrix bias = rng.UniformMatrix(1, n, -1.0, 1.0);
      Matrix lin(rows, n), expect(rows, n), small(rows, n), packed(rows, n);
      kernels::LinearForwardRowsSmallN(x.data(), w.data(), bias.data(),
                                       lin.data(), 0, rows, k, n,
                                       kernels::Act::kIdentity);
      kernels::SigmoidArray(lin.data(), expect.data(), lin.size());
      kernels::LinearForwardRowsSmallN(x.data(), w.data(), bias.data(),
                                       small.data(), 0, rows, k, n,
                                       kernels::Act::kSigmoid);
      std::vector<double> wp(kernels::PackedSize(k, n));
      kernels::PackPanels(w.data(), k, n, 0, kernels::NumPanels(n), wp.data());
      kernels::LinearForwardRows(x.data(), wp.data(), bias.data(),
                                 packed.data(), 0, rows, k, n,
                                 kernels::Act::kSigmoid);
      EXPECT_TRUE(SameBits(small, expect)) << rows << "x" << n;
      EXPECT_TRUE(SameBits(packed, expect)) << rows << "x" << n;
    }
  }
}

}  // namespace
}  // namespace scis
