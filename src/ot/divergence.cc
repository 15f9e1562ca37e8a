#include "ot/divergence.h"

#include "common/check.h"
#include "ot/masked_cost.h"

namespace scis {

namespace {

// One side of a masked OT problem. `rows` holds the mask projection on the
// dense path, computed once and shared by every solve and gradient the
// side enters; the low-rank path reads x and m directly.
struct Side {
  const Matrix& x;
  const Matrix& m;
  MaskedRows rows;
};

bool DenseSolve(const Side& s, const Side& t, const SinkhornOptions& opts) {
  return ResolveSinkhornRank(opts, s.x.rows(), t.x.rows()) <= 0;
}

// OT_λ^m(s, t). Dense: SolveSinkhornMasked's rank-0 route (cost, then
// solve), with the cost built from the shared projections — the upper
// triangle only when s is t.
SinkhornSolution Solve(const Side& s, const Side& t,
                       const SinkhornOptions& opts) {
  if (!DenseSolve(s, t, opts)) {
    return SolveSinkhornMasked(s.x, s.m, t.x, t.m, opts);
  }
  return SolveSinkhorn(
      &s == &t ? MaskedSelfCost(s.rows) : MaskedCost(s.rows, t.rows), opts);
}

// Envelope gradients against whichever plan the solve produced: the dense
// n×m plan on the exact path, the truncated CSR plan on the low-rank path.
// Same math either way (Prop. 1 only needs <P, ∂C>).
Matrix GradSource(const SinkhornSolution& sol, const Side& s, const Side& t) {
  if (sol.low_rank) return MaskedOtGradWrtA(sol.sparse_plan, s.x, s.m, t.x, t.m);
  return MaskedGradRows(sol.plan, s.rows, s.m, t.rows);
}

Matrix GradTarget(const SinkhornSolution& sol, const Side& s, const Side& t) {
  if (sol.low_rank) return MaskedOtGradWrtB(sol.sparse_plan, s.x, s.m, t.x, t.m);
  return MaskedGradCols(sol.plan, s.rows, t.rows, t.m);
}

// The MS step shared by MsDivergenceMasked and MsDivergenceForTraining:
// value 2·OT(a,b) − OT(a,a) [− OT(b,b) when with_bb], and, when requested,
// the gradient in a, 2·∂_a OT(a,b) − (∂_src OT(a,a) + ∂_tgt OT(a,a)) — the
// same elementwise operations, in the same order, as the historic
// scale/add/subtract passes.
DivergenceResult FusedMsStep(const Matrix& a, const Matrix& ma,
                             const Matrix& b, const Matrix& mb,
                             const SinkhornOptions& opts, bool with_bb,
                             bool with_grad) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());
  Side sa{a, ma, {}};
  Side sb{b, mb, {}};
  if (DenseSolve(sa, sb, opts) || DenseSolve(sa, sa, opts)) {
    sa.rows = ProjectMaskedRows(a, ma);
  }
  if (DenseSolve(sa, sb, opts) || (with_bb && DenseSolve(sb, sb, opts))) {
    sb.rows = ProjectMaskedRows(b, mb);
  }

  const SinkhornSolution ab = Solve(sa, sb, opts);
  const SinkhornSolution aa = Solve(sa, sa, opts);
  DivergenceResult out;
  out.value = 2.0 * ab.reg_value - aa.reg_value;
  if (with_bb) out.value -= Solve(sb, sb, opts).reg_value;
  if (!with_grad) return out;

  Matrix g = GradSource(ab, sa, sb);
  const Matrix gs = GradSource(aa, sa, sa);
  const Matrix gt = GradTarget(aa, sa, sa);
  double* pg = g.data();
  const double* ps = gs.data();
  const double* pt = gt.data();
  for (size_t k = 0; k < g.size(); ++k) pg[k] = pg[k] * 2.0 - (ps[k] + pt[k]);
  out.grad_xbar = std::move(g);
  return out;
}

}  // namespace

DivergenceResult MsDivergenceMasked(const Matrix& a, const Matrix& ma,
                                    const Matrix& b, const Matrix& mb,
                                    const SinkhornOptions& opts,
                                    bool with_grad) {
  return FusedMsStep(a, ma, b, mb, opts, /*with_bb=*/true, with_grad);
}

DivergenceResult MsDivergence(const Matrix& xbar, const Matrix& x,
                              const Matrix& m, const SinkhornOptions& opts,
                              bool with_grad) {
  return MsDivergenceMasked(xbar, m, x, m, opts, with_grad);
}

DivergenceResult MsDivergenceForTraining(const Matrix& xbar, const Matrix& x,
                                         const Matrix& m,
                                         const SinkhornOptions& opts) {
  SCIS_CHECK(xbar.SameShape(x));
  return FusedMsStep(xbar, m, x, m, opts, /*with_bb=*/false,
                     /*with_grad=*/true);
}

DivergenceResult SinkhornDivergence(const Matrix& a, const Matrix& b,
                                    const SinkhornOptions& opts,
                                    bool with_grad) {
  const Matrix ones_a = Matrix::Ones(a.rows(), a.cols());
  const Matrix ones_b = Matrix::Ones(b.rows(), b.cols());
  return MsDivergenceMasked(a, ones_a, b, ones_b, opts, with_grad);
}

}  // namespace scis
