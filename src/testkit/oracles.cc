#include "testkit/oracles.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/check.h"
#include "kernels/elementwise.h"
#include "runtime/parallel_for.h"
#include "tensor/matrix_ops.h"

namespace scis::testkit {

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix NaiveMaskedCost(const Matrix& a, const Matrix& ma, const Matrix& b,
                       const Matrix& mb) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());
  Matrix cost(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        const double diff = ma(i, k) * a(i, k) - mb(j, k) * b(j, k);
        acc += diff * diff;
      }
      cost(i, j) = acc;
    }
  }
  return cost;
}

Matrix ReferenceMaskedCost(const Matrix& a, const Matrix& ma, const Matrix& b,
                           const Matrix& mb) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());
  // The historic PairwiseSquaredDistances body, scalar epilogue included.
  const Matrix pa = Mul(a, ma), pb = Mul(b, mb);
  const size_t n = pa.rows(), m = pb.rows(), d = pa.cols();
  std::vector<double> a2(n, 0.0), b2(m, 0.0);
  for (size_t i = 0; i < n; ++i) a2[i] = kernels::SquaredNorm(pa.row_data(i), d);
  for (size_t j = 0; j < m; ++j) b2[j] = kernels::SquaredNorm(pb.row_data(j), d);
  Matrix out = MatMulTransB(pa, pb);
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, m),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      double* p = out.row_data(i);
      for (size_t j = 0; j < m; ++j) {
        p[j] = std::max(a2[i] + b2[j] - 2.0 * p[j], 0.0);
      }
    }
  });
  return out;
}

Matrix ReferenceMaskedOtGradWrtA(const Matrix& plan, const Matrix& a,
                                 const Matrix& ma, const Matrix& b,
                                 const Matrix& mb) {
  SCIS_CHECK_EQ(plan.rows(), a.rows());
  SCIS_CHECK_EQ(plan.cols(), b.rows());
  const size_t n = a.rows(), m = b.rows(), d = a.cols();
  Matrix grad(n, d);
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, m * d),
                       [&](size_t rb, size_t re) {
    for (size_t i = rb; i < re; ++i) {
      const double* ai = a.row_data(i);
      const double* mi = ma.row_data(i);
      const double* pi = plan.row_data(i);
      double* gi = grad.row_data(i);
      const double prow = kernels::Sum(pi, m);
      for (size_t j = 0; j < m; ++j) {
        const double pij = pi[j];
        if (pij == 0.0) continue;
        kernels::ScaledMulAdd(-pij, mb.row_data(j), b.row_data(j), gi, d);
      }
      kernels::MaskedGradFinish(mi, ai, prow, gi, d);
    }
  });
  return grad;
}

Matrix ReferenceMaskedOtGradWrtB(const Matrix& plan, const Matrix& a,
                                 const Matrix& ma, const Matrix& b,
                                 const Matrix& mb) {
  return ReferenceMaskedOtGradWrtA(Transpose(plan), b, mb, a, ma);
}

DivergenceResult ReferenceMsStep(const Matrix& a, const Matrix& ma,
                                 const Matrix& b, const Matrix& mb,
                                 const SinkhornOptions& opts, bool with_bb,
                                 bool with_grad) {
  const SinkhornSolution ab =
      SolveSinkhorn(ReferenceMaskedCost(a, ma, b, mb), opts);
  const SinkhornSolution aa =
      SolveSinkhorn(ReferenceMaskedCost(a, ma, a, ma), opts);
  DivergenceResult out;
  out.value = 2.0 * ab.reg_value - aa.reg_value;
  if (with_bb) {
    out.value -= SolveSinkhorn(ReferenceMaskedCost(b, mb, b, mb), opts)
                     .reg_value;
  }
  if (with_grad) {
    Matrix g = ReferenceMaskedOtGradWrtA(ab.plan, a, ma, b, mb);
    MulScalarInPlace(g, 2.0);
    Matrix gs = ReferenceMaskedOtGradWrtA(aa.plan, a, ma, a, ma);
    AddInPlace(gs, ReferenceMaskedOtGradWrtB(aa.plan, a, ma, a, ma));
    SubInPlace(g, gs);
    out.grad_xbar = std::move(g);
  }
  return out;
}

std::vector<std::pair<size_t, double>> NaiveMaskedKnn(
    const Matrix& x, const Matrix& mask, const double* query,
    const double* query_mask, size_t k, size_t exclude) {
  SCIS_CHECK(x.SameShape(mask));
  std::vector<std::pair<size_t, double>> hits;
  for (size_t r = 0; r < x.rows(); ++r) {
    if (r == exclude) continue;
    double acc = 0.0;
    size_t overlap = 0;
    for (size_t j = 0; j < x.cols(); ++j) {
      if (query_mask[j] == 1.0 && mask(r, j) == 1.0) {
        const double diff = query[j] - x(r, j);
        acc += diff * diff;
        ++overlap;
      }
    }
    if (overlap == 0) continue;
    hits.push_back({r, acc / static_cast<double>(overlap)});
  }
  std::sort(hits.begin(), hits.end(),
            [](const std::pair<size_t, double>& a,
               const std::pair<size_t, double>& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

namespace {

double LogSumExp(const std::vector<double>& v) {
  const double hi = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(hi)) return hi;
  double acc = 0.0;
  for (const double x : v) acc += std::exp(x - hi);
  return hi + std::log(acc);
}

}  // namespace

OtOracle SolveEntropicOtOracle(const Matrix& cost, double lambda,
                               int max_iters, double tol) {
  SCIS_CHECK_GT(lambda, 0.0);
  const size_t n = cost.rows(), m = cost.cols();
  SCIS_CHECK(n > 0 && m > 0);
  const double log_a = -std::log(static_cast<double>(n));
  const double log_b = -std::log(static_cast<double>(m));

  // φ/ψ are log-domain scalings: P_ij = exp(φ_i + ψ_j − C_ij/λ).
  std::vector<double> phi(n, 0.0), psi(m, 0.0), buf(std::max(n, m));
  OtOracle out;
  for (int it = 0; it < max_iters; ++it) {
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      buf.resize(m);
      for (size_t j = 0; j < m; ++j) buf[j] = psi[j] - cost(i, j) / lambda;
      const double next = log_a - LogSumExp(buf);
      delta = std::max(delta, std::abs(next - phi[i]));
      phi[i] = next;
    }
    for (size_t j = 0; j < m; ++j) {
      buf.resize(n);
      for (size_t i = 0; i < n; ++i) buf[i] = phi[i] - cost(i, j) / lambda;
      const double next = log_b - LogSumExp(buf);
      delta = std::max(delta, std::abs(next - psi[j]));
      psi[j] = next;
    }
    out.iters = it + 1;
    if (delta < tol) {
      out.converged = true;
      break;
    }
  }

  out.plan = Matrix(n, m);
  double cost_acc = 0.0, entropy_acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double p = std::exp(phi[i] + psi[j] - cost(i, j) / lambda);
      out.plan(i, j) = p;
      cost_acc += p * cost(i, j);
      if (p > 0.0) entropy_acc += p * std::log(p);
    }
  }
  out.transport_cost = cost_acc;
  out.reg_value = cost_acc + lambda * entropy_acc;
  return out;
}

double OracleMsDivergence(const Matrix& xbar, const Matrix& x, const Matrix& m,
                          double lambda) {
  const Matrix cost_ab = NaiveMaskedCost(xbar, m, x, m);
  const Matrix cost_aa = NaiveMaskedCost(xbar, m, xbar, m);
  const Matrix cost_bb = NaiveMaskedCost(x, m, x, m);
  const double ab = SolveEntropicOtOracle(cost_ab, lambda).reg_value;
  const double aa = SolveEntropicOtOracle(cost_aa, lambda).reg_value;
  const double bb = SolveEntropicOtOracle(cost_bb, lambda).reg_value;
  return 2.0 * ab - aa - bb;
}

double EntropicOtGapBound(const Matrix& exact_cost,
                          const Matrix& approx_cost) {
  SCIS_CHECK(exact_cost.SameShape(approx_cost));
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  const double* c = exact_cost.data();
  const double* ct = approx_cost.data();
  for (size_t t = 0; t < exact_cost.size(); ++t) {
    const double d = ct[t] - c[t];
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // bound(c) = max(|lo − c|, |hi − c|) + |c|, minimized over candidate
  // shifts. The sup-norm term is piecewise linear in c with its minimum at
  // the interval midpoint; adding |c| keeps the optimum at one of these
  // four points.
  const double candidates[] = {0.0, 0.5 * (lo + hi), lo, hi};
  double best = std::numeric_limits<double>::infinity();
  for (const double cand : candidates) {
    const double sup = std::max(std::abs(lo - cand), std::abs(hi - cand));
    best = std::min(best, sup + std::abs(cand));
  }
  return best;
}

std::vector<double> NumericDimLossGrad(GenerativeImputer& model,
                                       const DimOptions& opts, const Matrix& x,
                                       const Matrix& m, double h) {
  DimTrainer trainer(opts);
  ParamStore& store = model.generator_params();
  std::vector<double> theta = store.ToFlat();
  std::vector<double> grad(theta.size());
  std::vector<double> probe = theta;
  for (size_t i = 0; i < theta.size(); ++i) {
    probe[i] = theta[i] + h;
    store.FromFlat(probe);
    const double up = trainer.EvalLoss(model, x, m);
    probe[i] = theta[i] - h;
    store.FromFlat(probe);
    const double down = trainer.EvalLoss(model, x, m);
    probe[i] = theta[i];
    grad[i] = (up - down) / (2.0 * h);
  }
  store.FromFlat(theta);
  return grad;
}

namespace {

// One backward pass per observed cell; `accumulate` receives the flattened
// per-cell parameter gradient ∂x̄_c/∂θ.
void ForEachCellGradient(
    GenerativeImputer& model, const Dataset& data,
    const std::function<void(const std::vector<double>&)>& accumulate) {
  ParamStore& store = model.generator_params();
  const size_t p = store.NumScalars();
  const Matrix& x = data.values();
  const Matrix& m = data.mask();
  std::vector<double> flat;
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) {
      if (m(i, j) != 1.0) continue;
      Tape tape;
      Var xbar = model.ReconstructOnTape(tape, x, m, /*train=*/false);
      Matrix one_hot(x.rows(), x.cols());
      one_hot(i, j) = 1.0;
      Var probe = Sum(Mul(xbar, tape.Constant(std::move(one_hot))));
      tape.Backward(probe);
      std::vector<Matrix> grads = store.CollectGrads();
      flat.clear();
      flat.reserve(p);
      for (const Matrix& g : grads) {
        flat.insert(flat.end(), g.data(), g.data() + g.size());
      }
      SCIS_CHECK_EQ(flat.size(), p);
      accumulate(flat);
    }
  }
}

}  // namespace

Matrix DenseGaussNewton(GenerativeImputer& model, const Dataset& data) {
  const size_t p = model.generator_params().NumScalars();
  Matrix h(p, p);
  ForEachCellGradient(model, data, [&](const std::vector<double>& g) {
    for (size_t i = 0; i < p; ++i) {
      if (g[i] == 0.0) continue;
      double* row = h.row_data(i);
      for (size_t j = 0; j < p; ++j) row[j] += g[i] * g[j];
    }
  });
  MulScalarInPlace(h, 1.0 / static_cast<double>(data.num_rows()));
  return h;
}

std::vector<double> DenseGaussNewtonDiag(GenerativeImputer& model,
                                         const Dataset& data) {
  const size_t p = model.generator_params().NumScalars();
  std::vector<double> diag(p, 0.0);
  ForEachCellGradient(model, data, [&](const std::vector<double>& g) {
    for (size_t i = 0; i < p; ++i) diag[i] += g[i] * g[i];
  });
  for (double& d : diag) d /= static_cast<double>(data.num_rows());
  return diag;
}

}  // namespace scis::testkit
