#include "serve/engine.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matrix_ops.h"

namespace scis::serve {

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::Load(
    const std::string& path) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<const MappedCheckpoint> mapped,
                        MappedCheckpoint::Map(path));
  return FromMapped(std::move(mapped));
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::Load(
    const std::string& path, const std::string& index_path,
    const RetrievalOptions& retrieval) {
  SCIS_ASSIGN_OR_RETURN(Checkpoint ckpt, LoadCheckpoint(path));
  SCIS_ASSIGN_OR_RETURN(index::AnnIndex index,
                        index::AnnIndex::Load(index_path));
  return FromCheckpoint(ckpt, std::move(index), retrieval);
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::FromMapped(
    std::shared_ptr<const MappedCheckpoint> mapped) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("null mapped checkpoint");
  }
  std::vector<ParamRef> refs;
  refs.reserve(mapped->params().size());
  for (const MappedCheckpoint::ParamView& p : mapped->params()) {
    refs.push_back({&p.name, p.rows, p.cols, p.data});
  }
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromParts(mapped->meta(), refs));
  engine->mapped_ = std::move(mapped);  // keep the mmap alive for the views
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::FromCheckpoint(
    const Checkpoint& ckpt, index::AnnIndex index,
    const RetrievalOptions& retrieval) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromCheckpoint(ckpt));
  if (index.empty()) {
    return Status::InvalidArgument("retrieval index has no rows");
  }
  if (index.num_cols() != engine->num_cols()) {
    return Status::InvalidArgument(
        "retrieval index is " + std::to_string(index.num_cols()) +
        "-column, checkpoint schema is " +
        std::to_string(engine->num_cols()));
  }
  if (retrieval.k == 0 || retrieval.blend < 0.0 || retrieval.blend > 1.0) {
    return Status::InvalidArgument("retrieval needs k >= 1, blend in [0,1]");
  }
  engine->index_ = std::move(index);
  engine->retrieval_ = retrieval;
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::FromCheckpoint(
    const Checkpoint& ckpt) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromCheckpoint(ckpt));
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Result<std::shared_ptr<ImputationEngine>> ImputationEngine::BuildFromCheckpoint(
    const Checkpoint& ckpt) {
  std::vector<ParamRef> refs;
  refs.reserve(ckpt.params.size());
  for (const NamedParam& p : ckpt.params) {
    refs.push_back({&p.name, p.value.rows(), p.value.cols(), p.value.data()});
  }
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromParts(ckpt.meta, refs));
  // Copy the weights into engine-owned storage and retarget the views: the
  // caller's Checkpoint may not outlive the engine. Matrix moves keep their
  // heap buffers, so the views stay valid as owned_ grows.
  engine->owned_.reserve(ckpt.params.size());
  for (size_t l = 0; l < engine->layers_.size(); ++l) {
    for (WeightView* v : {&engine->layers_[l].w, &engine->layers_[l].b}) {
      Matrix copy(v->rows, v->cols);
      std::copy(v->data, v->data + copy.size(), copy.data());
      engine->owned_.push_back(std::move(copy));
      v->data = engine->owned_.back().data();
    }
  }
  return engine;
}

Result<std::shared_ptr<ImputationEngine>> ImputationEngine::BuildFromParts(
    const CheckpointMeta& meta, const std::vector<ParamRef>& params) {
  if (meta.model != "GAIN") {
    return Status::NotImplemented("serving supports feedforward GAIN-style "
                                  "generators; checkpoint model is '" +
                                  meta.model + "'");
  }
  const size_t d = meta.columns.size();
  if (d == 0) return Status::InvalidArgument("checkpoint has no columns");
  if (meta.norm_lo.size() != d || meta.norm_hi.size() != d) {
    return Status::InvalidArgument("normalizer stats disagree with schema");
  }
  for (size_t j = 0; j < d; ++j) {
    if (!std::isfinite(meta.norm_lo[j]) || !std::isfinite(meta.norm_hi[j]) ||
        meta.norm_hi[j] <= meta.norm_lo[j]) {
      return Status::InvalidArgument("normalizer stats invalid at column " +
                                     std::to_string(j));
    }
  }
  if (params.empty() || params.size() % 2 != 0) {
    return Status::InvalidArgument(
        "generator parameters must be (W, b) pairs; checkpoint has " +
        std::to_string(params.size()));
  }

  auto engine = std::shared_ptr<ImputationEngine>(new ImputationEngine());
  engine->model_ = meta.model;
  engine->lo_ = meta.norm_lo;
  engine->hi_ = meta.norm_hi;
  engine->columns_.reserve(d);
  for (const CheckpointColumn& c : meta.columns) {
    ColumnMeta cm;
    cm.name = c.name;
    cm.kind = static_cast<ColumnKind>(c.kind);
    cm.num_categories = c.num_categories;
    engine->columns_.push_back(std::move(cm));
  }

  // Reassemble the generator MLP: (W: in x out, b: 1 x out) pairs chained
  // [x, m] (2d) -> ... -> d, ReLU hidden / sigmoid output (GAIN §VI).
  const size_t num_layers = params.size() / 2;
  size_t expect_in = 2 * d;
  for (size_t l = 0; l < num_layers; ++l) {
    const ParamRef& w = params[2 * l];
    const ParamRef& b = params[2 * l + 1];
    if (w.rows != expect_in) {
      return Status::InvalidArgument(
          "layer " + std::to_string(l) + " weight '" + *w.name + "' is " +
          std::to_string(w.rows) + "-in, expected " +
          std::to_string(expect_in));
    }
    if (b.rows != 1 || b.cols != w.cols) {
      return Status::InvalidArgument("layer " + std::to_string(l) +
                                     " bias '" + *b.name +
                                     "' does not match its weight");
    }
    Layer layer;
    layer.w = {w.data, w.rows, w.cols};
    layer.b = {b.data, b.rows, b.cols};
    layer.sigmoid_out = (l + 1 == num_layers);
    expect_in = w.cols;
    engine->layers_.push_back(layer);
  }
  if (expect_in != d) {
    return Status::InvalidArgument("generator output width " +
                                   std::to_string(expect_in) +
                                   " does not match the " +
                                   std::to_string(d) + "-column schema");
  }
  return engine;
}

Result<Matrix> ImputationEngine::ImputeBatch(const Matrix& rows) const {
  SCIS_TRACE_SPAN("serve.engine.impute");
  static obs::Counter* rows_imputed =
      obs::Registry::Global().GetCounter("serve.engine.rows");
  if (rows.rows() == 0) return Status::InvalidArgument("empty request");
  const size_t d = num_cols();
  if (rows.cols() != d) {
    return Status::InvalidArgument("request has " +
                                   std::to_string(rows.cols()) +
                                   " columns, model expects " +
                                   std::to_string(d));
  }
  const size_t n = rows.rows();

  // Normalize with the stored training stats; missing cells (NaN) hold 0 in
  // x and 0 in m — exactly what MinMaxNormalizer::Transform produces.
  Matrix x(n, d), m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double v = rows(i, j);
      if (std::isnan(v)) continue;
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite value at cell (" +
                                       std::to_string(i) + ", " +
                                       std::to_string(j) + ")");
      }
      x(i, j) = (v - lo_[j]) / (hi_[j] - lo_[j]);
      m(i, j) = 1.0;
    }
  }

  // Generator forward pass through the same kernels nn::Mlp::Forward uses,
  // so values match the offline tape path bit-for-bit.
  Matrix h = ConcatCols(x, m);
  for (const Layer& layer : layers_) {
    h = AddRowBroadcastView(MatMulView(h, layer.w.data, layer.w.rows,
                                       layer.w.cols),
                            layer.b.data);
    h = layer.sigmoid_out ? Sigmoid(h) : Relu(h);
  }

  // Retrieval augmentation: blend each missing cell with the observed-value
  // mean of the k nearest training rows (normalized space, same mask-aware
  // metric as the offline kNN imputer). Cells no neighbour observes — and
  // rows with no co-observed coordinate, which retrieve nothing — keep the
  // pure generator value.
  if (!index_.empty()) {
    static obs::Counter* retrieved =
        obs::Registry::Global().GetCounter("serve.engine.retrieval_queries");
    static obs::Counter* blended =
        obs::Registry::Global().GetCounter("serve.engine.retrieval_cells");
    index::SearchOptions sopts;
    sopts.k = retrieval_.k;
    sopts.max_leaf_visits = retrieval_.max_leaf_visits;
    const double blend = retrieval_.blend;
    std::vector<index::Neighbor> nbrs;
    for (size_t i = 0; i < n; ++i) {
      index_.Search(x.row_data(i), m.row_data(i), sopts).swap(nbrs);
      retrieved->Add(1);
      if (nbrs.empty()) continue;
      for (size_t j = 0; j < d; ++j) {
        if (m(i, j) == 1.0) continue;
        double sum = 0.0, cnt = 0.0;
        for (const index::Neighbor& nb : nbrs) {
          sum += index_.mask()(nb.row, j) * index_.values()(nb.row, j);
          cnt += index_.mask()(nb.row, j);
        }
        if (cnt > 0.0) {
          h(i, j) = (1.0 - blend) * h(i, j) + blend * (sum / cnt);
          blended->Add(1);
        }
      }
    }
  }

  // Eq. 1 + inverse transform: observed cells keep their exact raw input;
  // missing cells denormalize the generator output with the stored stats,
  // matching MinMaxNormalizer::InverseTransform.
  Matrix out = rows;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (std::isnan(rows(i, j))) {
        out(i, j) = lo_[j] + h(i, j) * (hi_[j] - lo_[j]);
      }
    }
  }
  rows_imputed->Add(n);
  return out;
}

}  // namespace scis::serve
