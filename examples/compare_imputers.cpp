// Survey example: run every implemented imputation family on one dataset
// and print a Table-III-style comparison, plus a retrieval-augmented
// serving arm (GAIN generator + ANN index over the training rows, blended
// through the serving engine). Useful as a template for benchmarking your
// own data via ReadCsvDataset.
#include <cmath>
#include <cstdio>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/table.h"
#include "index/ann_index.h"
#include "serve/engine.h"

using namespace scis;

int main(int argc, char** argv) {
  double scale = 0.15;
  long long epochs = 10;
  std::string dataset = "Trial";
  FlagParser flags;
  flags.AddDouble("scale", &scale, "row-count multiplier vs the paper");
  flags.AddInt("epochs", &epochs, "deep-model training epochs");
  flags.AddString("dataset", &dataset,
                  "Trial|Emergency|Response|Search|Weather|Surveil");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }

  SyntheticSpec spec;
  for (const SyntheticSpec& s : AllCovidSpecs(scale)) {
    if (s.name == dataset) spec = s;
  }
  if (spec.name.empty()) {
    std::printf("unknown dataset %s\n", dataset.c_str());
    return 1;
  }

  PreparedData prep = PrepareData(spec, 0.2, 0.0, 42);
  std::printf("%s: %zu rows x %zu cols, %.1f%% missing after hold-out\n\n",
              spec.name.c_str(), prep.train.num_rows(),
              prep.train.num_cols(), 100.0 * prep.train.MissingRate());

  TablePrinter table({"Method", "RMSE", "Time (s)", "R_t (%)"});
  for (const std::string& name : KnownImputerNames()) {
    auto imp = MakeImputer(name, static_cast<int>(epochs), 42);
    if (!imp.ok()) continue;
    MethodResult r = RunPlain(**imp, prep);
    table.AddRow({r.method, StrFormat("%.4f", r.rmse),
                  FormatSeconds(r.seconds),
                  StrFormat("%.1f", r.sample_rate)});
  }
  // SCIS on top of the GAN-based models.
  for (const std::string& name : {std::string("GINN"), std::string("GAIN")}) {
    auto imp = MakeImputer(name, 1, 42);
    if (!imp.ok()) continue;
    auto* gen = dynamic_cast<GenerativeImputer*>(imp->get());
    ScisOptions opts;
    opts.validation_size = 300;
    opts.initial_size = 400;
    opts.dim.epochs = static_cast<int>(epochs);
    opts.dim.lambda = 130.0;
    opts.sse.epsilon = 0.001;
    MethodResult r = RunScis(*gen, opts, prep);
    table.AddRow({r.method, StrFormat("%.4f", r.rmse),
                  FormatSeconds(r.seconds),
                  StrFormat("%.1f", r.sample_rate)});
  }

  // Retrieval-augmented serving: train a plain GAIN generator, wrap it in
  // the serving engine together with an ANN index over the training rows,
  // and impute through the engine. PreparedData is already normalized, so
  // an identity normalizer (lo 0, hi 1) lets the engine consume its rows
  // directly; missing cells are NaN-coded as on the wire.
  do {
    auto imp = MakeImputer("GAIN", static_cast<int>(epochs), 42);
    if (!imp.ok()) break;
    Stopwatch watch;
    if (!(*imp)->Fit(prep.train).ok()) break;
    auto* gen = dynamic_cast<GenerativeImputer*>(imp->get());
    const ParamStore& store = gen->generator_params();

    const size_t d = prep.train.num_cols();
    Checkpoint ckpt;
    ckpt.meta.model = "GAIN";
    for (const ColumnMeta& c : prep.train.columns()) {
      ckpt.meta.columns.push_back(
          {c.name, static_cast<int>(c.kind), c.num_categories});
    }
    ckpt.meta.norm_lo.assign(d, 0.0);
    ckpt.meta.norm_hi.assign(d, 1.0);
    for (size_t id = 0; id < store.size(); ++id) {
      ckpt.params.push_back({store.name(id), store.value(id)});
    }

    serve::RetrievalOptions retrieval;
    auto engine = serve::ImputationEngine::FromCheckpoint(
        ckpt,
        index::AnnIndex::Build(prep.train.values(), prep.train.mask(), {}),
        retrieval);
    if (!engine.ok()) {
      std::printf("retrieval arm: %s\n", engine.status().ToString().c_str());
      break;
    }
    Matrix request = prep.train.values();
    for (size_t i = 0; i < request.rows(); ++i) {
      for (size_t j = 0; j < d; ++j) {
        if (!prep.train.IsObserved(i, j)) request(i, j) = std::nan("");
      }
    }
    Result<Matrix> served = (*engine)->ImputeBatch(request);
    if (!served.ok()) {
      std::printf("retrieval arm: %s\n", served.status().ToString().c_str());
      break;
    }
    table.AddRow({"GAIN+Retrieval",
                  StrFormat("%.4f",
                            MaskedRmse(*served, prep.truth, prep.eval_mask)),
                  FormatSeconds(watch.ElapsedSeconds()),
                  StrFormat("%.1f", 100.0)});
  } while (false);

  table.Print();
  return 0;
}
