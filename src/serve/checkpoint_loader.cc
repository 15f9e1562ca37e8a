#include "serve/checkpoint_loader.h"

#include <cmath>
#include <limits>

namespace scis::serve {

Result<std::shared_ptr<const ImputationEngine>> LoadAndValidateCheckpoint(
    const std::string& path, size_t expect_cols) {
  Result<std::shared_ptr<const ImputationEngine>> engine =
      ImputationEngine::Load(path);
  if (!engine.ok()) return engine.status();

  if (expect_cols != 0 && (*engine)->num_cols() != expect_cols) {
    return Status::InvalidArgument(
        "checkpoint " + path + " serves " +
        std::to_string((*engine)->num_cols()) + " columns, server expects " +
        std::to_string(expect_cols) + " — refusing the swap");
  }

  // Serveability probe: one all-missing row must impute to finite values.
  Matrix probe(1, (*engine)->num_cols(),
               std::numeric_limits<double>::quiet_NaN());
  Result<Matrix> out = (*engine)->ImputeBatch(probe);
  if (!out.ok()) {
    return Status::Internal("checkpoint " + path +
                            " failed the validation batch: " +
                            out.status().message());
  }
  for (size_t k = 0; k < out.value().size(); ++k) {
    if (!std::isfinite(out.value().data()[k])) {
      return Status::Internal(
          "checkpoint " + path +
          " imputes non-finite values — refusing the swap");
    }
  }
  return engine;
}

}  // namespace scis::serve
