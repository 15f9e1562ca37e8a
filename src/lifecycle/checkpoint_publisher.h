// CheckpointPublisher: the "deploy" step of the continuous-learning loop.
//
// Takes a retrained generator, persists it as a checkpoint (gen-%06u.bin
// under the publish directory — the same checksummed, mmap-able format the
// server cold-starts from, so any published generation can later be served
// standalone), re-loads it through serve::LoadAndValidateCheckpoint (the
// identical acceptance rules as the operator SIGHUP path, checksums
// included, so a generation corrupted on its way to disk never swaps in),
// replays a validation batch through the loaded engine, and only then
// hot-swaps it into the live server. Any failure after the file is written
// rolls back: the checkpoint file is deleted, the generation counter does
// not advance, and the server keeps serving the previous version — a bad
// retrain can cost a publish attempt, never a serving regression.
//
// The generation counter (lifecycle.generation gauge, lifecycle.swaps /
// lifecycle.rollbacks counters) is the serve-metrics audit trail of which
// model the server is on.
#ifndef SCIS_LIFECYCLE_CHECKPOINT_PUBLISHER_H_
#define SCIS_LIFECYCLE_CHECKPOINT_PUBLISHER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "nn/serialize.h"
#include "serve/engine.h"

namespace scis::lifecycle {

class CheckpointPublisher {
 public:
  // Installs a validated engine into the serving tier (normally
  // ImputationServer::HotSwap, injected so tests can capture the engine
  // directly).
  using SwapFn =
      std::function<Status(std::shared_ptr<const serve::ImputationEngine>)>;

  // Checkpoints are written under `dir` (created on first publish).
  CheckpointPublisher(std::string dir, SwapFn swap);

  // Saves params+meta as generation g+1 (gen-%06u.bin under dir()), then
  // Deploy()s it. Returns the published checkpoint path; on any failure the
  // file is removed and the generation is unchanged (rollback).
  Result<std::string> Publish(const ParamStore& params,
                              const CheckpointMeta& meta,
                              const Matrix& validation);

  // Validates the checkpoint written at `path` as generation g+1 and swaps
  // it in: it must load as a `cols`-wide model, and `validation` — raw rows
  // (NaN = missing), typically the drift reservoir so validation sees
  // current traffic — must impute with finite outputs and bit-exact
  // observed passthrough. Returns `path`; on any failure the file is
  // removed and the generation is unchanged (rollback).
  Result<std::string> Deploy(const std::string& path, size_t cols,
                             const Matrix& validation);

  // Generations successfully swapped so far (0 = still on the boot model).
  uint64_t generation() const { return generation_.load(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  SwapFn swap_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace scis::lifecycle

#endif  // SCIS_LIFECYCLE_CHECKPOINT_PUBLISHER_H_
