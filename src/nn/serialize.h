// Checkpoint (de)serialization: one binary, checksummed, mmap-able format,
// so trained models can be shipped and served (train SCIS once, impute many
// files with scis_impute, or serve them online with scis_serve).
//
// Layout (v3):
//   [8 bytes]  magic "scisck3c"
//   [u32]      endian tag 0x01020304 (little-endian files only)
//   [u32]      header CRC-32 over bytes [16, blob offset)
//   [u32]      blob CRC-32 over bytes [blob offset, end of file)
//   [u64]      blob offset (64-byte aligned)
//   [u32]      model tag length, then the tag bytes
//   [u32]      column count d, then per column:
//                [u32 kind][u32 num_categories][u32 name_len][name bytes]
//   [d f64]    normalizer lo, [d f64] normalizer hi
//   [u32]      param count, then per param:
//                [u32 name_len][name bytes][u64 rows][u64 cols]
//                [u64 offset]  — element offset into the value blob
//   [pad]      zero padding to the blob offset
//   [blob]     all parameter values, row-major f64, each param aligned to
//              64 bytes within the blob
// Integers and doubles are little-endian host layout; the whole file can be
// mmap-ed and the value blob used in place (zero-copy weight loading via
// MappedCheckpoint — engines keep the mapping alive for as long as they
// serve from it). Every byte past the endian tag is a checksum or covered
// by one, so a flipped bit anywhere is refused on load instead of served.
// Files without checksums (magic "scisckp3") and the retired "scis-params"
// text formats fail the magic check.
#ifndef SCIS_NN_SERIALIZE_H_
#define SCIS_NN_SERIALIZE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/param_store.h"

namespace scis {

// Per-column schema entry mirrored from data/dataset.h's ColumnMeta,
// expressed in plain types so nn stays independent of the data module.
struct CheckpointColumn {
  std::string name;
  int kind = 0;  // static_cast<int>(ColumnKind)
  int num_categories = 0;
};

// Everything beyond the weights that a loaded model needs to impute raw
// rows: the architecture tag, the column schema, and the min-max stats the
// training pipeline normalized with.
struct CheckpointMeta {
  std::string model;  // e.g. "GAIN"
  std::vector<CheckpointColumn> columns;
  std::vector<double> norm_lo, norm_hi;
};

struct NamedParam {
  std::string name;
  Matrix value;
};

struct Checkpoint {
  CheckpointMeta meta;
  std::vector<NamedParam> params;
};

// Writes a self-contained checkpoint (see format above): `meta` plus every
// parameter in `store`. meta.model must be set and meta.columns / norm_lo /
// norm_hi must agree in size. The file is written beside `path` and renamed
// over it, so existing mappings of `path` keep the previous contents.
Status SaveCheckpointBinary(const ParamStore& store, const CheckpointMeta& meta,
                            const std::string& path);

// A checkpoint mapped read-only into memory. Parameter values are views
// into the mapping (no copies); holders of a view must keep the
// MappedCheckpoint alive, which is why Map hands out a shared_ptr.
class MappedCheckpoint {
 public:
  struct ParamView {
    std::string name;
    size_t rows = 0, cols = 0;
    const double* data = nullptr;  // rows*cols doubles inside the mapping
  };

  // Maps `path` and verifies both checksums before trusting any field.
  // IoError when the file cannot be opened or mapped; InvalidArgument for a
  // wrong magic, a checksum mismatch, or a truncated or malformed layout.
  static Result<std::shared_ptr<const MappedCheckpoint>> Map(
      const std::string& path);

  ~MappedCheckpoint();
  MappedCheckpoint(const MappedCheckpoint&) = delete;
  MappedCheckpoint& operator=(const MappedCheckpoint&) = delete;

  const CheckpointMeta& meta() const { return meta_; }
  const std::vector<ParamView>& params() const { return params_; }

  // Deep-copies into an owning Checkpoint (retraining needs mutable
  // weights that outlive the mapping).
  Checkpoint ToCheckpoint() const;

 private:
  MappedCheckpoint() = default;

  CheckpointMeta meta_;
  std::vector<ParamView> params_;
  void* map_base_ = nullptr;
  size_t map_len_ = 0;
};

// Map + ToCheckpoint: an owning copy for callers that rebuild a trainable
// model (lifecycle, benches). Serving maps directly and stays zero-copy.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

}  // namespace scis

#endif  // SCIS_NN_SERIALIZE_H_
