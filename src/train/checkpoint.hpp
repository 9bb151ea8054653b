// Model checkpointing and the train-or-load cache used by the benchmark
// harness so that multiple benches can reuse one trained model.
//
// Model file format (since PR 3):
//   magic "RFM1" | int32 format_version | RFC1 named-tensor checkpoint
// Legacy headerless files (a bare RFC1 checkpoint, as written before the
// header existed) are still readable; load_model warns and continues.
// Every load validates the payload tensor-by-tensor against the target
// network (unknown names, missing names, shape mismatches) before any
// state is overwritten, so a truncated or architecture-mismatched file
// fails with a CheckpointError naming the path and the offending
// parameter instead of half-restoring garbage.
#pragma once

#include <string>

#include "roadseg/roadseg_net.hpp"
#include "train/trainer.hpp"

namespace roadfusion::train {

/// Thrown by load_model on an unreadable, truncated or mismatched model
/// file; the message names the path and, where applicable, the parameter.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what) : Error(what) {}
};

/// Saves the network's full state (parameters + batch-norm statistics)
/// with the RFM1 header.
void save_model(roadseg::RoadSegNet& net, const std::string& path);

/// Restores a state saved by save_model (or a legacy headerless RFC1
/// file, behind a warning). Throws CheckpointError on unreadable input or
/// any per-tensor name/shape mismatch with `net`.
void load_model(roadseg::RoadSegNet& net, const std::string& path);

/// Returns a cache filename that uniquely identifies (scheme, dataset,
/// training) settings, so stale checkpoints are never reused across
/// configurations.
std::string cache_key(const roadseg::RoadSegConfig& net_config,
                      const kitti::DatasetConfig& data_config,
                      const TrainConfig& train_config);

/// Loads the checkpoint if `cache_dir` holds one for this configuration;
/// otherwise trains the network and saves it. An entry load_model rejects
/// is logged and treated as a miss (retrained and overwritten). Returns
/// true when training actually ran. An empty `cache_dir` always trains.
bool train_or_load(roadseg::RoadSegNet& net, const RoadDataset& dataset,
                   const TrainConfig& config, const std::string& cache_dir);

}  // namespace roadfusion::train
