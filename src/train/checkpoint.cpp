#include "train/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/logging.hpp"
#include "tensor/serialize.hpp"

namespace roadfusion::train {
namespace {

constexpr char kModelMagic[4] = {'R', 'F', 'M', '1'};
constexpr char kLegacyCheckpointMagic[4] = {'R', 'F', 'C', '1'};
constexpr int32_t kModelFormatVersion = 1;

/// Cross-checks the loaded payload against the network's state, so a
/// truncated or architecture-mismatched file fails before any tensor is
/// overwritten. Error messages name the file and the offending parameter.
void validate_against_net(roadseg::RoadSegNet& net,
                          const tensor::NamedTensors& payload,
                          const std::string& path) {
  std::unordered_map<std::string, const tensor::Tensor*> by_name;
  by_name.reserve(payload.size());
  for (const auto& [name, t] : payload) {
    if (!by_name.emplace(name, &t).second) {
      throw CheckpointError("model file " + path +
                            " contains duplicate tensor '" + name + "'");
    }
  }
  size_t matched = 0;
  for (const nn::StateEntry& entry : net.state()) {
    const auto it = by_name.find(entry.name);
    if (it == by_name.end()) {
      throw CheckpointError("model file " + path + " is missing parameter '" +
                            entry.name +
                            "' required by this network configuration");
    }
    if (!(it->second->shape() == entry.tensor->shape())) {
      throw CheckpointError(
          "model file " + path + " has shape " + it->second->shape().str() +
          " for parameter '" + entry.name + "' but this network expects " +
          entry.tensor->shape().str());
    }
    ++matched;
  }
  if (matched != payload.size()) {
    // Identify one offending extra for the message.
    std::unordered_map<std::string, int> known;
    for (const nn::StateEntry& entry : net.state()) {
      known.emplace(entry.name, 0);
    }
    for (const auto& [name, t] : payload) {
      if (known.find(name) == known.end()) {
        throw CheckpointError("model file " + path +
                              " contains unknown parameter '" + name +
                              "' not present in this network configuration");
      }
    }
  }
}

}  // namespace

void save_model(roadseg::RoadSegNet& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  ROADFUSION_CHECK(out.is_open(), "cannot open model file for write: " << path);
  out.write(kModelMagic, sizeof(kModelMagic));
  out.write(reinterpret_cast<const char*>(&kModelFormatVersion),
            sizeof(kModelFormatVersion));
  tensor::write_checkpoint(out, nn::snapshot_state(net));
  ROADFUSION_CHECK(static_cast<bool>(out), "model write failed: " << path);
}

void load_model(roadseg::RoadSegNet& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw CheckpointError("cannot open model file for read: " + path);
  }
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in) {
    throw CheckpointError("model file " + path +
                          " is truncated: shorter than the 4-byte magic");
  }
  tensor::NamedTensors payload;
  try {
    if (std::memcmp(magic, kModelMagic, sizeof(magic)) == 0) {
      int32_t version = 0;
      in.read(reinterpret_cast<char*>(&version), sizeof(version));
      if (!in) {
        throw CheckpointError("model file " + path +
                              " is truncated: missing format version");
      }
      if (version != kModelFormatVersion) {
        throw CheckpointError(
            "model file " + path + " has unsupported format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(kModelFormatVersion) + ")");
      }
      payload = tensor::read_checkpoint(in, path);
    } else if (std::memcmp(magic, kLegacyCheckpointMagic, sizeof(magic)) ==
               0) {
      // Pre-header file: a bare RFC1 checkpoint. Still readable, but flag
      // it so stale caches get re-saved in the current format eventually.
      log_info("model file ", path,
               " has no RFM1 header (legacy format); loading anyway");
      in.seekg(0);
      payload = tensor::read_checkpoint(in, path);
    } else {
      throw CheckpointError("model file " + path +
                            " has unrecognized magic (neither RFM1 nor "
                            "legacy RFC1); not a roadfusion model");
    }
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    // Payload-level failures (truncation, bad tensor framing) surface from
    // tensor::read_checkpoint as plain Errors; retype with the path.
    throw CheckpointError(std::string("failed to read model file ") + path +
                          ": " + e.what());
  }
  validate_against_net(net, payload, path);
  nn::restore_state(net, payload);
}

std::string cache_key(const roadseg::RoadSegConfig& net_config,
                      const kitti::DatasetConfig& data_config,
                      const TrainConfig& train_config) {
  std::ostringstream key;
  key << core::short_name(net_config.scheme);
  key << "_c";
  for (int64_t c : net_config.stage_channels) {
    key << c << "-";
  }
  key << "_img" << data_config.image_height << "x" << data_config.image_width
      << "_cap" << data_config.max_per_category << "_seed"
      << data_config.seed;
  key << "_e" << train_config.epochs << "_b" << train_config.batch_size
      << "_lr" << train_config.lr << "_a" << train_config.alpha_fd << "_s"
      << train_config.shuffle_seed << (train_config.use_adam ? "_adam" : "_sgd");
  key << ".rfc";
  return key.str();
}

bool train_or_load(roadseg::RoadSegNet& net, const RoadDataset& dataset,
                   const TrainConfig& config, const std::string& cache_dir) {
  if (cache_dir.empty()) {
    fit(net, dataset, config);
    return true;
  }
  std::filesystem::create_directories(cache_dir);
  const std::string path =
      (std::filesystem::path(cache_dir) /
       cache_key(net.config(), dataset.config(), config))
          .string();
  if (std::filesystem::exists(path)) {
    // An unreadable entry is a cache miss: load_model validates before it
    // restores anything, so the net is untouched and retraining overwrites
    // the entry.
    try {
      load_model(net, path);
      log_info("loaded cached model: ", path);
      return false;
    } catch (const CheckpointError& e) {
      log_info("ignoring unreadable cached model (", e.what(), ")");
    }
  }
  log_info("training ", core::to_string(net.config().scheme),
           " (no cache hit at ", path, ")");
  fit(net, dataset, config);
  save_model(net, path);
  return true;
}

}  // namespace roadfusion::train
