#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "nn/module.hpp"
#include "tensor/serialize.hpp"
#include "train/checkpoint.hpp"

namespace roadfusion::train {
namespace {

using core::FusionScheme;
using kitti::DatasetConfig;
using kitti::RoadDataset;
using kitti::Split;
using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rf_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RoadSegConfig net_config(FusionScheme scheme = FusionScheme::kBaseline) {
    RoadSegConfig config;
    config.scheme = scheme;
    config.stage_channels = {4, 6, 8, 10, 12};
    return config;
  }

  DatasetConfig data_config() {
    DatasetConfig config;
    config.max_per_category = 3;
    return config;
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SaveLoadPreservesPredictions) {
  Rng rng(1);
  RoadSegNet net(net_config(), rng);
  net.set_training(false);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 16, 32), rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 16, 32), rng);
  const Tensor before = net.predict(rgb, depth);

  const std::string path = (dir_ / "model.rfc").string();
  save_model(net, path);

  Rng rng2(999);  // different init
  RoadSegNet restored(net_config(), rng2);
  restored.set_training(false);
  EXPECT_FALSE(restored.predict(rgb, depth).allclose(before, 1e-4f));
  load_model(restored, path);
  EXPECT_TRUE(restored.predict(rgb, depth).allclose(before, 1e-6f));
}

TEST_F(CheckpointTest, SharedSchemesRoundTrip) {
  Rng rng(2);
  RoadSegNet net(net_config(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 16, 32), rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 16, 32), rng);
  const Tensor before = net.predict(rgb, depth);
  const std::string path = (dir_ / "ws.rfc").string();
  save_model(net, path);
  Rng rng2(3);
  RoadSegNet restored(net_config(FusionScheme::kWeightedSharing), rng2);
  restored.set_training(false);
  load_model(restored, path);
  EXPECT_TRUE(restored.predict(rgb, depth).allclose(before, 1e-6f));
}

TEST_F(CheckpointTest, ModelFileStartsWithVersionedMagic) {
  Rng rng(41);
  RoadSegNet net(net_config(), rng);
  const std::string path = (dir_ / "header.rfc").string();
  save_model(net, path);
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  int32_t version = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  ASSERT_TRUE(static_cast<bool>(in));
  EXPECT_EQ(std::string(magic, 4), "RFM1");
  EXPECT_EQ(version, 1);
}

TEST_F(CheckpointTest, LegacyHeaderlessFileStillLoads) {
  Rng rng(42);
  RoadSegNet net(net_config(), rng);
  net.set_training(false);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 16, 32), rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 16, 32), rng);
  const Tensor before = net.predict(rgb, depth);

  // A pre-header model file is a bare RFC1 checkpoint on disk.
  const std::string path = (dir_ / "legacy.rfc").string();
  tensor::save_checkpoint(path, nn::snapshot_state(net));

  Rng rng2(43);
  RoadSegNet restored(net_config(), rng2);
  restored.set_training(false);
  load_model(restored, path);
  EXPECT_TRUE(restored.predict(rgb, depth).allclose(before, 1e-6f));
}

TEST_F(CheckpointTest, TruncatedFileFailsWithPathInError) {
  Rng rng(44);
  RoadSegNet net(net_config(), rng);
  const std::string path = (dir_ / "truncated.rfc").string();
  save_model(net, path);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);

  RoadSegNet victim(net_config(), rng);
  try {
    load_model(victim, path);
    FAIL() << "truncated file loaded without error";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error does not name the file: " << e.what();
  }
}

TEST_F(CheckpointTest, ArchitectureMismatchNamesTheParameter) {
  Rng rng(45);
  RoadSegNet net(net_config(), rng);
  const std::string path = (dir_ / "mismatch.rfc").string();
  save_model(net, path);

  // A different channel plan: same parameter names, different shapes.
  RoadSegConfig other = net_config();
  other.stage_channels = {6, 8, 10, 12, 14};
  RoadSegNet victim(other, rng);
  try {
    load_model(victim, path);
    FAIL() << "architecture mismatch loaded without error";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos)
        << "error does not name the file: " << what;
    EXPECT_NE(what.find("parameter '"), std::string::npos)
        << "error does not name the parameter: " << what;
  }
}

TEST_F(CheckpointTest, GarbageMagicIsRejected) {
  const std::string path = (dir_ / "garbage.rfc").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a model file at all";
  }
  Rng rng(46);
  RoadSegNet net(net_config(), rng);
  EXPECT_THROW(load_model(net, path), CheckpointError);
}

TEST_F(CheckpointTest, MissingFileFailsWithTypedError) {
  Rng rng(47);
  RoadSegNet net(net_config(), rng);
  EXPECT_THROW(load_model(net, (dir_ / "nonexistent.rfc").string()),
               CheckpointError);
}

TEST_F(CheckpointTest, CacheKeyDistinguishesConfigurations) {
  const DatasetConfig data = data_config();
  TrainConfig train_a;
  TrainConfig train_b;
  train_b.alpha_fd = 0.3f;
  const std::string key_a = cache_key(net_config(), data, train_a);
  const std::string key_b = cache_key(net_config(), data, train_b);
  EXPECT_NE(key_a, key_b);
  EXPECT_NE(cache_key(net_config(FusionScheme::kAllFilterU), data, train_a),
            key_a);
  DatasetConfig other_data = data;
  other_data.seed = 77;
  EXPECT_NE(cache_key(net_config(), other_data, train_a), key_a);
}

TEST_F(CheckpointTest, TrainOrLoadTrainsThenCaches) {
  RoadDataset dataset(data_config(), Split::kTrain);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 4;

  Rng rng(4);
  RoadSegNet net(net_config(), rng);
  EXPECT_TRUE(train_or_load(net, dataset, config, dir_.string()));

  Rng rng2(5);
  RoadSegNet net2(net_config(), rng2);
  EXPECT_FALSE(train_or_load(net2, dataset, config, dir_.string()));

  // Both nets now agree on predictions.
  net.set_training(false);
  net2.set_training(false);
  const kitti::Sample& sample = dataset.sample(0);
  EXPECT_TRUE(net2.predict(sample.rgb, sample.depth)
                  .allclose(net.predict(sample.rgb, sample.depth), 1e-6f));
}

TEST_F(CheckpointTest, TrainOrLoadRetrainsOverUnreadableEntry) {
  RoadDataset dataset(data_config(), Split::kTrain);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 4;
  Rng rng(7);
  RoadSegNet net(net_config(), rng);
  // A legacy RFC1 header whose big-endian entry count reads as 335544320
  // on this little-endian format: load_model must reject it...
  const std::filesystem::path path =
      dir_ / cache_key(net_config(), dataset.config(), config);
  {
    std::ofstream out(path, std::ios::binary);
    const char bytes[] = {'R', 'F', 'C', '1', 0, 0, 0, 0x14, 0, 0, 0, 0x72};
    out.write(bytes, sizeof(bytes));
  }
  EXPECT_THROW(load_model(net, path.string()), CheckpointError);

  // ...while train_or_load treats it as a miss: retrain, then overwrite the
  // entry with one that loads.
  EXPECT_TRUE(train_or_load(net, dataset, config, dir_.string()));
  Rng rng2(8);
  RoadSegNet reloaded(net_config(), rng2);
  EXPECT_NO_THROW(load_model(reloaded, path.string()));
  EXPECT_FALSE(train_or_load(reloaded, dataset, config, dir_.string()));
}

TEST_F(CheckpointTest, EmptyCacheDirAlwaysTrains) {
  RoadDataset dataset(data_config(), Split::kTrain);
  TrainConfig config;
  config.epochs = 1;
  Rng rng(6);
  RoadSegNet net(net_config(), rng);
  EXPECT_TRUE(train_or_load(net, dataset, config, ""));
  EXPECT_TRUE(train_or_load(net, dataset, config, ""));
}

}  // namespace
}  // namespace roadfusion::train
