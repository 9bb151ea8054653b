// roadfusion — command-line front end for the RoadFusion library.
//
// Subcommands:
//   info                         architecture / complexity overview
//   train       [options]        train a model and save a checkpoint
//   eval        [options]        evaluate a checkpoint per road scene
//   infer       [options]        run one scene and write overlay images
//   batch-infer [options]        run a whole dataset through the batched
//                                multi-threaded inference runtime
//   profile     [options]        per-stage Feature Disparity of a model
//   dataset     [options]        export synthetic samples as PPM/PGM
//   metrics-dump [options]       run a synthetic workload, print the
//                                process metrics as Prometheus text
//   eval-matrix [options]        scenario corruption suite x fusion scheme
//                                score matrix with RGB-only regression gates
//   stream      [options]        temporally coherent frame stream through
//                                the front door with frame-to-frame reuse
//
// `infer`, `batch-infer` and `metrics-dump` accept `--trace FILE` to
// write a Chrome trace-event JSON of the run (chrome://tracing).
//
// Run `roadfusion <command> --help` for the options of each command.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.hpp"
#include "cli_args.hpp"
#include "common/env.hpp"
#include "eval/disparity_profile.hpp"
#include "eval/evaluator.hpp"
#include "kitti/dataset.hpp"
#include "kitti/directory_dataset.hpp"
#include "kitti/surface_normals.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "roadseg/roadseg_net.hpp"
#include "runtime/engine.hpp"
#include "runtime/fault_injection.hpp"
#include "scenario/eval_matrix.hpp"
#include "scenario/stream.hpp"
#include "serve/backoff.hpp"
#include "serve/front_door.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"
#include "vision/image_io.hpp"
#include "vision/overlay.hpp"

namespace {

using namespace roadfusion;

// ---------------------------------------------------------------------------
// Shared option handling
// ---------------------------------------------------------------------------

kitti::DatasetConfig dataset_config(const cli::Args& args) {
  kitti::DatasetConfig config;
  config.max_per_category = args.get_int("cap", 30);
  config.seed = static_cast<uint64_t>(args.get_int("data-seed", 42));
  config.use_surface_normals = args.has("normals");
  return config;
}

/// Builds the requested sample source: a file-backed dataset when --data
/// names a directory, the synthetic generator otherwise.
std::unique_ptr<kitti::RoadData> make_data(const cli::Args& args,
                                           kitti::Split split) {
  if (args.has("data")) {
    kitti::DirectoryDatasetConfig config;
    config.directory = args.get("data", "");
    return std::make_unique<kitti::DirectoryDataset>(config);
  }
  return std::make_unique<kitti::RoadDataset>(dataset_config(args), split);
}

/// Option `key` (default: `values[0]`) as the value whose kitti::to_string
/// it names — `--category` and `--lighting`.
template <typename Enum, size_t N>
Enum scene_option(const cli::Args& args, const char* key,
                  const Enum (&values)[N]) {
  const std::string name = args.get(key, kitti::to_string(values[0]));
  for (const Enum value : values) {
    if (name == kitti::to_string(value)) {
      return value;
    }
  }
  ROADFUSION_FAIL("unknown " << key << " " << name);
}

constexpr kitti::RoadCategory kCategories[] = {
    kitti::RoadCategory::kUM, kitti::RoadCategory::kUMM,
    kitti::RoadCategory::kUU};
constexpr kitti::Lighting kLightings[] = {
    kitti::Lighting::kDay, kitti::Lighting::kNight,
    kitti::Lighting::kOverexposure, kitti::Lighting::kShadows};

roadseg::RoadSegConfig net_config(const cli::Args& args) {
  roadseg::RoadSegConfig config;
  config.scheme = core::fusion_scheme_from_string(args.get("scheme", "WS"));
  config.depth_channels = args.has("normals") ? 3 : 1;
  return config;
}

/// Engine knobs shared by `infer` and `batch-infer`; both commands go
/// through the runtime so single-scene and batched inference exercise one
/// code path.
runtime::EngineConfig engine_config(const cli::Args& args) {
  runtime::EngineConfig config;
  config.threads = static_cast<int>(args.get_int("threads", 1));
  config.max_batch = static_cast<int>(args.get_int("max-batch", 4));
  config.max_wait_us = args.get_int("max-wait-us", 200);
  config.queue_capacity =
      static_cast<size_t>(args.get_int("queue-cap", 64));
  return config;
}

/// Enables span recording when --trace FILE was given. Call before the
/// traced work; pair with finish_trace() after it.
void start_trace(const cli::Args& args) {
  if (args.has("trace")) {
    ROADFUSION_CHECK(!args.get("trace", "").empty(),
                     "--trace needs a file path");
    obs::set_tracing_enabled(true);
  }
}

/// Stops recording and writes the Chrome trace-event JSON.
void finish_trace(const cli::Args& args) {
  if (args.has("trace")) {
    obs::set_tracing_enabled(false);
    const std::string path = args.get("trace", "");
    obs::write_chrome_trace(path);
    std::fprintf(stderr,
                 "wrote Chrome trace to %s (open in chrome://tracing or "
                 "ui.perfetto.dev)\n",
                 path.c_str());
  }
}

void print_runtime_stats(const runtime::RuntimeStats& stats) {
  std::printf(
      "runtime: %llu served / %llu batches (mean batch %.2f), "
      "%llu rejected\n"
      "faults:  %llu degraded  %llu failed  %llu timed out  "
      "%llu invalid rejected\n"
      "latency ms: mean %.2f  p50 %.2f  p99 %.2f   throughput %.2f req/s\n",
      static_cast<unsigned long long>(stats.requests_served),
      static_cast<unsigned long long>(stats.batches_formed),
      stats.mean_batch_size,
      static_cast<unsigned long long>(stats.queue_full_rejections),
      static_cast<unsigned long long>(stats.requests_degraded),
      static_cast<unsigned long long>(stats.requests_failed),
      static_cast<unsigned long long>(stats.requests_timed_out),
      static_cast<unsigned long long>(stats.invalid_input_rejections),
      stats.mean_latency_ms, stats.p50_latency_ms, stats.p99_latency_ms,
      stats.throughput_rps);
}

void print_scores(const char* tag, const eval::SegmentationScores& scores) {
  std::printf("  %-8s MaxF %6.2f  AP %6.2f  PRE %6.2f  REC %6.2f  IOU %6.2f\n",
              tag, scores.f_score, scores.ap, scores.precision, scores.recall,
              scores.iou);
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_info(const cli::Args& args) {
  args.allow_only({"help"});
  std::printf("%-16s %-10s %-10s %-28s\n", "scheme", "params(K)", "MACs(M)",
              "techniques");
  for (core::FusionScheme scheme : core::all_fusion_schemes()) {
    roadseg::RoadSegConfig config;
    config.scheme = scheme;
    tensor::Rng rng(1);
    roadseg::RoadSegNet net(config, rng);
    const nn::Complexity complexity = net.complexity(32, 96);
    std::string techniques;
    if (core::uses_fusion_filters(scheme)) {
      techniques += "fusion-filters ";
    }
    if (core::uses_layer_sharing(scheme)) {
      techniques += "layer-sharing ";
    }
    if (scheme == core::FusionScheme::kWeightedSharing) {
      techniques += "AWN";
    }
    if (techniques.empty()) {
      techniques = "element-wise sum";
    }
    std::printf("%-16s %-10.1f %-10.2f %-28s\n", core::to_string(scheme),
                complexity.params / 1e3, complexity.macs / 1e6,
                techniques.c_str());
  }
  return 0;
}

int cmd_train(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion train [--scheme Baseline|AU|AB|BS|WS] [--alpha A]\n"
        "                 [--epochs N] [--cap N] [--normals] [--augment]\n"
        "                 [--seed N] [--data dir] [--out model.rfc]\n");
    return 0;
  }
  args.allow_only({"scheme", "alpha", "epochs", "cap", "normals", "augment",
                   "seed", "out", "data", "data-seed", "help"});
  const auto train_set = make_data(args, kitti::Split::kTrain);

  tensor::Rng rng(static_cast<uint64_t>(args.get_int("seed", 42)));
  roadseg::RoadSegNet net(net_config(args), rng);
  train::TrainConfig config;
  config.epochs = static_cast<int>(args.get_int("epochs", 8));
  config.alpha_fd = static_cast<float>(args.get_double("alpha", 0.1));
  config.augment = args.has("augment");
  config.augment_config.depth_is_normals = args.has("normals");

  std::printf("training %s on %lld samples (alpha=%.2f, %d epochs)...\n",
              core::to_string(net.config().scheme),
              static_cast<long long>(train_set->size()), config.alpha_fd,
              config.epochs);
  const train::TrainHistory history = train::fit(net, *train_set, config);
  std::printf("loss: %.4f -> %.4f\n", history.epochs.front().total_loss,
              history.epochs.back().total_loss);

  const std::string out = args.get("out", "model.rfc");
  train::save_model(net, out);
  std::printf("saved %s\n", out.c_str());
  return 0;
}

int cmd_eval(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion eval --model model.rfc [--scheme WS] [--cap N]\n"
        "                [--normals] [--image-space] [--data dir]\n");
    return 0;
  }
  args.allow_only({"model", "scheme", "cap", "normals", "image-space",
                   "data", "data-seed", "help"});
  const auto test_set = make_data(args, kitti::Split::kTest);

  tensor::Rng rng(1);
  roadseg::RoadSegNet net(net_config(args), rng);
  train::load_model(net, args.get("model", "model.rfc"));

  eval::EvalConfig config;
  config.use_bev = !args.has("image-space");
  const eval::EvaluationResult result = evaluate(net, *test_set, config);
  std::printf("evaluation (%s space):\n",
              config.use_bev ? "bird's-eye" : "image");
  for (const auto& [category, scores] : result.per_category) {
    print_scores(kitti::to_string(category), scores);
  }
  print_scores("overall", result.overall);
  return 0;
}

int cmd_infer(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion infer --model model.rfc [--scheme WS]\n"
        "                 [--category UM|UMM|UU] [--lighting day|night|"
        "overexposure|shadows]\n"
        "                 [--scene-seed N] [--normals] [--threads N] [--out dir]\n"
        "                 [--trace trace.json] [--explain-plan]\n\n"
        "  --explain-plan  print the kernel-selection knob in force and\n"
        "                  the compiled inference plan (per-layer layout,\n"
        "                  kernel, fused epilogue, buffer slots; DESIGN.md\n"
        "                  §16), or why the autograd graph serves the net,\n"
        "                  before running\n");
    return 0;
  }
  args.allow_only({"model", "scheme", "category", "lighting", "scene-seed",
                   "normals", "threads", "out", "trace", "explain-plan",
                   "help"});
  tensor::Rng rng(1);
  roadseg::RoadSegNet net(net_config(args), rng);
  train::load_model(net, args.get("model", "model.rfc"));
  net.set_training(false);

  const kitti::RoadCategory category =
      scene_option(args, "category", kCategories);
  const kitti::Lighting lighting = scene_option(args, "lighting", kLightings);

  const kitti::DatasetConfig data = dataset_config(args);
  const vision::Camera camera(data.image_width, data.image_height,
                              data.fov_deg, data.cam_height, data.cam_pitch);
  const uint64_t scene_seed =
      static_cast<uint64_t>(args.get_int("scene-seed", 1));
  const kitti::Scene scene =
      kitti::Scene::generate(category, lighting, scene_seed);
  tensor::Rng noise(scene_seed ^ 0x5eedULL);
  const tensor::Tensor rgb = kitti::render_rgb(scene, camera, noise);
  const auto points = kitti::scan(scene, data.lidar, noise);
  const tensor::Tensor sparse =
      kitti::project_to_sparse_depth(points, camera);
  const tensor::Tensor depth =
      data.use_surface_normals
          ? kitti::normals_from_range(
                kitti::densify_range(sparse, data.depth), camera)
          : kitti::preprocess_depth(sparse, data.depth);
  const tensor::Tensor label = kitti::render_ground_truth(scene, camera);

  if (args.has("explain-plan")) {
    net.prepare_inference();
    std::fputs(
        plan::explain(net, 1, data.image_height, data.image_width).c_str(),
        stdout);
  }

  // Single-scene inference rides the same runtime as batch-infer: one
  // engine, one submitted request, one awaited future.
  start_trace(args);
  runtime::InferenceEngine engine(net, engine_config(args));
  const tensor::Tensor probability = engine.submit(rgb, depth).get().output;
  finish_trace(args);
  const auto scores = eval::score_sample(probability, label, camera, {});
  std::printf("%s / %s (seed %llu): MaxF %.2f IOU %.2f\n",
              kitti::to_string(category), kitti::to_string(lighting),
              static_cast<unsigned long long>(scene_seed), scores.f_score,
              scores.iou);

  const std::filesystem::path out_dir(args.get("out", "infer_out"));
  std::filesystem::create_directories(out_dir);
  vision::write_ppm((out_dir / "rgb.ppm").string(), rgb);
  if (!data.use_surface_normals) {
    vision::write_pgm((out_dir / "depth.pgm").string(), depth);
  } else {
    vision::write_ppm((out_dir / "normals.ppm").string(), depth);
  }
  vision::write_ppm(
      (out_dir / "overlay.ppm").string(),
      vision::overlay_segmentation(
          rgb, probability.reshaped(tensor::Shape::mat(camera.height(),
                                                       camera.width()))));
  std::printf("wrote %s/{rgb.ppm, %s, overlay.ppm}\n", out_dir.c_str(),
              data.use_surface_normals ? "normals.ppm" : "depth.pgm");
  return 0;
}

int cmd_batch_infer(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion batch-infer --model model.rfc [--scheme WS]\n"
        "                       [--data dir | --cap N] [--count N] "
        "[--normals]\n"
        "                       [--threads N] [--max-batch N] "
        "[--max-wait-us N]\n"
        "                       [--queue-cap N]\n"
        "                       [--deadline-ms N] [--max-retries N]\n"
        "                       [--inject-faults SPEC] [--out dir]\n\n"
        "Runs every scene of a dataset (a directory of PPM/PGM triples\n"
        "via --data, or the synthetic test split) through the batched\n"
        "multi-threaded inference runtime and writes one overlay per\n"
        "scene.\n\n"
        "  --deadline-ms N    per-request queue-wait budget; expired\n"
        "                     requests fail with DeadlineExceededError\n"
        "  --max-retries N    resubmits on queue-full / retry-after /\n"
        "                     deadline failures with capped jittered\n"
        "                     exponential backoff (default 0)\n"
        "  --backoff-ms N     base backoff window, ms (default 1)\n"
        "  --backoff-cap-ms N backoff window ceiling, ms (default 1000)\n"
        "  --backoff-seed N   jitter stream seed (default 0x5eed) — a fixed\n"
        "                     seed makes the retry schedule reproducible\n"
        "  --shards N         serve through the overload-safe front door\n"
        "                     with N engine shards (DESIGN.md §14); polite\n"
        "                     RetryAfterError rejections are honored with\n"
        "                     jittered backoff floored at retry_after_ms\n"
        "  --rate R           front-door tenant admission rate, tokens/s\n"
        "                     (default 0 = unlimited)\n"
        "  --burst B          front-door tenant burst capacity (default 1)\n"
        "  --inject-faults    deterministic fault spec, e.g.\n"
        "                     rate=0.1,seed=7,kinds=nan+slow (see DESIGN.md"
        " §9)\n"
        "  --trace FILE       write a Chrome trace-event JSON of the run\n");
    return 0;
  }
  args.allow_only({"model", "scheme", "data", "cap", "count", "normals",
                   "data-seed", "threads", "max-batch", "max-wait-us",
                   "queue-cap", "deadline-ms",
                   "max-retries", "backoff-ms", "backoff-cap-ms",
                   "backoff-seed", "shards", "rate", "burst",
                   "inject-faults", "out", "trace", "help"});
  const auto scenes = make_data(args, kitti::Split::kTest);
  tensor::Rng rng(1);
  roadseg::RoadSegNet net(net_config(args), rng);
  train::load_model(net, args.get("model", "model.rfc"));
  net.set_training(false);

  const int64_t count =
      std::min<int64_t>(scenes->size(), args.get_int("count", scenes->size()));
  const std::filesystem::path out_dir(args.get("out", "infer_out"));
  std::filesystem::create_directories(out_dir);

  runtime::EngineConfig engine_cfg = engine_config(args);
  engine_cfg.default_deadline_ms = args.get_int("deadline-ms", 0);
  const int max_retries = static_cast<int>(args.get_int("max-retries", 0));
  ROADFUSION_CHECK(max_retries >= 0, "--max-retries must be >= 0");
  const int shards = static_cast<int>(args.get_int("shards", 0));
  ROADFUSION_CHECK(shards >= 0, "--shards must be >= 0");
  serve::BackoffConfig backoff_cfg;
  backoff_cfg.base_ms = args.get_int("backoff-ms", 1);
  backoff_cfg.cap_ms = args.get_int("backoff-cap-ms", 1000);
  backoff_cfg.seed = static_cast<uint64_t>(args.get_int("backoff-seed", 0x5eed));

  std::unique_ptr<runtime::FaultInjector> injector;
  if (args.has("inject-faults")) {
    injector = std::make_unique<runtime::FaultInjector>(
        runtime::parse_fault_spec(args.get("inject-faults", "")));
    engine_cfg.pre_forward_hook = injector->engine_hook();
  }

  start_trace(args);
  // --shards N serves through the front door (admission control, brownout
  // ladder, sharded routing — DESIGN.md §14); the default stays a direct
  // single engine.
  std::unique_ptr<runtime::InferenceEngine> engine;
  std::unique_ptr<serve::FrontDoor> door;
  if (shards > 0) {
    serve::FrontDoorConfig door_cfg;
    door_cfg.shards = shards;
    door_cfg.engine = engine_cfg;
    door_cfg.default_limits.rate_per_s = args.get_double("rate", 0.0);
    door_cfg.default_limits.burst = args.get_double("burst", 1.0);
    door = std::make_unique<serve::FrontDoor>(net, door_cfg);
  } else {
    engine = std::make_unique<runtime::InferenceEngine>(net, engine_cfg);
  }
  std::printf("batch-infer: %lld scenes, %d threads, max batch %d%s%s\n",
              static_cast<long long>(count), engine_cfg.threads,
              engine_cfg.max_batch,
              door ? " (front door)" : "",
              injector ? " (fault injection on)" : "");

  // One request at a time in flight per scene, but all scenes submitted
  // before any future is awaited, so batching still forms. A failed
  // request is resubmitted (fresh tensors, no fault re-applied) up to
  // --max-retries times with capped jittered exponential backoff; a
  // RetryAfterError's hint floors the jittered delay.
  const auto start = std::chrono::steady_clock::now();
  struct Pending {
    std::future<runtime::InferenceResult> future;
    bool submit_failed = false;
    std::string submit_error;
  };
  serve::Backoff backoff(backoff_cfg);
  const auto sleep_backoff = [&](int64_t floor_ms) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.next_delay_ms(floor_ms)));
  };
  const auto submit_once = [&](int64_t i, bool with_fault) -> Pending {
    const kitti::Sample& sample = scenes->sample(i);
    tensor::Tensor rgb = sample.rgb;
    tensor::Tensor depth = sample.depth;
    if (with_fault && injector) {
      if (const auto kind = injector->draw()) {
        std::printf("  injecting %s fault into scene %lld\n",
                    runtime::to_string(*kind), static_cast<long long>(i));
        injector->apply(*kind, rgb, depth);
      }
    }
    Pending pending;
    backoff.reset();
    for (int attempt = 0;; ++attempt) {
      try {
        pending.future =
            door ? door->submit(std::move(rgb), std::move(depth), {})
                 : engine->submit(std::move(rgb), std::move(depth));
        return pending;
      } catch (const runtime::QueueFullError& e) {
        if (attempt >= max_retries) {
          pending.submit_failed = true;
          pending.submit_error = e.what();
          return pending;
        }
        sleep_backoff(0);
      } catch (const serve::RetryAfterError& e) {
        if (attempt >= max_retries) {
          pending.submit_failed = true;
          pending.submit_error = e.what();
          return pending;
        }
        // Honor the server's hint: never retry before retry_after_ms.
        sleep_backoff(e.retry_after_ms());
      } catch (const runtime::InvalidInputError& e) {
        pending.submit_failed = true;
        pending.submit_error = e.what();
        return pending;
      }
      // submit moved from the tensors only on success; reload them.
      rgb = sample.rgb;
      depth = sample.depth;
    }
  };

  std::vector<Pending> pending;
  pending.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    pending.push_back(submit_once(i, /*with_fault=*/true));
  }

  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  for (int64_t i = 0; i < count; ++i) {
    Pending& p = pending[static_cast<size_t>(i)];
    tensor::Tensor probability;
    bool served = false;
    for (int attempt = 0; attempt <= max_retries && !served; ++attempt) {
      if (p.submit_failed) {
        break;
      }
      try {
        runtime::InferenceResult result = p.future.get();
        if (result.degraded) {
          ++degraded;
        }
        probability = std::move(result.output);
        served = true;
      } catch (const runtime::DeadlineExceededError&) {
        if (attempt < max_retries) {
          p = submit_once(i, /*with_fault=*/false);  // retry clean
        }
      } catch (const roadfusion::Error& e) {
        p.submit_failed = true;
        p.submit_error = e.what();
      }
    }
    if (!served) {
      ++failed;
      std::fprintf(stderr, "scene %lld failed: %s\n",
                   static_cast<long long>(i),
                   p.submit_error.empty() ? "deadline exceeded after retries"
                                          : p.submit_error.c_str());
      continue;
    }
    ++ok;
    const kitti::Sample& sample = scenes->sample(i);
    const int64_t height = sample.rgb.shape().dim(1);
    const int64_t width = sample.rgb.shape().dim(2);
    char name[64];
    std::snprintf(name, sizeof(name), "%s_%04lld_overlay.ppm",
                  kitti::to_string(sample.category),
                  static_cast<long long>(i));
    vision::write_ppm(
        (out_dir / name).string(),
        vision::overlay_segmentation(
            sample.rgb,
            probability.reshaped(tensor::Shape::mat(height, width))));
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (door) {
    door->shutdown(runtime::ShutdownMode::kDrain);
  } else {
    engine->shutdown(runtime::ShutdownMode::kDrain);
  }
  finish_trace(args);

  if (door) {
    const serve::FrontDoorStats ds = door->stats();
    std::printf(
        "front door: %llu submitted, %llu admitted, %llu rate-limited, "
        "%llu shed, %llu shard-full, %llu forced degraded, %llu spills; "
        "tier entries [%llu, %llu, %llu]\n",
        static_cast<unsigned long long>(ds.submitted),
        static_cast<unsigned long long>(ds.admitted),
        static_cast<unsigned long long>(ds.rate_limited),
        static_cast<unsigned long long>(ds.shed),
        static_cast<unsigned long long>(ds.shard_full),
        static_cast<unsigned long long>(ds.forced_degraded),
        static_cast<unsigned long long>(ds.spills),
        static_cast<unsigned long long>(ds.tier_entries[0]),
        static_cast<unsigned long long>(ds.tier_entries[1]),
        static_cast<unsigned long long>(ds.tier_entries[2]));
    print_runtime_stats(ds.engine);
  } else {
    print_runtime_stats(engine->stats());
  }
  std::printf(
      "wrote %lld overlays to %s (%.2f scenes/s); %lld ok, %lld degraded, "
      "%lld failed\n",
      static_cast<long long>(ok), out_dir.c_str(),
      elapsed_s > 0.0 ? static_cast<double>(count) / elapsed_s : 0.0,
      static_cast<long long>(ok), static_cast<long long>(degraded),
      static_cast<long long>(failed));
  return failed == 0 ? 0 : 1;
}

int cmd_profile(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion profile --model model.rfc [--scheme WS] [--cap N]\n"
        "                   [--samples N] [--normals]\n");
    return 0;
  }
  args.allow_only({"model", "scheme", "cap", "samples", "normals", "data",
                   "data-seed", "help"});
  const auto test_set = make_data(args, kitti::Split::kTest);
  tensor::Rng rng(1);
  roadseg::RoadSegNet net(net_config(args), rng);
  train::load_model(net, args.get("model", "model.rfc"));

  eval::DisparityProfileConfig config;
  config.max_samples = static_cast<int>(args.get_int("samples", 10));
  const eval::DisparityProfile profile =
      eval::profile_disparity(net, *test_set, config);
  std::printf("Feature Disparity per fusion stage (%d samples):\n",
              profile.samples);
  for (size_t stage = 0; stage < profile.per_stage.size(); ++stage) {
    std::printf("  stage %zu: %.4f\n", stage + 1, profile.per_stage[stage]);
  }
  std::printf("  mean %.4f (mid %.4f, deep %.4f)\n", profile.mean(),
              profile.mid_mean(), profile.deep_mean());
  return 0;
}

int cmd_dataset(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion dataset [--split train|test] [--count N] [--normals]\n"
        "                   [--out dir]\n");
    return 0;
  }
  args.allow_only({"split", "count", "normals", "out", "cap", "data-seed",
                   "help"});
  kitti::DatasetConfig data = dataset_config(args);
  const kitti::Split split =
      args.get("split", "train") == "test" ? kitti::Split::kTest
                                           : kitti::Split::kTrain;
  const kitti::RoadDataset dataset(data, split);
  const int64_t count =
      std::min<int64_t>(dataset.size(), args.get_int("count", 9));
  const std::filesystem::path out_dir(args.get("out", "dataset_out"));
  std::filesystem::create_directories(out_dir);
  for (int64_t i = 0; i < count; ++i) {
    const kitti::Sample& sample =
        dataset.sample(i * std::max<int64_t>(1, dataset.size() / count));
    const std::string stem = std::string(kitti::to_string(sample.category)) +
                             "_" + kitti::to_string(sample.lighting) + "_" +
                             std::to_string(i);
    vision::write_ppm((out_dir / (stem + "_rgb.ppm")).string(), sample.rgb);
    if (sample.depth.shape().dim(0) == 1) {
      vision::write_pgm((out_dir / (stem + "_depth.pgm")).string(),
                        sample.depth);
    } else {
      vision::write_ppm((out_dir / (stem + "_normals.ppm")).string(),
                        sample.depth);
    }
    vision::write_pgm((out_dir / (stem + "_label.pgm")).string(),
                      sample.label.reshaped(tensor::Shape::mat(
                          data.image_height, data.image_width)));
  }
  std::printf("wrote %lld sample triples to %s\n",
              static_cast<long long>(count), out_dir.c_str());
  return 0;
}

int cmd_metrics_dump(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion metrics-dump [--count N] [--threads N] [--max-batch N]\n"
        "                        [--max-wait-us N] [--queue-cap N]\n"
        "                        [--scheme Baseline|AU|AB|BS|WS] [--normals]\n"
        "                        [--cap N] [--data-seed N]\n"
        "                        [--trace trace.json]\n\n"
        "Runs N synthetic scenes (untrained weights — no checkpoint needed)\n"
        "through the batched inference runtime, then prints every metric of\n"
        "the process-wide registry in Prometheus text exposition format on\n"
        "stdout. Informational output goes to stderr so stdout stays\n"
        "machine-parseable.\n");
    return 0;
  }
  args.allow_only({"count", "threads", "max-batch", "max-wait-us",
                   "queue-cap", "scheme", "normals", "cap", "data-seed",
                   "trace", "help"});
  const kitti::RoadDataset scenes(dataset_config(args), kitti::Split::kTest);
  tensor::Rng rng(1);
  roadseg::RoadSegNet net(net_config(args), rng);
  net.set_training(false);

  const int64_t count =
      std::min<int64_t>(scenes.size(), args.get_int("count", 4));
  start_trace(args);
  {
    runtime::InferenceEngine engine(net, engine_config(args));
    std::vector<std::future<runtime::InferenceResult>> futures;
    futures.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      const kitti::Sample& sample = scenes.sample(i);
      futures.push_back(engine.submit(sample.rgb, sample.depth));
    }
    for (auto& future : futures) {
      future.get();
    }
    engine.shutdown(runtime::ShutdownMode::kDrain);
  }
  finish_trace(args);
  std::fprintf(stderr, "metrics after %lld synthetic scenes:\n",
               static_cast<long long>(count));
  const std::string text = obs::MetricsRegistry::global().render_prometheus();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

/// Splits a comma-separated scenario list into parsed specs.
std::vector<scenario::ScenarioSpec> parse_suite(const std::string& text) {
  std::vector<scenario::ScenarioSpec> suite;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string item = text.substr(start, comma - start);
    ROADFUSION_CHECK(!item.empty(),
                     "--scenarios: empty entry in '" << text << "'");
    suite.push_back(scenario::parse_scenario(item));
    start = comma + 1;
    if (comma == text.size()) {
      break;
    }
  }
  return suite;
}

int cmd_eval_matrix(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion eval-matrix [--epochs N] [--cap N] [--train-cap N]\n"
        "                       [--alpha A] [--seed N] [--data-seed N]\n"
        "                       [--scenarios LIST] [--corruption-seed N]\n"
        "                       [--tolerance X] [--image-space] [--smoke]\n"
        "                       [--out FILE]\n\n"
        "Trains one tiny model per fusion scheme, replays the scenario\n"
        "corruption suite against every scheme plus an RGB-only degraded\n"
        "baseline, and gates: fused MaxF must not trail RGB-only by more\n"
        "than --tolerance on any scenario (exit 1 on violation). The cell\n"
        "matrix is printed as a table; --out writes it as deterministic\n"
        "JSON (BENCH_scenarios.json).\n\n"
        "  --scenarios LIST comma-separated scenario specs, e.g.\n"
        "                   'clean,fog:0.6,storm=rain:0.5+night:0.4'\n"
        "                   (default: the standard suite)\n"
        "  --epochs N       training epochs per scheme (0 = untrained)\n"
        "  --tolerance X    gate slack in MaxF percentage points\n"
        "  --smoke          tiny caps / few epochs — fast, CI-grade\n");
    return 0;
  }
  args.allow_only({"epochs", "cap", "train-cap", "alpha", "seed", "data-seed",
                   "scenarios", "corruption-seed", "tolerance", "image-space",
                   "smoke", "out", "help"});
  const bool smoke = args.has("smoke");

  kitti::DatasetConfig data_config;
  data_config.seed = static_cast<uint64_t>(args.get_int("data-seed", 42));
  data_config.max_per_category = args.get_int("cap", smoke ? 2 : 6);
  const kitti::RoadDataset test_set(data_config, kitti::Split::kTest);
  kitti::DatasetConfig train_config = data_config;
  train_config.max_per_category = args.get_int("train-cap", smoke ? 3 : 10);
  const kitti::RoadDataset train_set(train_config, kitti::Split::kTrain);

  train::TrainConfig train_cfg;
  train_cfg.epochs = static_cast<int>(args.get_int("epochs", smoke ? 2 : 6));
  train_cfg.alpha_fd = static_cast<float>(args.get_double("alpha", 0.1));

  // One model per scheme, identically seeded and identically trained, so
  // the columns differ only by fusion architecture.
  std::vector<std::unique_ptr<roadseg::RoadSegNet>> nets;
  std::vector<scenario::SchemeModel> schemes;
  for (core::FusionScheme scheme : core::all_fusion_schemes()) {
    roadseg::RoadSegConfig config;
    config.scheme = scheme;
    tensor::Rng rng(static_cast<uint64_t>(args.get_int("seed", 42)));
    auto net = std::make_unique<roadseg::RoadSegNet>(config, rng);
    if (train_cfg.epochs > 0) {
      std::fprintf(stderr, "training %s (%d epochs, %lld samples)...\n",
                   core::short_name(scheme), train_cfg.epochs,
                   static_cast<long long>(train_set.size()));
      train::fit(*net, train_set, train_cfg);
    }
    net->set_training(false);
    schemes.push_back({core::short_name(scheme), net.get()});
    nets.push_back(std::move(net));
  }

  const std::vector<scenario::ScenarioSpec> suite =
      args.has("scenarios") ? parse_suite(args.get("scenarios", ""))
                            : scenario::standard_suite();
  scenario::EvalMatrixConfig matrix_config;
  matrix_config.eval.use_bev = !args.has("image-space");
  matrix_config.corruption_seed = static_cast<uint64_t>(
      args.get_int("corruption-seed",
                   static_cast<int64_t>(matrix_config.corruption_seed)));
  const scenario::EvalMatrix matrix =
      scenario::run_eval_matrix(schemes, test_set, suite, matrix_config);

  std::printf("%-14s %-10s %7s %7s %7s %7s %9s\n", "scenario", "scheme",
              "MaxF", "AP", "IOU", "dRGB", "degraded");
  for (const scenario::EvalCell& cell : matrix.cells) {
    std::printf("%-14s %-10s %7.2f %7.2f %7.2f %+7.2f %8.0f%%\n",
                cell.scenario.c_str(), cell.scheme.c_str(),
                cell.scores.f_score, cell.scores.ap, cell.scores.iou,
                cell.scores.f_score - cell.rgb_only.f_score,
                cell.degraded_fraction * 100.0);
  }

  if (args.has("out")) {
    const std::string path = args.get("out", "BENCH_scenarios.json");
    const std::string json = scenario::to_json(matrix);
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ROADFUSION_CHECK(file != nullptr, "eval-matrix: cannot open " << path);
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

  const double tolerance = args.get_double("tolerance", 1.0);
  const std::vector<scenario::GateViolation> violations =
      scenario::check_fusion_gates(matrix, tolerance);
  for (const scenario::GateViolation& v : violations) {
    std::fprintf(stderr,
                 "GATE VIOLATION: %s x %s: fused MaxF %.2f < own rgb_only "
                 "%.2f - tolerance %.2f\n",
                 v.scenario.c_str(), v.scheme.c_str(), v.fused_max_f,
                 v.rgb_only_max_f, tolerance);
  }
  if (violations.empty()) {
    std::printf("gate passed: fused >= own rgb_only - %.2f MaxF pp on all "
                "%zu scenario(s)\n",
                tolerance, matrix.scenarios.size());
    return 0;
  }
  return 1;
}

int cmd_stream(const cli::Args& args) {
  if (args.has("help")) {
    std::printf(
        "roadfusion stream [--model model.rfc] [--scheme WS] [--frames N]\n"
        "                  [--scenario SPEC] [--lidar-period N]\n"
        "                  [--advance M] [--slo-ms X] [--no-reuse]\n"
        "                  [--verify] [--category UM|UMM|UU]\n"
        "                  [--lighting day|night|overexposure|shadows]\n"
        "                  [--scene-seed N] [--threads N] [--max-batch N]\n"
        "                  [--max-wait-us N] [--queue-cap N]\n"
        "                  [--trace trace.json]\n\n"
        "Drives a temporally coherent frame sequence (one scene, ego\n"
        "advancing --advance m/frame, LiDAR refreshing every\n"
        "--lidar-period frames) through the serving front door with\n"
        "frame-to-frame reuse: tiled depth preprocessing plus a cross-\n"
        "frame depth-feature cache that skips the depth encoder between\n"
        "LiDAR refreshes. --no-reuse recomputes everything per frame\n"
        "(bitwise-identical outputs, full cost). --verify recomputes\n"
        "every frame independently and checks the streamed outputs are\n"
        "bit-identical.\n");
    return 0;
  }
  args.allow_only({"model", "scheme", "frames", "scenario", "lidar-period",
                   "advance", "slo-ms", "no-reuse", "verify", "category",
                   "lighting", "scene-seed", "noise-seed", "corruption-seed",
                   "threads", "max-batch", "max-wait-us", "queue-cap",
                   "trace", "help"});

  roadseg::RoadSegConfig net_cfg;
  net_cfg.scheme = core::fusion_scheme_from_string(args.get("scheme", "WS"));
  tensor::Rng rng(1);
  roadseg::RoadSegNet net(net_cfg, rng);
  if (args.has("model")) {
    train::load_model(net, args.get("model", "model.rfc"));
  }
  net.set_training(false);

  const scenario::ScenarioSpec spec =
      scenario::parse_scenario(args.get("scenario", "clean"));

  scenario::StreamConfig stream_cfg;
  stream_cfg.corruptions = spec.corruptions;
  stream_cfg.advance_m = args.get_double("advance", stream_cfg.advance_m);
  stream_cfg.lidar_period =
      static_cast<int>(args.get_int("lidar-period", stream_cfg.lidar_period));
  stream_cfg.scene_seed = static_cast<uint64_t>(
      args.get_int("scene-seed", static_cast<int64_t>(stream_cfg.scene_seed)));
  stream_cfg.noise_seed = static_cast<uint64_t>(
      args.get_int("noise-seed", static_cast<int64_t>(stream_cfg.noise_seed)));
  stream_cfg.corruption_seed = static_cast<uint64_t>(args.get_int(
      "corruption-seed", static_cast<int64_t>(stream_cfg.corruption_seed)));
  stream_cfg.frame_to_frame_reuse = !args.has("no-reuse");
  stream_cfg.category = scene_option(args, "category", kCategories);
  stream_cfg.lighting = scene_option(args, "lighting", kLightings);

  serve::FrontDoorConfig door_cfg;
  door_cfg.shards = 1;
  door_cfg.engine = engine_config(args);

  const int64_t frames = args.get_int("frames", 30);
  scenario::StreamSessionConfig session_cfg;
  session_cfg.scenario = spec.name;
  session_cfg.slo_ms = args.get_double("slo-ms", 0.0);
  session_cfg.use_feature_cache = stream_cfg.frame_to_frame_reuse;

  start_trace(args);
  std::vector<scenario::StreamFrameResult> results;
  scenario::StreamSessionStats stats;
  kitti::TiledPreprocStats tiles;
  double elapsed_ms = 0.0;
  {
    serve::FrontDoor door(net, door_cfg);
    scenario::StreamGenerator generator(stream_cfg);
    scenario::StreamSession session(door, generator, session_cfg);
    const auto start = std::chrono::steady_clock::now();
    results = session.run(frames);
    elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    stats = session.stats();
    tiles = generator.preproc_stats();
    door.shutdown();
  }
  finish_trace(args);

  std::printf(
      "stream: %lld frames in %.1f ms  (%.2f frames/s)  scenario=%s "
      "reuse=%s\n"
      "        cache hits %lld / misses %lld   tiles reused %lld / %lld\n"
      "        degraded %lld   latency mean %.2f ms  max %.2f ms\n",
      static_cast<long long>(stats.frames), elapsed_ms,
      elapsed_ms > 0.0 ? 1000.0 * static_cast<double>(stats.frames) /
                             elapsed_ms
                       : 0.0,
      spec.name.c_str(), stream_cfg.frame_to_frame_reuse ? "on" : "off",
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.cache_misses),
      static_cast<long long>(tiles.tiles_reused),
      static_cast<long long>(tiles.tiles_total),
      static_cast<long long>(stats.degraded_frames),
      stats.frames > 0
          ? stats.total_latency_ms / static_cast<double>(stats.frames)
          : 0.0,
      stats.max_latency_ms);
  if (session_cfg.slo_ms > 0.0) {
    std::printf("        SLO %.2f ms: %lld miss(es)\n", session_cfg.slo_ms,
                static_cast<long long>(stats.slo_misses));
  }

  if (args.has("verify")) {
    // Replay the identical stream with every shortcut disabled and compare
    // outputs bitwise — the reuse machinery must be invisible.
    scenario::StreamConfig naive_cfg = stream_cfg;
    naive_cfg.frame_to_frame_reuse = false;
    scenario::StreamGenerator reference(naive_cfg);
    int64_t mismatches = 0;
    for (const scenario::StreamFrameResult& result : results) {
      const scenario::StreamFrame frame = reference.next();
      const tensor::Tensor expected =
          result.degraded ? net.predict_fused(frame.rgb, frame.depth, 0.0f)
                          : net.predict(frame.rgb, frame.depth);
      const bool equal =
          expected.shape() == result.output.shape() &&
          std::memcmp(expected.raw(), result.output.raw(),
                      static_cast<size_t>(expected.shape().numel()) *
                          sizeof(float)) == 0;
      if (!equal) {
        ++mismatches;
      }
    }
    std::printf("verify: %lld/%lld frames bitwise-identical to independent "
                "inference\n",
                static_cast<long long>(frames - mismatches),
                static_cast<long long>(frames));
    if (mismatches > 0) {
      return 1;
    }
  }
  return 0;
}

void print_usage(std::FILE* stream) {
  std::fprintf(
      stream,
      "roadfusion — camera/LiDAR fusion road segmentation (DAC'22 "
      "reproduction)\n\n"
      "usage: roadfusion <command> [options]\n\n"
      "commands:\n"
      "  info         architecture / complexity overview of the 5 schemes\n"
      "  train        train a model on the synthetic KITTI-road dataset\n"
      "  eval         evaluate a checkpoint per road scene (BEV)\n"
      "  infer        run one scene, write rgb/depth/overlay images\n"
      "  batch-infer  run a dataset through the batched inference runtime\n"
      "  profile      per-stage Feature Disparity of a trained model\n"
      "  dataset      export synthetic samples as PPM/PGM files\n"
      "  metrics-dump run a synthetic workload, print Prometheus metrics\n"
      "  eval-matrix  scenario corruption suite x fusion scheme score "
      "matrix\n"
      "  stream       temporally coherent frames with frame-to-frame "
      "reuse\n\n"
      "run 'roadfusion <command> --help' for per-command options\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  try {
    const cli::Args args(argc, argv, 2);
    if (command == "info") {
      return cmd_info(args);
    }
    if (command == "train") {
      return cmd_train(args);
    }
    if (command == "eval") {
      return cmd_eval(args);
    }
    if (command == "infer") {
      return cmd_infer(args);
    }
    if (command == "batch-infer") {
      return cmd_batch_infer(args);
    }
    if (command == "profile") {
      return cmd_profile(args);
    }
    if (command == "dataset") {
      return cmd_dataset(args);
    }
    if (command == "metrics-dump") {
      return cmd_metrics_dump(args);
    }
    if (command == "eval-matrix") {
      return cmd_eval_matrix(args);
    }
    if (command == "stream") {
      return cmd_stream(args);
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
    print_usage(stderr);
    return 2;
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "error: %s\n\n", error.what());
    print_usage(stderr);
    return 2;
  } catch (const roadfusion::Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
