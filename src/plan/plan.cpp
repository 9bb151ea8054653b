#include "plan/plan.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/cpu.hpp"
#include "common/env.hpp"
#include "core/awn.hpp"
#include "core/fusion_filter.hpp"
#include "core/fusion_scheme.hpp"
#include "nn/blocks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/ir.hpp"
#include "plan/nchwc.hpp"
#include "plan/nchwc_avx2.hpp"
#include "roadseg/encoder.hpp"
#include "roadseg/plan_hook.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/workspace.hpp"

namespace roadfusion::plan {
namespace {

using core::FusionScheme;
using roadseg::Encoder;
using roadseg::RoadSegNet;
using roadseg::StreamFeatureCache;
using tensor::Tensor;

/// Compiled schedules kept per model; the oldest is evicted first. The
/// key's geometry comes from requests, so the cache must not grow with
/// it. 16 holds all four variants of four geometries.
constexpr size_t kMaxCachedPlans = 16;

/// The schedules serving needs (DESIGN.md §16).
enum class Variant {
  kFused,       ///< fusion weight in (0, 1]
  kRgbOnly,     ///< fusion weight 0: no depth-branch steps at all
  kStreamMiss,  ///< fused, writing each fusion step's depth input to the cache
  kStreamHit,   ///< rgb steps + fusion steps reading the cached depth inputs
};
constexpr std::array<Variant, 4> kVariants = {
    Variant::kFused, Variant::kRgbOnly, Variant::kStreamMiss,
    Variant::kStreamHit};
constexpr const char* kVariantNames[] = {"fused", "rgb_only", "stream_miss",
                                         "stream_hit"};

const char* variant_name(Variant variant) {
  return kVariantNames[static_cast<size_t>(variant)];
}

struct PlanKey {
  int64_t n = 0, h = 0, w = 0;
  Variant variant = Variant::kFused;
  bool operator==(const PlanKey&) const = default;
};

/// One residual block repacked for the blocked kernel. conv2 carries the
/// post-shortcut ReLU (the epilogue order is bias -> BN -> +pre -> ReLU,
/// exactly the graph's conv2 + add_relu chain).
struct BlockPack {
  PackedConv conv1;
  PackedConv conv2;
  std::unique_ptr<PackedConv> proj;  ///< null = identity shortcut
};

/// One schedule for one key; immutable once compiled.
struct CompiledPlan {
  PlanKey key;
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  std::vector<int> skip_slots;  ///< fused pyramid, stage 0 first
  std::vector<int> cached;      ///< slot of each StreamFeatureCache::slots[k]
  /// Every uncached slot lives at its compiled offset in the workspace's
  /// scratch block (tensor::Workspace::scratch), which outlives the run:
  /// the pool keeps one, sized for the largest schedule it has run, so
  /// the schedules of every batch size share it.
  int64_t scratch_floats = 0;
};

/// Geometry-independent plan state hung off the RoadSegNet: packed
/// weights plus a bounded cache of compiled schedules.
struct PlanContext {
  int stages = 0;
  FusionScheme scheme = FusionScheme::kBaseline;
  PackedConv rgb_stem;
  PackedConv depth_stem;
  std::vector<std::shared_ptr<const BlockPack>> rgb_blocks;    ///< [stage-1]
  std::vector<std::shared_ptr<const BlockPack>> depth_blocks;  ///< [stage-1]
  std::vector<PackedConv> d2r;  ///< [stage]
  std::vector<PackedConv> r2d;  ///< AllFilter_B only, same indexing
  std::vector<PackedConv> up;      ///< decoder transitions, deepest first
  std::vector<PackedConv> refine;  ///< same indexing
  PackedConv head;
  std::mutex mutex;
  std::vector<std::shared_ptr<const CompiledPlan>> plans;  ///< oldest first
};

/// Registry counters the run path bumps, looked up once so a predict
/// builds no metric names.
struct PlanMetrics {
  std::array<obs::Counter*, 4> runs{};  ///< by Variant
  obs::Counter* compiles = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Counter* layers = nullptr;
};

const PlanMetrics& metrics() {
  static const PlanMetrics m = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    PlanMetrics out;
    for (const Variant variant : kVariants) {
      out.runs[static_cast<size_t>(variant)] = &registry.counter(
          std::string("roadfusion_plan_runs_total{variant=\"") +
              variant_name(variant) + "\"}",
          "Inference requests served by a compiled plan, per schedule");
    }
    out.compiles = &registry.counter("roadfusion_plan_compiles_total",
                                     "Per-geometry inference plans compiled");
    out.evictions = &registry.counter(
        "roadfusion_plan_evictions_total",
        "Compiled plans evicted from a model's bounded plan cache");
    out.layers = &registry.counter(
        "roadfusion_plan_layers_total",
        "Network layers scheduled by the inference plan compiler");
    return out;
  }();
  return m;
}

/// The layer name a conv step reports. A shared stage's depth steps run
/// the rgb branch's pack (one set of weights, packed once), so their name
/// swaps the pack's branch prefix for the branch that runs them.
std::string step_name(const Step& st) {
  const std::string& name = st.conv->name;
  if (st.layer == LayerRef::kDepthStage && name.rfind("rgb.", 0) == 0) {
    return "depth." + name.substr(4);
  }
  return name;
}

std::shared_ptr<const BlockPack> pack_block(const nn::ResidualBlock& rb,
                                            const std::string& name) {
  auto bp = std::make_shared<BlockPack>();
  bp->conv1 =
      pack_conv(rb.conv1().conv(), &rb.conv1().bn(), true, name + ".conv1");
  bp->conv2 = pack_conv(rb.conv2(), &rb.bn2(), true, name + ".conv2");
  if (rb.projection() != nullptr) {
    bp->proj = std::make_unique<PackedConv>(
        pack_conv(*rb.projection(), rb.projection_bn(), false, name + ".proj"));
  }
  return bp;
}

// ---------------------------------------------------------------------------
// Build: network -> PlanContext (packed weights)
// ---------------------------------------------------------------------------

std::shared_ptr<void> build_hook(const RoadSegNet& net) {
  const int stages = net.num_stages();
  auto ctx = std::make_shared<PlanContext>();
  ctx->stages = stages;
  ctx->scheme = net.config().scheme;
  const auto pack_stem = [&](const Encoder& encoder, const char* name) {
    return pack_conv(encoder.stem().conv(), &encoder.stem().bn(), true, name);
  };
  ctx->rgb_stem = pack_stem(net.rgb_encoder(), "rgb.stage0");
  ctx->depth_stem = pack_stem(net.depth_encoder(), "depth.stage0");
  for (int stage = 1; stage < stages; ++stage) {
    auto rgb = pack_block(net.rgb_encoder().block(stage),
                          "rgb.stage" + std::to_string(stage));
    // A shared stage aliases the rgb parameters — pack once, point twice.
    auto depth = net.stage_is_shared(stage)
                     ? rgb
                     : pack_block(net.depth_encoder().block(stage),
                                  "depth.stage" + std::to_string(stage));
    ctx->rgb_blocks.push_back(std::move(rgb));
    ctx->depth_blocks.push_back(std::move(depth));
  }
  const auto pack_filters = [&](const std::vector<core::FusionFilter>& filters,
                                const std::string& prefix,
                                std::vector<PackedConv>& out) {
    for (size_t stage = 0; stage < filters.size(); ++stage) {
      out.push_back(pack_conv(filters[stage].conv(), nullptr, false,
                              prefix + ".stage" + std::to_string(stage)));
    }
  };
  pack_filters(net.depth_to_rgb_filters(), "d2r", ctx->d2r);
  pack_filters(net.rgb_to_depth_filters(), "r2d", ctx->r2d);
  const roadseg::Decoder& decoder = net.decoder();
  for (int i = 0; i + 1 < stages; ++i) {
    const std::string tag = std::to_string(stages - 1 - i);
    ctx->up.push_back(pack_tconv(decoder.up(static_cast<size_t>(i)),
                                 "decoder.up" + tag));
    const nn::ConvBnRelu& refine = decoder.refine(static_cast<size_t>(i));
    ctx->refine.push_back(pack_conv(refine.conv(), &refine.bn(), true,
                                    "decoder.refine" + tag));
  }
  ctx->head = pack_conv(decoder.head(), nullptr, false, "decoder.head");
  obs::MetricsRegistry::global()
      .counter("roadfusion_plan_builds_total",
               "Inference plan contexts compiled")
      .inc();
  return ctx;
}

// ---------------------------------------------------------------------------
// Compile: PlanContext + key -> CompiledPlan
// ---------------------------------------------------------------------------

int64_t slot_floats(const SlotDef& def) {
  return nchwc_floats(def.n, def.c, def.h, def.w);
}

std::shared_ptr<const CompiledPlan> compile(const PlanContext& ctx,
                                            const RoadSegNet& net,
                                            const PlanKey& key) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->key = key;
  const auto& channels = net.config().stage_channels;
  const bool hit = key.variant == Variant::kStreamHit;
  const bool miss = key.variant == Variant::kStreamMiss;
  // A slot at `stage`'s resolution with `c` channels (-1: the stage's).
  const auto new_slot = [&](int stage, std::string label, int64_t c = -1) {
    SlotDef def;
    def.n = key.n;
    def.c = c >= 0 ? c : channels[static_cast<size_t>(stage)];
    def.h = Encoder::stage_extent(stage, key.h);
    def.w = Encoder::stage_extent(stage, key.w);
    def.label = std::move(label);
    plan->slots.push_back(std::move(def));
    return static_cast<int>(plan->slots.size()) - 1;
  };
  const auto push = [&](Step step) { plan->steps.push_back(step); };
  const auto cache_slot = [&](int slot) {
    plan->slots[static_cast<size_t>(slot)].cache_index =
        static_cast<int>(plan->cached.size());
    plan->cached.push_back(slot);
    return slot;
  };
  const auto fusion_step = [&](StepKind kind, int dst, int src, int stage) {
    Step st;
    st.kind = kind;
    st.dst = dst;
    st.src = src;
    st.stage = stage;
    push(st);
  };
  const auto conv_step = [&](StepKind kind, const PackedConv& pc,
                             LayerRef layer, int stage, int src, int dst,
                             int pre, int post) {
    Step st;
    st.kind = kind;
    st.layer = layer;
    st.src = src;
    st.dst = dst;
    st.pre = pre;
    st.post = post;
    st.conv = &pc;
    st.stage = stage;
    st.layers = 1;
    push(st);
  };
  // One encoder stage of `branch`: the stem (reading the network input,
  // converted at the point of use so only one branch's converted input is
  // live at a time) or conv1, (projection), conv2 with the shortcut fused
  // as `pre`. A `post` slot adds the fusion sum in the last conv's
  // epilogue.
  const auto emit_stage = [&](LayerRef branch, int stage, int input,
                              int post, const std::string& label) {
    const int out = new_slot(stage, label);
    const bool rgb_branch = branch == LayerRef::kRgbStage;
    const auto conv = [&](const PackedConv& pc, int src, int dst, int pre,
                          int post_slot) {
      conv_step(StepKind::kConvNchwc, pc, branch, stage, src, dst, pre,
                post_slot);
    };
    if (stage == 0) {
      Step in;
      in.kind = StepKind::kConvertToNchwc;
      in.layer = branch;
      in.dst = new_slot(0, label + ".in",
                        rgb_branch ? net.config().rgb_channels
                                   : net.config().depth_channels);
      push(in);
      conv(rgb_branch ? ctx.rgb_stem : ctx.depth_stem, in.dst, out, -1,
           post);
      return out;
    }
    const BlockPack& bp =
        *(rgb_branch ? ctx.rgb_blocks
                     : ctx.depth_blocks)[static_cast<size_t>(stage - 1)];
    const int t1 = new_slot(stage, label + ".conv1");
    conv(bp.conv1, input, t1, -1, -1);
    int pre = input;  // identity shortcut (requires matching geometry)
    if (bp.proj != nullptr) {
      pre = new_slot(stage, label + ".proj");
      conv(*bp.proj, input, pre, -1, -1);
    }
    conv(bp.conv2, t1, out, pre, post);
    return out;
  };
  const auto emit_filter = [&](LayerRef which, int stage, int input,
                               const std::string& label) {
    const int out = new_slot(stage, label);
    const auto& filters = which == LayerRef::kDepthToRgb ? ctx.d2r : ctx.r2d;
    conv_step(StepKind::kConvNchwc, filters[static_cast<size_t>(stage)], which,
              stage, input, out, -1, -1);
    return out;
  };

  int r_in = -1;  // -1: the network input of the branch
  int d_in = -1;
  for (int stage = 0; stage < ctx.stages; ++stage) {
    const std::string tag = ".stage" + std::to_string(stage);
    const bool last = stage == ctx.stages - 1;
    int fused = -1;
    if (key.variant == Variant::kRgbOnly) {
      // fused_i = r_i: the depth branch and its values are never touched.
      fused = emit_stage(LayerRef::kRgbStage, stage, r_in, -1, "r" + tag);
    } else if (ctx.scheme == FusionScheme::kAllFilterB) {
      // The reverse filter needs the *pre-fusion* rgb features, and the
      // depth update precedes the rgb accumulate — the graph order. No
      // stream variant: the depth branch reads rgb features every frame.
      const int d = emit_stage(LayerRef::kDepthStage, stage, d_in, -1,
                               "d" + tag);
      const int matched =
          emit_filter(LayerRef::kDepthToRgb, stage, d, "matched" + tag);
      if (last) {
        fused = emit_stage(LayerRef::kRgbStage, stage, r_in, matched,
                           "fused" + tag);
      } else {
        fused = emit_stage(LayerRef::kRgbStage, stage, r_in, -1, "r" + tag);
        const int matched_rgb = emit_filter(LayerRef::kRgbToDepth, stage,
                                            fused, "matched_rgb" + tag);
        fusion_step(StepKind::kAddInPlace, d, matched_rgb, stage);
        fusion_step(StepKind::kAccumulate, fused, matched, stage);
      }
      d_in = d;
    } else if (ctx.scheme == FusionScheme::kWeightedSharing && last) {
      // AWN head: the per-sample weight pools both deepest stacks, then
      // the weighted depth features are summed into the rgb ones in
      // place; the fused result only feeds the decoder.
      fused = emit_stage(LayerRef::kRgbStage, stage, r_in, -1, "fused" + tag);
      int d = -1;
      if (hit) {
        d = cache_slot(new_slot(stage, "cached.d" + tag));
      } else {
        d = emit_stage(LayerRef::kDepthStage, stage, d_in, -1, "d" + tag);
        if (miss) {
          cache_slot(d);
        }
      }
      Step awn;
      awn.kind = StepKind::kAwnFuse;
      awn.dst = fused;
      awn.aux = d;
      awn.stage = stage;
      awn.layers = 1;
      push(awn);
    } else {
      // Baseline / BaseSharing / WeightedSharing below the last stage sum
      // d_i; AllFilter_U sums its filter-matched copy.
      int matched = -1;
      if (hit) {
        matched = cache_slot(new_slot(stage, "cached.matched" + tag));
      } else {
        const int d = emit_stage(LayerRef::kDepthStage, stage, d_in, -1,
                                 "d" + tag);
        matched = ctx.scheme == FusionScheme::kAllFilterU
                      ? emit_filter(LayerRef::kDepthToRgb, stage, d,
                                    "matched" + tag)
                      : d;
        if (miss) {
          cache_slot(matched);
        }
        d_in = d;
      }
      fused = emit_stage(LayerRef::kRgbStage, stage, r_in, matched,
                         "fused" + tag);
    }
    plan->skip_slots.push_back(fused);
    r_in = fused;
  }
  // Per transition: the upsampling tconv with the skip add as its
  // epilogue, then the refine conv; then the head, whose one-channel
  // output is converted into the returned NCHW logits.
  int x = plan->skip_slots.back();
  for (int i = 0; i + 1 < ctx.stages; ++i) {
    const int target = ctx.stages - 2 - i;
    const auto at = static_cast<size_t>(i);
    // Spans and explain both name a transition by its layers' index.
    const int index = target + 1;
    const std::string tag = std::to_string(index);
    const int up = new_slot(target, "up" + tag);
    conv_step(StepKind::kTConvNchwc, ctx.up[at], LayerRef::kDecoderUp, index,
              x, up, plan->skip_slots[static_cast<size_t>(target)], -1);
    x = new_slot(target, "refine" + tag);
    conv_step(StepKind::kConvNchwc, ctx.refine[at], LayerRef::kDecoderUp,
              index, up, x, -1, -1);
  }
  const int head = new_slot(0, "head", 1);
  conv_step(StepKind::kConvNchwc, ctx.head, LayerRef::kDecoderHead, 0, x,
            head, -1, -1);
  Step logits;
  logits.kind = StepKind::kConvertToNchw;
  logits.layer = LayerRef::kDecoderHead;
  logits.src = head;
  push(logits);

  // Liveness: record each slot's writer and last reader.
  std::vector<int> first_def(plan->slots.size(), -1);
  std::vector<int> last_use(plan->slots.size(), -1);
  for (size_t j = 0; j < plan->steps.size(); ++j) {
    const Step& st = plan->steps[j];
    const auto read = [&](int slot) {
      if (slot >= 0) {
        last_use[static_cast<size_t>(slot)] = static_cast<int>(j);
      }
    };
    if (st.dst >= 0 && first_def[static_cast<size_t>(st.dst)] < 0) {
      first_def[static_cast<size_t>(st.dst)] = static_cast<int>(j);
    }
    read(st.src);
    read(st.pre);
    read(st.post);
    read(st.aux);
    if (st.kind == StepKind::kAddInPlace ||
        st.kind == StepKind::kAccumulate || st.kind == StepKind::kAwnFuse) {
      read(st.dst);  // in-place update reads its destination
    }
  }
  // Uncached slots: first-fit offsets in the scratch buffer, sharing
  // space between slots whose live ranges do not overlap.
  struct Placed {
    int64_t begin, end;
    int first, last;
  };
  std::vector<Placed> placed;
  for (size_t i = 0; i < plan->slots.size(); ++i) {
    SlotDef& def = plan->slots[i];
    def.last_use = last_use[i];
    if (def.cache_index >= 0) {
      continue;
    }
    const int first = first_def[i];
    const int last = std::max(first, def.last_use);
    // 16-float (64-byte) granules keep every region cache-line aligned.
    const int64_t size = (slot_floats(def) + 15) / 16 * 16;
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (const Placed& p : placed) {
      if (p.first <= last && first <= p.last) {
        busy.emplace_back(p.begin, p.end);
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t offset = 0;
    for (const auto& [begin, end] : busy) {
      if (offset + size <= begin) {
        break;
      }
      offset = std::max(offset, end);
    }
    def.offset = offset;
    placed.push_back({offset, offset + size, first, last});
    plan->scratch_floats = std::max(plan->scratch_floats, offset + size);
  }

  return plan;
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

/// A cached slot's tensor shape: its blocked planes, (n * channel blocks,
/// h + 2, w + 2, lanes).
tensor::Shape slot_shape(const SlotDef& def) {
  return tensor::Shape::nchw(def.n * blocks_of(def.c), def.h + 2, def.w + 2,
                             kLanes);
}

/// True when `cache` holds exactly the slots `plan` reads or writes. The
/// shapes pin each slot's geometry, not just its size, so a schedule never
/// sees another schedule's buffers (a transposed frame has the same size).
bool cache_matches(const CompiledPlan& plan, const StreamFeatureCache& cache) {
  if (cache.slots.size() != plan.cached.size()) {
    return false;
  }
  for (size_t k = 0; k < plan.cached.size(); ++k) {
    if (cache.slots[k].shape() !=
        slot_shape(plan.slots[static_cast<size_t>(plan.cached[k])])) {
      return false;
    }
  }
  return true;
}

/// Shapes the cache for the stream-miss schedule `plan`. A mismatched
/// cache is reallocated zeroed on the heap (the NCHWc8 border invariant);
/// a matching one is reused in place, so the steady state allocates
/// nothing.
void bind_cache(const CompiledPlan& plan, StreamFeatureCache& cache) {
  if (cache_matches(plan, cache)) {
    return;
  }
  const tensor::NoWorkspaceScope no_pool;
  cache.slots.clear();
  for (const int slot : plan.cached) {
    cache.slots.emplace_back(slot_shape(plan.slots[static_cast<size_t>(slot)]));
  }
}

/// Per LayerRef: the trace span prefix (the graph path's names, so traces
/// read the same whichever path served; null = no span of its own).
constexpr const char* kLayerSpans[] = {
    nullptr,        "rgb_encoder.stage", "depth_encoder.stage",
    "fusion.stage", "fusion.stage",      "decoder.up",
    "decoder.head"};

Tensor execute(const RoadSegNet& net, const CompiledPlan& plan,
               const Tensor& rgb, const Tensor& depth, float fusion_weight,
               StreamFeatureCache* cache) {
  // The slots live in the workspace's scratch block; a run outside any
  // workspace owns its scratch.
  std::unique_ptr<float[]> own_scratch;
  float* scratch = nullptr;
  if (plan.scratch_floats > 0) {
    const auto floats = static_cast<size_t>(plan.scratch_floats);
    tensor::Workspace* const workspace = tensor::Workspace::current();
    if (workspace != nullptr) {
      scratch = workspace->scratch(floats);
    } else {
      own_scratch.reset(new float[floats]);
      scratch = own_scratch.get();
    }
  }
  const auto slot = [&](int idx) -> const SlotDef& {
    return plan.slots[static_cast<size_t>(idx)];
  };
  const auto data = [&](int idx) -> float* {
    const int k = slot(idx).cache_index;
    return k >= 0 ? cache->slots[static_cast<size_t>(k)].raw()
                  : scratch + slot(idx).offset;
  };
  // A fresh output buffer. Every writer fills all lanes of the interior;
  // only the border ring the pad-1 convs read must be zeroed (cached slots
  // were zeroed by bind_cache).
  const auto define = [&](int idx) -> float* {
    const SlotDef& def = slot(idx);
    float* p = data(idx);
    if (def.cache_index < 0) {
      zero_border(p, def.n, def.c, def.h, def.w);
    }
    return p;
  };
  Tensor logits;

  const auto run_step = [&](size_t j) {
    const Step& st = plan.steps[j];
    switch (st.kind) {
      case StepKind::kConvertToNchwc: {
        const SlotDef& dd = slot(st.dst);
        // Batch, height and width were checked against the key; this pins
        // the channel count.
        const Tensor& x = st.layer == LayerRef::kDepthStage ? depth : rgb;
        ROADFUSION_CHECK(x.numel() == dd.n * dd.c * dd.h * dd.w,
                         "inference plan: input " << x.shape().str()
                                                  << " does not match "
                                                  << dd.label);
        convert_to_nchwc(x.raw(), dd.n, dd.c, dd.h, dd.w, define(st.dst));
        break;
      }
      case StepKind::kConvertToNchw: {
        const SlotDef& sd = slot(st.src);
        logits = Tensor::uninitialized(
            tensor::Shape::nchw(sd.n, sd.c, sd.h, sd.w));
        convert_to_nchw(data(st.src), sd.n, sd.c, sd.h, sd.w, logits.raw());
        break;
      }
      case StepKind::kConvNchwc: {
        obs::ScopedSpan span("plan.conv", st.stage);
        const SlotDef& sd = slot(st.src);
        const SlotDef& dd = slot(st.dst);
        conv_nchwc(data(st.src), dd.n, sd.h, sd.w, *st.conv, define(st.dst),
                   dd.h, dd.w, st.pre >= 0 ? data(st.pre) : nullptr,
                   st.post >= 0 ? data(st.post) : nullptr,
                   fusion_weight);
        break;
      }
      case StepKind::kTConvNchwc: {
        obs::ScopedSpan span("plan.tconv", st.stage);
        const SlotDef& sd = slot(st.src);
        tconv_nchwc(data(st.src), sd.n, sd.h, sd.w, *st.conv, define(st.dst),
                    st.pre >= 0 ? data(st.pre) : nullptr);
        break;
      }
      case StepKind::kAddInPlace:
        add_in_place(data(st.dst), data(st.src), slot_floats(slot(st.dst)));
        break;
      case StepKind::kAccumulate:
        accumulate(data(st.dst), data(st.src), slot_floats(slot(st.dst)),
                   fusion_weight);
        break;
      case StepKind::kAwnFuse: {
        const SlotDef& rd = slot(st.dst);
        obs::ScopedSpan awn_span("awn.weight");
        Tensor pooled =
            Tensor::uninitialized(tensor::Shape::mat(rd.n, rd.c));
        pool_difference(data(st.dst), data(st.aux), rd.n, rd.c, rd.h, rd.w,
                        pooled.raw());
        const Tensor weight = net.awn()->weight_from_pooled(pooled);
        awn_accumulate(data(st.dst), data(st.aux), rd.n,
                       slot_floats(rd) / rd.n, weight.raw(), fusion_weight);
        break;
      }
    }
  };
  // Each run of consecutive steps of one layer and stage reports one
  // span, named as in the graph path, so traces read the same whichever
  // path served; the decoder steps (the schedule's tail) nest inside one
  // "decoder" span, as the graph's do.
  const auto run_all = [&] {
    std::optional<obs::ScopedSpan> decoder_span;
    for (size_t j = 0; j < plan.steps.size();) {
      const Step& first = plan.steps[j];
      if (!decoder_span && (first.layer == LayerRef::kDecoderUp ||
                            first.layer == LayerRef::kDecoderHead)) {
        decoder_span.emplace("decoder");
      }
      size_t end = j + 1;
      while (end < plan.steps.size() &&
             plan.steps[end].layer == first.layer &&
             plan.steps[end].stage == first.stage) {
        ++end;
      }
      const char* prefix = kLayerSpans[static_cast<size_t>(first.layer)];
      if (prefix != nullptr) {
        const obs::ScopedSpan span(prefix, first.stage);
        for (; j < end; ++j) {
          run_step(j);
        }
      } else {
        for (; j < end; ++j) {
          run_step(j);
        }
      }
    }
  };
  const obs::ScopedSpan plan_span("plan.execute");
  if (plan.key.variant == Variant::kRgbOnly) {
    const obs::ScopedSpan span("rgb_only");
    run_all();
  } else if (plan.key.variant == Variant::kStreamHit) {
    const obs::ScopedSpan span("depth_cache.reuse");
    run_all();
  } else {
    run_all();
  }
  return logits;
}

// ---------------------------------------------------------------------------
// Run hook: variant choice, plan-cache lookup
// ---------------------------------------------------------------------------

/// The cached schedule for `key`, compiled on first use. The cache holds
/// at most kMaxCachedPlans schedules and evicts the oldest; a run that
/// already holds an evicted schedule keeps it alive through its
/// shared_ptr.
std::shared_ptr<const CompiledPlan> lookup(PlanContext& ctx,
                                           const RoadSegNet& net,
                                           const PlanKey& key) {
  const std::lock_guard<std::mutex> lock(ctx.mutex);
  for (const auto& plan : ctx.plans) {
    if (plan->key == key) {
      return plan;
    }
  }
  auto plan = compile(ctx, net, key);
  // Serving counters move here, not in compile(): explain() compiles too.
  const PlanMetrics& m = metrics();
  m.compiles->inc();
  int layers = 0;
  for (const Step& st : plan->steps) {
    layers += st.layers;
  }
  m.layers->inc(static_cast<uint64_t>(layers));
  if (ctx.plans.size() >= kMaxCachedPlans) {
    ctx.plans.erase(ctx.plans.begin());
    m.evictions->inc();
  }
  ctx.plans.push_back(plan);
  return plan;
}

/// A CHW input shape as the batch-1 NCHW shape it is read as.
tensor::Shape as_nchw(const tensor::Shape& shape) {
  return shape.rank() == 3
             ? tensor::Shape::nchw(1, shape.dim(0), shape.dim(1), shape.dim(2))
             : shape;
}

Tensor run_hook(const roadseg::SegmentationModel& model,
                const std::shared_ptr<void>& state, const Tensor& rgb,
                const Tensor& depth, float fusion_weight,
                StreamFeatureCache* cache, bool depth_unchanged) {
  // build_hook is the only producer of plan states, and it is only ever
  // handed a RoadSegNet.
  const auto& net = static_cast<const RoadSegNet&>(model);
  auto& ctx = *static_cast<PlanContext*>(state.get());
  const tensor::Shape rgb_shape = as_nchw(rgb.shape());
  net.check_inputs(rgb_shape, as_nchw(depth.shape()), fusion_weight);
  PlanKey key;
  key.n = rgb_shape.batch();
  key.h = rgb_shape.height();
  key.w = rgb_shape.width();
  key.variant = fusion_weight == 0.0f ? Variant::kRgbOnly : Variant::kFused;

  // Streams: RGB-only mode has no depth work to skip, and AllFilter_B's
  // depth features depend on per-frame rgb features — neither caches.
  const bool streamed = cache != nullptr && key.variant == Variant::kFused &&
                        ctx.scheme != FusionScheme::kAllFilterB;
  if (cache != nullptr && !streamed) {
    cache->invalidate();
  }
  std::shared_ptr<const CompiledPlan> plan;
  if (streamed && depth_unchanged && cache->valid) {
    key.variant = Variant::kStreamHit;
    plan = lookup(ctx, net, key);
    if (!cache_matches(*plan, *cache)) {
      plan.reset();
    }
  }
  if (streamed && plan == nullptr) {
    key.variant = Variant::kStreamMiss;
    plan = lookup(ctx, net, key);
    cache->invalidate();
    bind_cache(*plan, *cache);
    ++cache->misses;
  } else if (streamed) {
    ++cache->hits;
  } else {
    plan = lookup(ctx, net, key);
  }
  metrics().runs[static_cast<size_t>(key.variant)]->inc();
  // CHW inputs are converted to the blocked layout in place.
  Tensor out = execute(net, *plan, rgb, depth, fusion_weight, cache);
  if (key.variant == Variant::kStreamMiss) {
    cache->valid = true;
  }
  return out;
}

[[maybe_unused]] const bool hooks_installed = [] {
  install_hooks();
  return true;
}();

// ---------------------------------------------------------------------------
// --explain-plan printer
// ---------------------------------------------------------------------------

/// A slot as explain prints it; `outside` names the network buffer a
/// conversion reads or writes when it has no slot (idx -1).
std::string slot_str(const CompiledPlan& plan, int idx,
                     const char* outside = "input") {
  if (idx < 0) {
    return outside;
  }
  const SlotDef& def = plan.slots[static_cast<size_t>(idx)];
  std::ostringstream os;
  os << "%" << idx << ":" << def.label << "(" << def.n << "x" << def.c << "x"
     << def.h << "x" << def.w << " nchwc8";
  if (def.cache_index >= 0) {
    os << " cached";
  } else {
    os << " @" << def.offset;
  }
  os << ")";
  return os.str();
}

std::string epilogue_str(const Step& st) {
  std::string out;
  const auto add = [&](const char* stage) {
    out += out.empty() ? stage : std::string("+") + stage;
  };
  if (st.conv != nullptr && !st.conv->bias.empty()) {
    add("bias");
  }
  if (st.conv != nullptr && !st.conv->bn_mean.empty()) {
    add("bn");
  }
  if (st.pre >= 0) {
    add(st.kind == StepKind::kTConvNchwc ? "skip" : "residual");
  }
  if (st.conv != nullptr && st.conv->relu) {
    add("relu");
  }
  if (st.post >= 0) {
    add("fusion_sum");
  }
  return out.empty() ? "none" : out;
}

/// The blocked kernels' name as explain and benches report it.
const char* nchwc_kernel() {
  return common::active_tier() >= common::CpuTier::kAvx2 ? "nchwc_direct_avx2"
                                                         : "nchwc_direct";
}

/// The register tile the blocked kernel runs a step with: the AVX2
/// direct conv's sliding window (3x3) or broadcast-sharing tile (1x1) as
/// "blocks x columns", the AVX2 transposed conv's one block x one input
/// column, or "scalar" below the AVX2 tier.
std::string nchwc_tile_str(const PackedConv& pc) {
  if (common::active_tier() < common::CpuTier::kAvx2) {
    return "scalar";
  }
  if (pc.transposed) {
    return "tconv 1x1";
  }
  const NchwcTile tile = nchwc_avx2_tile(pc.kernel, pc.cout);
  return std::string(pc.kernel == 3 ? "window " : "1x1 ") +
         std::to_string(tile.blocks) + "x" + std::to_string(tile.cols);
}

/// "conv3x3/s1" / "tconv2x2/s2" for a blocked conv step.
std::string conv_kind(const PackedConv& pc) {
  return std::string(pc.transposed ? "tconv" : "conv") +
         std::to_string(pc.kernel) + "x" + std::to_string(pc.kernel) + "/s" +
         std::to_string(pc.stride);
}

void print_plan(std::ostream& os, const RoadSegNet& net,
                const CompiledPlan& plan) {
  const PlanKey& key = plan.key;
  os << "inference plan: scheme=" << core::to_string(net.config().scheme)
     << " variant=" << variant_name(key.variant) << " input=" << key.n << "x"
     << net.config().rgb_channels << "x" << key.h << "x" << key.w
     << " steps=" << plan.steps.size() << " slots=" << plan.slots.size()
     << "\n";
  for (size_t j = 0; j < plan.steps.size(); ++j) {
    const Step& st = plan.steps[j];
    os << "  [" << j << "] ";
    switch (st.kind) {
      case StepKind::kConvertToNchwc:
        os << "to_nchwc    " << slot_str(plan, st.src) << " -> "
           << slot_str(plan, st.dst);
        break;
      case StepKind::kConvertToNchw:
        os << "to_nchw     " << slot_str(plan, st.src) << " -> "
           << slot_str(plan, st.dst, "logits");
        break;
      case StepKind::kConvNchwc:
      case StepKind::kTConvNchwc:
        os << conv_kind(*st.conv) << (st.conv->transposed ? "  " : "   ")
           << "layout=nchwc8 solver=" << nchwc_kernel()
           << " tile=" << nchwc_tile_str(*st.conv)
           << " layer=" << step_name(st)
           << " epilogue=" << epilogue_str(st) << " "
           << slot_str(plan, st.src) << " -> " << slot_str(plan, st.dst);
        if (st.pre >= 0) {
          os << " pre=" << slot_str(plan, st.pre);
        }
        if (st.post >= 0) {
          os << " post=" << slot_str(plan, st.post);
        }
        break;
      case StepKind::kAddInPlace:
        os << "add         " << slot_str(plan, st.dst)
           << " += " << slot_str(plan, st.src);
        break;
      case StepKind::kAccumulate:
        os << "fusion_sum  " << slot_str(plan, st.dst) << " += w * "
           << slot_str(plan, st.src);
        break;
      case StepKind::kAwnFuse:
        os << "awn_fuse    layout=nchwc8 " << slot_str(plan, st.dst)
           << " += w * AWN-scaled " << slot_str(plan, st.aux);
        break;
    }
    // Slots dead after this step: scratch regions free for later slots.
    const char* sep = "  free={%";
    for (size_t i = 0; i < plan.slots.size(); ++i) {
      const SlotDef& def = plan.slots[i];
      if (def.last_use == static_cast<int>(j) && def.cache_index < 0 &&
          static_cast<int>(i) != st.dst) {
        os << sep << i;
        sep = ", %";
      }
    }
    os << (*sep == ',' ? "}\n" : "\n");
  }
}

}  // namespace

void install_hooks() {
  roadseg::PlanHooks hooks;
  hooks.build = &build_hook;
  hooks.run = &run_hook;
  roadseg::set_plan_hooks(hooks);
}

std::string explain(const roadseg::RoadSegNet& net, int64_t n, int64_t h,
                    int64_t w) {
  const std::shared_ptr<void> state = net.inference_plan();
  if (state == nullptr) {
    return "inference plan unavailable: model is in training mode (call "
           "set_training(false) first); inference uses the autograd graph\n";
  }
  const auto& ctx = *static_cast<const PlanContext*>(state.get());
  std::ostringstream os;
  // The kernel-selection knob, with the tier serving actually uses.
  const std::string cpu_features = env_string("ROADFUSION_CPU_FEATURES", "");
  os << "knob ROADFUSION_CPU_FEATURES="
     << (cpu_features.empty() ? "unset" : cpu_features)
     << " tier=" << common::tier_name(common::active_tier()) << "\n";
  for (const Variant variant : kVariants) {
    if (ctx.scheme == FusionScheme::kAllFilterB &&
        (variant == Variant::kStreamMiss || variant == Variant::kStreamHit)) {
      continue;  // never cached: see run_hook
    }
    PlanKey key;
    key.n = n;
    key.h = h;
    key.w = w;
    key.variant = variant;
    print_plan(os, net, *compile(ctx, net, key));
  }
  return os.str();
}

std::vector<ConvStep> conv_steps(const roadseg::RoadSegNet& net, int64_t n,
                                 int64_t h, int64_t w) {
  const std::shared_ptr<void> state = net.inference_plan();
  std::vector<ConvStep> out;
  if (state == nullptr) {
    return out;
  }
  const auto& ctx = *static_cast<const PlanContext*>(state.get());
  PlanKey key;
  key.n = n;
  key.h = h;
  key.w = w;
  const std::shared_ptr<const CompiledPlan> plan = compile(ctx, net, key);
  for (const Step& st : plan->steps) {
    if (st.conv != nullptr) {
      out.push_back({step_name(st), conv_kind(*st.conv), nchwc_kernel()});
    }
  }
  return out;
}

}  // namespace roadfusion::plan
