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

#include "autograd/gemm.hpp"
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
#include "roadseg/encoder.hpp"
#include "roadseg/plan_hook.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"
#include "tune/solver.hpp"

namespace roadfusion::plan {
namespace {

using core::FusionScheme;
using roadseg::Encoder;
using roadseg::RoadSegNet;
using roadseg::StreamFeatureCache;
using tensor::Tensor;

/// Fixed executor capacity — slot storage lives in a stack array so a
/// plan run performs no per-call container allocation. Generous: the
/// deepest supported network (8 stages) compiles to fewer than 100 slots
/// (test_plan compiles every scheme and schedule at 8 stages).
constexpr int kMaxPlanSlots = 128;
constexpr int kMaxPlanStages = 8;
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

/// Why a plan runs every stage NCHW through the layer calls instead of
/// the blocked layout.
enum class NchwReason { kNone, kForcedSolver, kKcDepth };
constexpr const char* kReasonNames[] = {"none", "forced_solver", "kc_depth"};

const char* reason_name(NchwReason reason) {
  return kReasonNames[static_cast<size_t>(reason)];
}

struct PlanKey {
  int64_t n = 0, h = 0, w = 0;
  Variant variant = Variant::kFused;
  Layout layout = Layout::kNchwc;
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
  std::vector<int> skip_slots;  ///< fused pyramid (plan layout), stage 0 first
  /// NCHW slot holding the logits, or -1 when the kDecoder step returns
  /// them (the all-NCHW schedule).
  int logits = -1;
  std::vector<int> cached;      ///< slot of each StreamFeatureCache::slots[k]
  /// NCHW slots to drop right after each step (their last reader) —
  /// computed liveness that keeps the arena footprint minimal.
  std::vector<std::vector<int>> release_after;
  /// Every NCHWc slot lives at its compiled offset in the workspace's
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
  /// Some interior conv reduces over more than one Kc cache block, where
  /// the blocked kernel's order would differ from the GEMM's: every
  /// schedule then runs NCHW.
  bool exceeds_kc = false;
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
  obs::Counter* declined = nullptr;
  std::array<obs::Counter*, 3> declined_by_reason{};  ///< by NchwReason
  std::array<obs::Counter*, 4> runs{};                ///< by Variant
  obs::Counter* compiles = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Counter* layers_nchwc = nullptr;
  obs::Counter* layers_nchw = nullptr;
};

const PlanMetrics& metrics() {
  static const PlanMetrics m = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    const char* declined_help =
        "Plan runs that took the all-NCHW layout (labeled by reason)";
    PlanMetrics out;
    out.declined =
        &registry.counter("roadfusion_plan_declined_total", declined_help);
    for (size_t reason = 1; reason < out.declined_by_reason.size();
         ++reason) {
      out.declined_by_reason[reason] = &registry.counter(
          std::string("roadfusion_plan_declined_total{reason=\"") +
              kReasonNames[reason] + "\"}",
          declined_help);
    }
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
    const char* layers_help =
        "Layers scheduled per layout by the inference plan compiler";
    out.layers_nchwc = &registry.counter(
        "roadfusion_plan_layers_total{layout=\"nchwc\"}", layers_help);
    out.layers_nchw = &registry.counter(
        "roadfusion_plan_layers_total{layout=\"nchw\"}", layers_help);
    return out;
  }();
  return m;
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

/// The bit-exactness argument (nchwc.hpp) requires the graph-path GEMM to
/// run its whole reduction in one Kc cache block. A transposed conv's
/// GEMM reduces over the input channels alone.
bool fits_one_kc_block(const PackedConv& pc) {
  const int64_t depth =
      pc.transposed ? pc.cin : pc.cin * pc.kernel * pc.kernel;
  return depth <= autograd::kernels::blocked_gemm_config().kc;
}

NchwReason nchw_reason(const PlanContext& ctx) {
  if (!tune::forced_solver().empty()) {
    return NchwReason::kForcedSolver;
  }
  return ctx.exceeds_kc ? NchwReason::kKcDepth : NchwReason::kNone;
}

// ---------------------------------------------------------------------------
// Build: network -> PlanContext (packed weights)
// ---------------------------------------------------------------------------

std::shared_ptr<void> build_hook(const RoadSegNet& net) {
  const int stages = net.num_stages();
  if (stages > kMaxPlanStages) {
    return nullptr;
  }
  auto ctx = std::make_shared<PlanContext>();
  ctx->stages = stages;
  ctx->scheme = net.config().scheme;
  bool fits = true;
  const auto block_fits = [&](const BlockPack& bp) {
    return fits_one_kc_block(bp.conv1) && fits_one_kc_block(bp.conv2) &&
           (bp.proj == nullptr || fits_one_kc_block(*bp.proj));
  };
  const auto pack_one = [&](PackedConv pc) {
    fits = fits && fits_one_kc_block(pc);
    return pc;
  };
  const auto pack_stem = [&](const Encoder& encoder, const char* name) {
    return pack_one(pack_conv(encoder.stem().conv(), &encoder.stem().bn(),
                              true, name));
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
    fits = fits && block_fits(*rgb) && block_fits(*depth);
    ctx->rgb_blocks.push_back(std::move(rgb));
    ctx->depth_blocks.push_back(std::move(depth));
  }
  const auto pack_filters = [&](const std::vector<core::FusionFilter>& filters,
                                const std::string& prefix,
                                std::vector<PackedConv>& out) {
    for (size_t stage = 0; stage < filters.size(); ++stage) {
      out.push_back(pack_one(pack_conv(filters[stage].conv(), nullptr, false,
                                       prefix + ".stage" +
                                           std::to_string(stage))));
    }
  };
  pack_filters(net.depth_to_rgb_filters(), "d2r", ctx->d2r);
  pack_filters(net.rgb_to_depth_filters(), "r2d", ctx->r2d);
  const roadseg::Decoder& decoder = net.decoder();
  for (int i = 0; i + 1 < stages; ++i) {
    const std::string tag = std::to_string(stages - 1 - i);
    ctx->up.push_back(
        pack_one(pack_tconv(decoder.up(static_cast<size_t>(i)),
                            "decoder.up" + tag)));
    const nn::ConvBnRelu& refine = decoder.refine(static_cast<size_t>(i));
    ctx->refine.push_back(pack_one(pack_conv(
        refine.conv(), &refine.bn(), true, "decoder.refine" + tag)));
  }
  ctx->head = pack_one(pack_conv(decoder.head(), nullptr, false,
                                 "decoder.head"));
  ctx->exceeds_kc = !fits;
  obs::MetricsRegistry::global()
      .counter("roadfusion_plan_builds_total",
               "Inference plan contexts compiled")
      .inc();
  return ctx;
}

// ---------------------------------------------------------------------------
// Compile: PlanContext + key -> CompiledPlan
// ---------------------------------------------------------------------------

std::shared_ptr<const CompiledPlan> compile(const PlanContext& ctx,
                                            const RoadSegNet& net,
                                            const PlanKey& key) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->key = key;
  const auto& channels = net.config().stage_channels;
  const bool hit = key.variant == Variant::kStreamHit;
  const bool miss = key.variant == Variant::kStreamMiss;
  const Layout layout = key.layout;
  // A slot at `stage`'s resolution with `c` channels (-1: the stage's).
  const auto new_slot = [&](int stage, Layout slot_layout, std::string label,
                            int64_t c = -1) {
    SlotDef def;
    def.layout = slot_layout;
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
  // Returns `slot` in `layout`, converting it when it is not.
  const auto to_layout = [&](int slot, Layout layout, int stage,
                             std::string label) {
    if (plan->slots[static_cast<size_t>(slot)].layout == layout) {
      return slot;
    }
    SlotDef def = plan->slots[static_cast<size_t>(slot)];
    def.layout = layout;
    def.cache_index = -1;
    def.label = std::move(label);
    plan->slots.push_back(std::move(def));
    const int out = static_cast<int>(plan->slots.size()) - 1;
    Step st;
    st.kind = layout == Layout::kNchwc ? StepKind::kConvertToNchwc
                                       : StepKind::kConvertToNchw;
    st.src = slot;
    st.dst = out;
    st.stage = stage;
    push(st);
    return out;
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
  // One encoder stage of `branch`: a layer step on NCHW, or on NCHWc8 the
  // stem (reading the network input, converted at the point of use so
  // only one branch's converted input is live at a time) or conv1,
  // (projection), conv2 with the shortcut fused as `pre`. A `post` slot
  // adds the fusion sum: in the last conv's epilogue on NCHWc8, as a
  // following accumulate step on NCHW.
  const auto emit_stage = [&](LayerRef branch, int stage, int input,
                              int post, const std::string& label) {
    const int out = new_slot(stage, layout, label);
    if (layout == Layout::kNchw) {
      Step st;
      st.kind = StepKind::kLayer;
      st.layer = branch;
      st.src = input;
      st.dst = out;
      st.stage = stage;
      st.layers = 1;  // the stem conv
      if (stage > 0) {
        const Encoder& encoder = branch == LayerRef::kRgbStage
                                     ? net.rgb_encoder()
                                     : net.depth_encoder();
        st.layers = encoder.block(stage).projection() == nullptr ? 2 : 3;
      }
      push(st);
      if (post >= 0) {
        fusion_step(StepKind::kAccumulate, out, post, stage);
      }
      return out;
    }
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
      in.dst = new_slot(0, layout, label + ".in",
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
    const int t1 = new_slot(stage, layout, label + ".conv1");
    conv(bp.conv1, input, t1, -1, -1);
    int pre = input;  // identity shortcut (requires matching geometry)
    if (bp.proj != nullptr) {
      pre = new_slot(stage, layout, label + ".proj");
      conv(*bp.proj, input, pre, -1, -1);
    }
    conv(bp.conv2, t1, out, pre, post);
    return out;
  };
  const auto emit_filter = [&](LayerRef which, int stage, int input,
                               const std::string& label) {
    const int out = new_slot(stage, layout, label);
    Step st;
    st.layer = which;
    st.src = input;
    st.dst = out;
    st.stage = stage;
    st.layers = 1;
    if (layout == Layout::kNchw) {
      st.kind = StepKind::kLayer;
    } else {
      st.kind = StepKind::kConvNchwc;
      st.conv = &(which == LayerRef::kDepthToRgb
                      ? ctx.d2r
                      : ctx.r2d)[static_cast<size_t>(stage)];
    }
    push(st);
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
      // AWN head on NCHW: the per-sample weight pools both deepest
      // stacks, and the fused result only feeds the decoder.
      fused = to_layout(
          emit_stage(LayerRef::kRgbStage, stage, r_in, -1, "r" + tag),
          Layout::kNchw, stage, "fused" + tag);
      int d = -1;
      if (hit) {
        d = cache_slot(new_slot(stage, Layout::kNchw, "cached.d" + tag));
      } else {
        d = to_layout(
            emit_stage(LayerRef::kDepthStage, stage, d_in, -1, "d" + tag),
            Layout::kNchw, stage, "d" + tag + ".nchw");
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
        matched = cache_slot(new_slot(stage, layout, "cached.matched" + tag));
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
    // Only the WeightedSharing AWN head leaves the plan layout.
    plan->skip_slots.push_back(to_layout(fused, layout, stage, "skip" + tag));
    r_in = fused;
  }
  if (layout == Layout::kNchw) {
    Step dec;
    dec.kind = StepKind::kDecoder;
    dec.stage = ctx.stages;
    // One transposed conv and one refine conv per stage transition, plus
    // the 1x1 head.
    dec.layers = 2 * (ctx.stages - 1) + 1;
    push(dec);
  } else {
    // Per transition: the upsampling tconv with the skip add as its
    // epilogue, then the refine conv; then the head, whose one-channel
    // output is the only slot converted back to NCHW.
    int x = plan->skip_slots.back();
    for (int i = 0; i + 1 < ctx.stages; ++i) {
      const int target = ctx.stages - 2 - i;
      const auto at = static_cast<size_t>(i);
      const std::string tag = std::to_string(target + 1);
      const int up = new_slot(target, layout, "up" + tag);
      conv_step(StepKind::kTConvNchwc, ctx.up[at], LayerRef::kDecoderUp, i, x,
                up, plan->skip_slots[static_cast<size_t>(target)], -1);
      x = new_slot(target, layout, "refine" + tag);
      conv_step(StepKind::kConvNchwc, ctx.refine[at], LayerRef::kDecoderUp, i,
                up, x, -1, -1);
    }
    const int head = new_slot(0, layout, "head", 1);
    conv_step(StepKind::kConvNchwc, ctx.head, LayerRef::kDecoderHead, 0, x,
              head, -1, -1);
    plan->logits = to_layout(head, Layout::kNchw, 0, "logits");
  }
  ROADFUSION_CHECK(plan->slots.size() <= kMaxPlanSlots,
                   "inference plan needs " << plan->slots.size()
                                           << " slots, executor holds "
                                           << kMaxPlanSlots);

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
    if (st.kind == StepKind::kDecoder) {
      for (int skip : plan->skip_slots) {
        read(skip);
      }
    }
  }
  // NCHW slots: per-step release lists (a step never releases what it
  // writes; cached slots are not arena buffers). NCHWc slots: first-fit
  // offsets in the scratch buffer, sharing space between slots whose live
  // ranges do not overlap.
  plan->release_after.assign(plan->steps.size(), {});
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
    if (def.layout == Layout::kNchw) {
      if (def.last_use >= 0 &&
          static_cast<int>(i) !=
              plan->steps[static_cast<size_t>(def.last_use)].dst) {
        plan->release_after[static_cast<size_t>(def.last_use)].push_back(
            static_cast<int>(i));
      }
      continue;
    }
    const int first = first_def[i];
    const int last = std::max(first, def.last_use);
    // 16-float (64-byte) granules keep every region cache-line aligned.
    const int64_t size = (nchwc_floats(def.n, def.c, def.h, def.w) + 15) /
                         16 * 16;
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

tensor::Shape slot_shape(const SlotDef& def) {
  return def.layout == Layout::kNchwc
             ? tensor::Shape::vec(nchwc_floats(def.n, def.c, def.h, def.w))
             : tensor::Shape::nchw(def.n, def.c, def.h, def.w);
}

/// True when `cache` holds exactly the slots `plan` reads or writes. The
/// shapes pin the geometry and the layout (NCHWc8 slots are flat), so a
/// schedule never sees another schedule's buffers.
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

Tensor run_layer(const RoadSegNet& net, const Step& st, const Tensor& x) {
  const auto stage = static_cast<size_t>(st.stage);
  switch (st.layer) {
    case LayerRef::kRgbStage:
      return net.rgb_encoder().forward_stage_infer(st.stage, x);
    case LayerRef::kDepthStage:
      return net.depth_encoder().forward_stage_infer(st.stage, x);
    case LayerRef::kDepthToRgb:
      return net.depth_to_rgb_filters()[stage].match_infer(x);
    case LayerRef::kRgbToDepth:
      return net.rgb_to_depth_filters()[stage].match_infer(x);
    case LayerRef::kNone:
    case LayerRef::kDecoderUp:
    case LayerRef::kDecoderHead:
      break;
  }
  ROADFUSION_CHECK(false, "inference plan: layer step without a layer");
}

/// Per LayerRef: the explain-plan name prefix of a layer step and the
/// trace span prefix (the graph path's names, so traces read the same
/// whichever path served; null = no span of its own).
constexpr const char* kLayerNames[] = {"",    "rgb", "depth", "d2r",
                                       "r2d", "",    ""};
constexpr const char* kLayerSpans[] = {
    nullptr,        "rgb_encoder.stage", "depth_encoder.stage",
    "fusion.stage", "fusion.stage",      "decoder.up",
    "decoder.head"};

Tensor execute(const RoadSegNet& net, const CompiledPlan& plan,
               const Tensor& rgb, const Tensor& depth, float fusion_weight,
               StreamFeatureCache* cache) {
  std::array<std::optional<Tensor>, kMaxPlanSlots> local;
  // The blocked slots live in the workspace's scratch block; a run outside
  // any workspace owns its scratch.
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
  // NCHW or cached slots as tensors.
  const auto tensor_at = [&](int idx) -> Tensor& {
    const int k = plan.slots[static_cast<size_t>(idx)].cache_index;
    return k >= 0 ? cache->slots[static_cast<size_t>(k)]
                  : *local[static_cast<size_t>(idx)];
  };
  const auto data = [&](int idx) -> float* {
    const SlotDef& def = plan.slots[static_cast<size_t>(idx)];
    return def.layout == Layout::kNchwc && def.cache_index < 0
               ? scratch + def.offset
               : tensor_at(idx).raw();
  };
  // A fresh output buffer. Cached slots were shaped (zeroed) by
  // bind_cache.
  const auto define = [&](int idx) -> float* {
    const SlotDef& def = plan.slots[static_cast<size_t>(idx)];
    if (def.cache_index >= 0) {
      return data(idx);
    }
    if (def.layout == Layout::kNchwc) {
      // Every NCHWc writer fills all lanes of the interior; only the
      // border ring the pad-1 convs read must be zeroed.
      float* p = data(idx);
      zero_border(p, def.n, def.c, def.h, def.w);
      return p;
    }
    return local[static_cast<size_t>(idx)]
        .emplace(Tensor::uninitialized(slot_shape(def)))
        .raw();
  };
  const auto floats = [&](int idx) {
    return slot_shape(plan.slots[static_cast<size_t>(idx)]).numel();
  };

  std::optional<Tensor> out;
  const auto run_step = [&](size_t j) {
    const Step& st = plan.steps[j];
    switch (st.kind) {
      case StepKind::kLayer: {
        const Tensor& x = st.src >= 0 ? tensor_at(st.src)
                          : st.layer == LayerRef::kDepthStage ? depth
                                                              : rgb;
        Tensor y = run_layer(net, st, x);
        if (plan.slots[static_cast<size_t>(st.dst)].cache_index >= 0) {
          tensor_at(st.dst) = y;  // copies into the cache's heap storage
        } else {
          local[static_cast<size_t>(st.dst)] = std::move(y);
        }
        break;
      }
      case StepKind::kConvertToNchwc: {
        const SlotDef& dd = plan.slots[static_cast<size_t>(st.dst)];
        const float* src = nullptr;
        if (st.src >= 0) {
          src = data(st.src);
        } else {
          // Batch, height and width were checked against the key; this
          // pins the channel count.
          const Tensor& x = st.layer == LayerRef::kDepthStage ? depth : rgb;
          ROADFUSION_CHECK(x.numel() == dd.n * dd.c * dd.h * dd.w,
                           "inference plan: input " << x.shape().str()
                                                    << " does not match "
                                                    << dd.label);
          src = x.raw();
        }
        convert_to_nchwc(src, dd.n, dd.c, dd.h, dd.w, define(st.dst));
        break;
      }
      case StepKind::kConvertToNchw: {
        const SlotDef& sd = plan.slots[static_cast<size_t>(st.src)];
        convert_to_nchw(data(st.src), sd.n, sd.c, sd.h, sd.w,
                        define(st.dst));
        break;
      }
      case StepKind::kConvNchwc: {
        obs::ScopedSpan span("plan.conv", st.stage);
        const SlotDef& sd = plan.slots[static_cast<size_t>(st.src)];
        const SlotDef& dd = plan.slots[static_cast<size_t>(st.dst)];
        conv_nchwc(data(st.src), dd.n, sd.h, sd.w, *st.conv, define(st.dst),
                   dd.h, dd.w, st.pre >= 0 ? data(st.pre) : nullptr,
                   st.post >= 0 ? data(st.post) : nullptr,
                   fusion_weight);
        break;
      }
      case StepKind::kTConvNchwc: {
        obs::ScopedSpan span("plan.tconv", st.stage);
        const SlotDef& sd = plan.slots[static_cast<size_t>(st.src)];
        tconv_nchwc(data(st.src), sd.n, sd.h, sd.w, *st.conv, define(st.dst),
                    st.pre >= 0 ? data(st.pre) : nullptr);
        break;
      }
      case StepKind::kAddInPlace:
        add_in_place(data(st.dst), data(st.src), floats(st.dst));
        break;
      case StepKind::kAccumulate:
        accumulate(data(st.dst), data(st.src), floats(st.dst),
                   fusion_weight);
        break;
      case StepKind::kAwnFuse: {
        Tensor& r = tensor_at(st.dst);
        const Tensor& d = tensor_at(st.aux);
        obs::ScopedSpan awn_span("awn.weight");
        const Tensor wgt = net.awn()->weight_infer(r, d);
        // matched = w (per sample) * d — the ws * x order of
        // scale_per_sample — into a transient, so d stays unscaled.
        Tensor matched = Tensor::uninitialized(d.shape());
        const int64_t batch = d.shape().batch();
        const int64_t per_sample = d.numel() / batch;
        const float* pd = d.raw();
        const float* pw = wgt.raw();
        float* pm = matched.raw();
        for (int64_t s = 0; s < batch; ++s) {
          for (int64_t i = 0; i < per_sample; ++i) {
            pm[s * per_sample + i] = pw[s] * pd[s * per_sample + i];
          }
        }
        accumulate(r.raw(), pm, r.numel(), fusion_weight);
        break;
      }
      case StepKind::kDecoder: {
        obs::ScopedSpan decoder_span("decoder");
        std::array<const Tensor*, kMaxPlanStages> skips{};
        for (size_t i = 0; i < plan.skip_slots.size(); ++i) {
          skips[i] = &tensor_at(plan.skip_slots[i]);
        }
        out = net.decoder().forward_infer(
            skips.data(), static_cast<int>(plan.skip_slots.size()));
        break;
      }
    }
    for (int idx : plan.release_after[j]) {
      local[static_cast<size_t>(idx)].reset();
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
  return std::move(plan.logits >= 0 ? *local[static_cast<size_t>(plan.logits)]
                                    : *out);
}

// ---------------------------------------------------------------------------
// Run hook: variant + layout choice, plan-cache lookup
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
  // Layers count under their schedule's layout (the AWN head's NCHW
  // pooling inside a blocked schedule counts as blocked).
  (key.layout == Layout::kNchwc ? m.layers_nchwc : m.layers_nchw)
      ->inc(static_cast<uint64_t>(layers));
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
  const PlanMetrics& m = metrics();
  const NchwReason reason = nchw_reason(ctx);
  if (reason != NchwReason::kNone) {
    m.declined->inc();
    m.declined_by_reason[static_cast<size_t>(reason)]->inc();
  }
  PlanKey key;
  key.n = rgb_shape.batch();
  key.h = rgb_shape.height();
  key.w = rgb_shape.width();
  key.layout = reason == NchwReason::kNone ? Layout::kNchwc : Layout::kNchw;
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
  m.runs[static_cast<size_t>(key.variant)]->inc();
  // The blocked schedule converts CHW inputs in place; the layer steps of
  // the all-NCHW one need rank-4 tensors.
  std::optional<Tensor> rgb4, depth4;
  if (key.layout == Layout::kNchw && rgb.shape().rank() == 3) {
    rgb4 = rgb.reshaped(rgb_shape);
    depth4 = depth.reshaped(as_nchw(depth.shape()));
  }
  Tensor out = execute(net, *plan, rgb4 ? *rgb4 : rgb,
                       depth4 ? *depth4 : depth, fusion_weight, cache);
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

std::string slot_str(const CompiledPlan& plan, int idx) {
  if (idx < 0) {
    return "input";
  }
  const SlotDef& def = plan.slots[static_cast<size_t>(idx)];
  std::ostringstream os;
  os << "%" << idx << ":" << def.label << "(" << def.n << "x" << def.c << "x"
     << def.h << "x" << def.w
     << (def.layout == Layout::kNchwc ? " nchwc8" : " nchw");
  if (def.cache_index >= 0) {
    os << " cached";
  } else if (def.layout == Layout::kNchwc) {
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

/// Solver the registry binds for an NCHW conv of this shape — what the
/// plan's layer steps and the decoder dispatch to.
std::string bound_solver(int64_t cin, int64_t cout, int64_t kernel,
                         int64_t stride, int64_t pad, int64_t in_h,
                         int64_t in_w) {
  tune::ConvProblem problem;
  problem.n = 1;
  problem.c = cin;
  problem.h = in_h;
  problem.w = in_w;
  problem.k = cout;
  problem.r = kernel;
  problem.s = kernel;
  problem.stride = stride;
  problem.pad = pad;
  return tune::bind(problem, true)->solver->name();
}

/// The first conv a layer step runs (its solver heads the explain line).
const nn::Conv2d& first_conv(const RoadSegNet& net, const Step& st) {
  const auto stage = static_cast<size_t>(st.stage);
  switch (st.layer) {
    case LayerRef::kRgbStage:
    case LayerRef::kDepthStage: {
      const Encoder& encoder = st.layer == LayerRef::kRgbStage
                                   ? net.rgb_encoder()
                                   : net.depth_encoder();
      return st.stage == 0 ? encoder.stem().conv()
                           : encoder.block(st.stage).conv1().conv();
    }
    case LayerRef::kDepthToRgb:
      return net.depth_to_rgb_filters()[stage].conv();
    case LayerRef::kRgbToDepth:
      return net.rgb_to_depth_filters()[stage].conv();
    case LayerRef::kNone:
    case LayerRef::kDecoderUp:
    case LayerRef::kDecoderHead:
      break;
  }
  ROADFUSION_CHECK(false, "inference plan: layer step without a layer");
}

/// The blocked kernels' name as explain and benches report it.
const char* nchwc_kernel() {
  return common::active_tier() >= common::CpuTier::kAvx2 ? "nchwc_direct_avx2"
                                                         : "nchwc_direct";
}

/// The kernel a conv-running step dispatches to: the blocked kernel, or
/// for an NCHW step the solver the registry binds for its first conv.
std::string step_kernel(const RoadSegNet& net, const CompiledPlan& plan,
                        const Step& st) {
  switch (st.kind) {
    case StepKind::kConvNchwc:
    case StepKind::kTConvNchwc:
      return nchwc_kernel();
    case StepKind::kLayer: {
      const SlotDef* src =
          st.src >= 0 ? &plan.slots[static_cast<size_t>(st.src)] : nullptr;
      const nn::Conv2d& conv = first_conv(net, st);
      return bound_solver(conv.in_channels(), conv.out_channels(),
                          conv.geometry().kernel, conv.geometry().stride,
                          conv.geometry().padding,
                          src != nullptr ? src->h : plan.key.h,
                          src != nullptr ? src->w : plan.key.w);
    }
    case StepKind::kDecoder:
      return bound_solver(net.config().stage_channels[0],
                          net.config().stage_channels[0], 3, 1, 1,
                          plan.key.h, plan.key.w);
    default:
      return "";
  }
}

/// "conv3x3/s1" / "tconv2x2/s2" for a blocked conv step.
std::string conv_kind(const PackedConv& pc) {
  return std::string(pc.transposed ? "tconv" : "conv") +
         std::to_string(pc.kernel) + "x" + std::to_string(pc.kernel) + "/s" +
         std::to_string(pc.stride);
}

void print_plan(std::ostream& os, const RoadSegNet& net,
                const CompiledPlan& plan, NchwReason reason) {
  const PlanKey& key = plan.key;
  os << "inference plan: scheme=" << core::to_string(net.config().scheme)
     << " variant=" << variant_name(key.variant)
     << " layout=" << (key.layout == Layout::kNchwc ? "nchwc8" : "nchw")
     << " reason=" << reason_name(reason) << " input=" << key.n << "x"
     << net.config().rgb_channels << "x" << key.h << "x" << key.w
     << " steps=" << plan.steps.size() << " slots=" << plan.slots.size()
     << "\n";
  for (size_t j = 0; j < plan.steps.size(); ++j) {
    const Step& st = plan.steps[j];
    os << "  [" << j << "] ";
    switch (st.kind) {
      case StepKind::kLayer:
        os << "layer       layout=nchw solver=" << step_kernel(net, plan, st)
           << " layer=" << kLayerNames[static_cast<size_t>(st.layer)]
           << ".stage" << st.stage << " " << slot_str(plan, st.src)
           << " -> " << slot_str(plan, st.dst);
        break;
      case StepKind::kConvertToNchwc:
        os << "to_nchwc    " << slot_str(plan, st.src) << " -> "
           << slot_str(plan, st.dst);
        break;
      case StepKind::kConvertToNchw:
        os << "to_nchw     " << slot_str(plan, st.src) << " -> "
           << slot_str(plan, st.dst);
        break;
      case StepKind::kConvNchwc:
      case StepKind::kTConvNchwc:
        os << conv_kind(*st.conv) << (st.conv->transposed ? "  " : "   ")
           << "layout=nchwc8 solver=" << nchwc_kernel()
           << " layer=" << st.conv->name
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
        os << "awn_fuse    layout=nchw " << slot_str(plan, st.dst)
           << " += w * AWN-scaled " << slot_str(plan, st.aux);
        break;
      case StepKind::kDecoder:
        os << "decoder     layout=nchw solver=" << step_kernel(net, plan, st)
           << " skips={";
        for (size_t i = 0; i < plan.skip_slots.size(); ++i) {
          os << (i == 0 ? "" : ", ") << "%" << plan.skip_slots[i];
        }
        os << "} -> logits";
        break;
    }
    // Slots dead after this step: released NCHW tensors and NCHWc
    // scratch regions free for later slots.
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
    return net.num_stages() > kMaxPlanStages
               ? "inference plan unavailable: more than " +
                     std::to_string(kMaxPlanStages) +
                     " stages; inference uses the autograd graph\n"
               : "inference plan unavailable: model is in training mode "
                 "(call set_training(false) first); inference uses the "
                 "autograd graph\n";
  }
  const auto& ctx = *static_cast<const PlanContext*>(state.get());
  const NchwReason reason = nchw_reason(ctx);
  std::ostringstream os;
  // The kernel-selection knobs, with the values serving actually uses.
  const auto or_unset = [](const std::string& value) {
    return value.empty() ? std::string("unset") : value;
  };
  os << "knob ROADFUSION_SOLVER=" << or_unset(tune::forced_solver()) << "\n"
     << "knob ROADFUSION_PERF_DB="
     << or_unset(env_string("ROADFUSION_PERF_DB", ""))
     << " records=" << tune::perf_db_size() << "\n"
     << "knob ROADFUSION_CPU_FEATURES="
     << or_unset(env_string("ROADFUSION_CPU_FEATURES", ""))
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
    key.layout = reason == NchwReason::kNone ? Layout::kNchwc : Layout::kNchw;
    print_plan(os, net, *compile(ctx, net, key), reason);
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
  key.layout = nchw_reason(ctx) == NchwReason::kNone ? Layout::kNchwc
                                                     : Layout::kNchw;
  const std::shared_ptr<const CompiledPlan> plan = compile(ctx, net, key);
  for (const Step& st : plan->steps) {
    if (st.conv != nullptr) {
      out.push_back({st.conv->name, conv_kind(*st.conv),
                     step_kernel(net, *plan, st)});
    } else if (st.kind == StepKind::kLayer) {
      out.push_back({std::string(kLayerNames[static_cast<size_t>(st.layer)]) +
                         ".stage" + std::to_string(st.stage),
                     "layer", step_kernel(net, *plan, st)});
    } else if (st.kind == StepKind::kDecoder) {
      out.push_back({"decoder", "decoder", step_kernel(net, *plan, st)});
    }
  }
  return out;
}

}  // namespace roadfusion::plan
