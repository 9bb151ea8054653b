#include "tensor/workspace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common/check.hpp"

namespace roadfusion::tensor {
namespace detail {

/// Shared between the Workspace handle and every outstanding block.
/// Intrusively refcounted: the Workspace holds one reference, each
/// acquired (in-flight) block holds one. Blocks sitting in the free list
/// are owned by the core itself and freed with it.
struct PoolCore {
  std::mutex mutex;
  bool alive = true;              ///< false once the Workspace destructs
  BlockHeader* free_list = nullptr;
  size_t reserved_bytes = 0;
  size_t in_use_bytes = 0;
  size_t peak_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Capacity of every block this pool created (one entry per miss) —
  /// exactly the blocks a fresh arena must hold to replay the same
  /// workload hit-only, i.e. the plan.
  std::vector<size_t> miss_floats;
  std::atomic<int64_t> refs{1};

  PoolCore* prev = nullptr;  ///< global registry links (for global_stats)
  PoolCore* next = nullptr;
};

namespace {

/// Global registry of live pool cores so the arena gauges can aggregate.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}
PoolCore*& registry_head() {
  static PoolCore* head = nullptr;
  return head;
}

thread_local Workspace* g_current = nullptr;

constexpr size_t kHeaderFloats =
    (sizeof(BlockHeader) + sizeof(float) - 1) / sizeof(float);

/// Allocates header + payload in one chunk, payload float-aligned.
BlockHeader* new_block(PoolCore* core, size_t capacity) {
  // operator new guarantees alignment for any fundamental type; the
  // payload starts at a multiple of sizeof(BlockHeader) which is itself
  // pointer-aligned, so float (and SSE unaligned-load) access is fine.
  void* raw = ::operator new((kHeaderFloats + capacity) * sizeof(float));
  auto* header = static_cast<BlockHeader*>(raw);
  header->core = core;
  header->capacity = capacity;
  header->next = nullptr;
  return header;
}

float* payload_of(BlockHeader* header) {
  return reinterpret_cast<float*>(header) + kHeaderFloats;
}

void destroy_block(BlockHeader* header) { ::operator delete(header); }

void unref_core(PoolCore* core) {
  if (core->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete core;
  }
}

}  // namespace

BlockHeader* header_of(float* payload) {
  return reinterpret_cast<BlockHeader*>(payload - kHeaderFloats);
}

}  // namespace detail

using detail::BlockHeader;
using detail::PoolCore;

size_t WorkspacePlan::total_bytes() const {
  size_t total = scratch_floats * sizeof(float);
  for (size_t n : block_floats) {
    total += n * sizeof(float);
  }
  return total;
}

Workspace::Workspace() : core_(new PoolCore()) {
  std::lock_guard<std::mutex> lock(detail::registry_mutex());
  core_->next = detail::registry_head();
  if (core_->next != nullptr) {
    core_->next->prev = core_;
  }
  detail::registry_head() = core_;
}

Workspace::~Workspace() {
  {
    std::lock_guard<std::mutex> lock(detail::registry_mutex());
    if (core_->prev != nullptr) {
      core_->prev->next = core_->next;
    } else {
      detail::registry_head() = core_->next;
    }
    if (core_->next != nullptr) {
      core_->next->prev = core_->prev;
    }
  }
  BlockHeader* free_blocks = nullptr;
  {
    std::lock_guard<std::mutex> lock(core_->mutex);
    core_->alive = false;
    free_blocks = core_->free_list;
    core_->free_list = nullptr;
  }
  while (free_blocks != nullptr) {
    BlockHeader* next = free_blocks->next;
    detail::destroy_block(free_blocks);
    free_blocks = next;
  }
  detail::unref_core(core_);  // outstanding blocks keep the core alive
}

float* Workspace::acquire(size_t n) {
  ROADFUSION_CHECK(n > 0, "Workspace::acquire of zero floats");
  BlockHeader* best = nullptr;
  {
    std::lock_guard<std::mutex> lock(core_->mutex);
    // Best fit: smallest free block with capacity >= n. The list is short
    // (one entry per distinct transient buffer of a forward pass), so a
    // linear scan costs nothing next to the work the buffer feeds.
    BlockHeader* prev = nullptr;
    BlockHeader* best_prev = nullptr;
    for (BlockHeader* cur = core_->free_list; cur != nullptr;
         prev = cur, cur = cur->next) {
      if (cur->capacity >= n &&
          (best == nullptr || cur->capacity < best->capacity)) {
        best = cur;
        best_prev = prev;
        if (cur->capacity == n) {
          break;  // exact fit
        }
      }
    }
    if (best != nullptr) {
      if (best_prev != nullptr) {
        best_prev->next = best->next;
      } else {
        core_->free_list = best->next;
      }
      best->next = nullptr;
      ++core_->hits;
    } else {
      ++core_->misses;
      core_->reserved_bytes += n * sizeof(float);
      core_->miss_floats.push_back(n);
    }
    const size_t payload = (best != nullptr ? best->capacity : n);
    core_->in_use_bytes += payload * sizeof(float);
    core_->peak_bytes = std::max(core_->peak_bytes, core_->in_use_bytes);
    core_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  if (best == nullptr) {
    best = detail::new_block(core_, n);
  }
  return detail::payload_of(best);
}

void Workspace::release(float* payload) {
  BlockHeader* header = detail::header_of(payload);
  PoolCore* core = header->core;
  bool keep = false;
  {
    std::lock_guard<std::mutex> lock(core->mutex);
    core->in_use_bytes -= header->capacity * sizeof(float);
    if (core->alive) {
      header->next = core->free_list;
      core->free_list = header;
      keep = true;
    }
  }
  if (!keep) {
    detail::destroy_block(header);
  }
  detail::unref_core(core);
}

float* Workspace::scratch(size_t n) {
  ROADFUSION_CHECK(n > 0, "Workspace::scratch of zero floats");
  if (n > scratch_floats_) {
    grow_scratch(n);
    const std::lock_guard<std::mutex> lock(core_->mutex);
    ++core_->misses;
  } else {
    const std::lock_guard<std::mutex> lock(core_->mutex);
    ++core_->hits;
  }
  return scratch_.get();
}

void Workspace::grow_scratch(size_t n) {
  scratch_.reset();  // before the larger block is made
  scratch_.reset(new float[n]);
  const size_t grown = (n - scratch_floats_) * sizeof(float);
  scratch_floats_ = n;
  const std::lock_guard<std::mutex> lock(core_->mutex);
  core_->reserved_bytes += grown;
  core_->in_use_bytes += grown;
  core_->peak_bytes = std::max(core_->peak_bytes, core_->in_use_bytes);
}

void Workspace::reserve(const WorkspacePlan& plan) {
  if (plan.scratch_floats > scratch_floats_) {
    grow_scratch(plan.scratch_floats);
  }
  for (size_t n : plan.block_floats) {
    if (n == 0) {
      continue;
    }
    BlockHeader* block = detail::new_block(core_, n);
    std::lock_guard<std::mutex> lock(core_->mutex);
    core_->reserved_bytes += n * sizeof(float);
    block->next = core_->free_list;
    core_->free_list = block;
  }
}

WorkspacePlan Workspace::plan_snapshot() const {
  // Every miss created exactly one block, and the created set is exactly
  // what a fresh arena must pre-hold to replay the same workload with
  // hits only — reuse across disjoint lifetimes is already folded in,
  // because a reused block never missed a second time.
  WorkspacePlan plan;
  std::lock_guard<std::mutex> lock(core_->mutex);
  plan.block_floats = core_->miss_floats;
  std::sort(plan.block_floats.begin(), plan.block_floats.end());
  plan.scratch_floats = scratch_floats_;
  plan.peak_bytes = core_->peak_bytes;
  return plan;
}

WorkspaceStats Workspace::stats() const {
  std::lock_guard<std::mutex> lock(core_->mutex);
  return {core_->reserved_bytes, core_->in_use_bytes, core_->peak_bytes,
          core_->hits, core_->misses};
}

void Workspace::reset_counters() {
  std::lock_guard<std::mutex> lock(core_->mutex);
  core_->hits = 0;
  core_->misses = 0;
}

Workspace* Workspace::current() { return detail::g_current; }

WorkspaceStats Workspace::global_stats() {
  WorkspaceStats total;
  std::lock_guard<std::mutex> registry_lock(detail::registry_mutex());
  for (PoolCore* core = detail::registry_head(); core != nullptr;
       core = core->next) {
    std::lock_guard<std::mutex> lock(core->mutex);
    total.reserved_bytes += core->reserved_bytes;
    total.in_use_bytes += core->in_use_bytes;
    total.peak_bytes += core->peak_bytes;
    total.hits += core->hits;
    total.misses += core->misses;
  }
  return total;
}

WorkspaceScope::WorkspaceScope(Workspace& workspace)
    : previous_(detail::g_current) {
  detail::g_current = &workspace;
}

WorkspaceScope::~WorkspaceScope() { detail::g_current = previous_; }

NoWorkspaceScope::NoWorkspaceScope() : previous_(detail::g_current) {
  detail::g_current = nullptr;
}

NoWorkspaceScope::~NoWorkspaceScope() { detail::g_current = previous_; }

}  // namespace roadfusion::tensor
