// Workspace: a size-bucketed recycling arena for steady-state inference.
//
// Motivation (DESIGN.md §11): a forward heap-allocates its transient
// tensors — on the graph path im2col matrices, GEMM outputs and feature
// maps; on the compiled plan the logits and the AWN head's small
// temporaries — then frees them, identical sizes every call. A Workspace
// keeps those blocks alive in a free list instead: the first pass
// through a model populates the arena (one `malloc` per distinct
// transient buffer), and from the second pass on every acquire is served
// from the free list — zero heap traffic.
//
// Lifetime sharing happens through the free list rather than static
// offsets: a buffer released mid-forward (a consumed im2col matrix, a
// dead activation) is immediately reusable by the next acquire of a
// compatible size, so buffers with disjoint lifetimes share storage just
// as an offset-planned arena would, without needing the planner to prove
// the overlap. Best-fit (smallest block >= requested) selection makes the
// arena reusable across batch sizes: after planning for the maximum
// batch, smaller batches draw from the same (larger) blocks and allocate
// nothing.
//
// The one buffer that would defeat this is a run's largest transient (the
// compiled plan's blocked-layout scratch, DESIGN.md §16): its size grows
// with the batch, so best-fit would keep one block per batch size the
// pool ever saw, in whatever order they came, and smaller buffers would
// squat in the large ones. It lives outside the free list instead, as the
// pool's scratch block (`scratch`), which a larger request replaces: the
// pool then holds one such block, of the largest size asked for.
//
// Integration: `WorkspaceScope` installs a Workspace as the calling
// thread's ambient pool; while it is active, every `Tensor` allocation on
// that thread draws from the pool (see tensor.hpp). Escaping tensors are
// safe: blocks carry a back-pointer to a refcounted pool core, so a
// tensor that outlives the scope — or the Workspace itself, or is
// destroyed on another thread — still releases its block correctly.
//
// Thread model: one Workspace per engine worker (or per caller thread).
// The internal free list is mutex-guarded only because escaped blocks may
// be released from another thread; the hot path is uncontended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace roadfusion::tensor {

class Workspace;

namespace detail {

/// Shared state between a Workspace handle and its outstanding blocks.
/// Outlives the Workspace while any block is still in flight.
struct PoolCore;

/// Header prepended to every pooled block; the float payload follows.
struct BlockHeader {
  PoolCore* core;      ///< owning pool core (refcounted)
  size_t capacity;     ///< payload capacity in floats
  BlockHeader* next;   ///< intrusive free-list link (valid while free)
};

/// Returns the payload's header, or nullptr for heap allocations.
BlockHeader* header_of(float* payload);

}  // namespace detail

/// Point-in-time usage of one arena.
struct WorkspaceStats {
  size_t reserved_bytes = 0;  ///< sum of all block capacities (free + live)
  size_t in_use_bytes = 0;    ///< currently acquired payload bytes
  size_t peak_bytes = 0;      ///< high-water mark of in_use_bytes
  uint64_t hits = 0;          ///< acquires served from the free list
  uint64_t misses = 0;        ///< acquires that had to call the heap
};

/// Size-bucketed recycling arena; see file comment.
class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns a block of >= n floats: best-fit from the free list, or a
  /// fresh heap block (a recorded miss). The block stays owned by this
  /// pool; release it with `release` (Tensor storage does so
  /// automatically).
  float* acquire(size_t n);

  /// Returns a pooled block to its owning pool's free list. Must be a
  /// pointer obtained from some Workspace::acquire; safe from any thread
  /// and after the Workspace was destroyed (the block is then freed).
  static void release(float* payload);

  /// The pool's scratch block, of >= n floats (see file comment). A
  /// larger n replaces it (a recorded miss; the old block is freed first),
  /// so the previous pointer is invalid after the call. It stays in use
  /// for the pool's life and has one user at a time: the run that asked
  /// for it last, on the pool's thread.
  float* scratch(size_t n);

  WorkspaceStats stats() const;

  /// Zeroes hit/miss counters (peak and reserved persist).
  void reset_counters();

  /// The calling thread's ambient pool installed by WorkspaceScope, or
  /// nullptr when none is active.
  static Workspace* current();

  /// Aggregate stats over every live Workspace in the process — the
  /// source for the roadfusion_arena_* gauges.
  static WorkspaceStats global_stats();

 private:
  friend class WorkspaceScope;

  detail::PoolCore* core_;
  std::unique_ptr<float[]> scratch_;
  size_t scratch_floats_ = 0;
};

/// RAII guard: installs `workspace` as the calling thread's ambient pool
/// for the scope's lifetime (restores the previous one on exit). While
/// active, Tensor storage on this thread is drawn from the pool.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& workspace);
  ~WorkspaceScope();
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace* previous_;
};

/// RAII guard suspending the ambient pool: Tensor allocations inside fall
/// back to the heap. Used by load-path cache builders whose tensors live
/// far longer than one forward pass and would otherwise pin pool blocks.
class NoWorkspaceScope {
 public:
  NoWorkspaceScope();
  ~NoWorkspaceScope();
  NoWorkspaceScope(const NoWorkspaceScope&) = delete;
  NoWorkspaceScope& operator=(const NoWorkspaceScope&) = delete;

 private:
  Workspace* previous_;
};

}  // namespace roadfusion::tensor
