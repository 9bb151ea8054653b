// Module system: named, shareable parameters plus a light Module base.
//
// Parameters are held through shared_ptr so two layers can alias the same
// storage — that aliasing IS the paper's Layer-sharing mechanism: when the
// RGB and depth branches share a stage, their Conv2d/BatchNorm2d modules
// are constructed from the same ParameterPtrs, gradients from both branches
// accumulate into one buffer, and the optimizer performs a single update.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.hpp"

namespace roadfusion::nn {

using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

/// A trainable tensor with a name for checkpointing.
struct Parameter {
  std::string name;
  Variable var;  ///< leaf Variable with requires_grad = true

  Parameter(std::string name_in, Tensor value)
      : name(std::move(name_in)),
        var(Variable::leaf(std::move(value), /*requires_grad=*/true)) {}
};

using ParameterPtr = std::shared_ptr<Parameter>;

/// Named mutable tensor exposed for checkpointing; covers both parameters
/// and non-trainable buffers (batch-norm running statistics).
struct StateEntry {
  std::string name;
  Tensor* tensor;  ///< non-owning; valid while the owning module lives
};

/// Base class for layers and composite networks.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends this module's parameters (without deduplication — composites
  /// sharing layers will surface duplicates, removed by `parameters()`).
  virtual void collect_parameters(std::vector<ParameterPtr>& out) const = 0;

  /// Appends checkpointable state as (name, tensor) pairs, names prefixed
  /// with `prefix`.
  virtual void collect_state(const std::string& prefix,
                             std::vector<StateEntry>& out) = 0;

  /// Switches training/eval behaviour (batch norm). Default: no-op.
  virtual void set_training(bool training);

  /// Unique parameters of this module (shared parameters appear once).
  std::vector<ParameterPtr> parameters() const;

  /// Total trainable scalar count, counting shared parameters once.
  int64_t parameter_count() const;

  /// Unique checkpoint state (shared tensors appear once).
  std::vector<StateEntry> state(const std::string& prefix = "");

  /// Clears gradients of all parameters.
  void zero_grad();
};

/// Global invalidation epoch for the compiled inference plan, the one
/// inference-only cache (DESIGN.md §11). A plan binding stamps the epoch
/// when built and lazily rebuilds when it has moved on. Bumped by
/// anything that may change parameter or running-statistic values outside
/// the plan's view: restore_state (model loads), optimizer steps, and
/// switching a network into training mode.
uint64_t current_inference_epoch();
void invalidate_inference_caches();

/// Copies a module's state into a named-tensor list (for save_checkpoint).
std::vector<std::pair<std::string, Tensor>> snapshot_state(Module& module);

/// Loads a named-tensor list into a module's state. Entries are matched by
/// name; shape mismatches and missing names throw.
void restore_state(
    Module& module,
    const std::vector<std::pair<std::string, Tensor>>& snapshot);

}  // namespace roadfusion::nn
