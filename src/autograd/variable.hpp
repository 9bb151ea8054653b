// Define-by-run automatic differentiation.
//
// A `Variable` is a shared handle to a graph `Node` holding a value tensor,
// an optional gradient, and a backward closure that scatters the node's
// gradient into its parents. Calling `Variable::backward()` runs reverse-
// mode accumulation over the dynamically recorded graph.
//
// Parameters are leaf Variables with `requires_grad = true`; they persist
// across iterations (their grads accumulate until `zero_grad`). All
// intermediate nodes are created per forward pass and released when the
// last Variable referencing them goes out of scope.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace roadfusion::autograd {

using tensor::Shape;
using tensor::Tensor;

class Node;
using NodePtr = std::shared_ptr<Node>;

/// Thread-local switch for gradient recording. While disabled, `make_op`
/// creates parent-less nodes with no backward closure, so the forward pass
/// builds no tape and intermediate values die as soon as their consumers
/// finish — how the graph serves inference (the compiled plan skips
/// Variables entirely).
class GradMode {
 public:
  static bool enabled();
  static void set_enabled(bool enabled);
};

/// RAII guard disabling gradient recording on the current thread.
class InferenceModeGuard {
 public:
  InferenceModeGuard() : previous_(GradMode::enabled()) {
    GradMode::set_enabled(false);
  }
  ~InferenceModeGuard() { GradMode::set_enabled(previous_); }
  InferenceModeGuard(const InferenceModeGuard&) = delete;
  InferenceModeGuard& operator=(const InferenceModeGuard&) = delete;

 private:
  bool previous_;
};

/// One vertex of the autograd tape.
class Node {
 public:
  Node(Tensor value, bool requires_grad, std::string op_name);

  /// Forward value of this node.
  Tensor value;

  /// Accumulated gradient; lazily allocated on first accumulation.
  Tensor grad;
  bool grad_allocated = false;

  /// True when this node (or any ancestor) participates in differentiation.
  bool requires_grad = false;

  /// Parents in the forward graph (inputs of the producing op).
  std::vector<NodePtr> parents;

  /// Scatters this node's gradient into its parents. Null for leaves.
  std::function<void(Node&)> backward_fn;

  /// Op name for debugging ("conv2d", "relu", ...). Leaves use "leaf".
  std::string op_name;

  /// Adds `g` into this node's gradient buffer (allocating if needed).
  /// No-op when the node does not require grad.
  void accumulate_grad(const Tensor& g);
};

/// Shared handle to a Node; the user-facing autograd type.
class Variable {
 public:
  /// Null handle; `defined()` is false.
  Variable() = default;

  /// Wraps an existing node (library internal use).
  explicit Variable(NodePtr node) : node_(std::move(node)) {}

  /// Creates a differentiable leaf (a parameter or an input under test).
  static Variable leaf(Tensor value, bool requires_grad = false);

  /// Creates a non-differentiable constant leaf.
  static Variable constant(Tensor value);

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;

  /// Mutable access to the value (optimizer updates). Must be a leaf.
  Tensor& mutable_value();

  /// Gradient accumulated by the last backward passes. Zero tensor of the
  /// value's shape when nothing was accumulated.
  Tensor grad() const;

  bool requires_grad() const;

  /// Clears the accumulated gradient.
  void zero_grad();

  /// Runs reverse-mode accumulation from this node. The node must be a
  /// scalar unless `seed` supplies an explicit output gradient.
  void backward(const Tensor* seed = nullptr) const;

  /// Underlying node (library internal use).
  const NodePtr& node() const { return node_; }

  const Shape& shape() const { return value().shape(); }

 private:
  NodePtr node_;
};

/// Builds an op node: value, parents, and backward closure in one call.
/// `requires_grad` is derived from the parents.
Variable make_op(Tensor value, std::vector<Variable> parents,
                 std::function<void(Node&)> backward_fn, std::string op_name);

}  // namespace roadfusion::autograd
