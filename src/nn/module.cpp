#include "nn/module.hpp"

#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"

namespace roadfusion::nn {

namespace {
std::atomic<uint64_t> g_inference_epoch{1};
}  // namespace

uint64_t current_inference_epoch() {
  return g_inference_epoch.load(std::memory_order_acquire);
}

void invalidate_inference_caches() {
  g_inference_epoch.fetch_add(1, std::memory_order_acq_rel);
}

void Module::set_training(bool) {}

std::vector<ParameterPtr> Module::parameters() const {
  std::vector<ParameterPtr> all;
  collect_parameters(all);
  std::vector<ParameterPtr> unique;
  std::unordered_set<const Parameter*> seen;
  for (auto& p : all) {
    if (p && seen.insert(p.get()).second) {
      unique.push_back(p);
    }
  }
  return unique;
}

int64_t Module::parameter_count() const {
  int64_t count = 0;
  for (const auto& p : parameters()) {
    count += p->var.value().numel();
  }
  return count;
}

std::vector<StateEntry> Module::state(const std::string& prefix) {
  std::vector<StateEntry> all;
  collect_state(prefix, all);
  std::vector<StateEntry> unique;
  std::unordered_set<const Tensor*> seen;
  for (auto& entry : all) {
    if (entry.tensor != nullptr && seen.insert(entry.tensor).second) {
      unique.push_back(entry);
    }
  }
  return unique;
}

void Module::zero_grad() {
  for (auto& p : parameters()) {
    p->var.zero_grad();
  }
}

std::vector<std::pair<std::string, Tensor>> snapshot_state(Module& module) {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const StateEntry& entry : module.state()) {
    out.emplace_back(entry.name, *entry.tensor);
  }
  return out;
}

void restore_state(
    Module& module,
    const std::vector<std::pair<std::string, Tensor>>& snapshot) {
  std::unordered_map<std::string, const Tensor*> by_name;
  for (const auto& [name, tensor] : snapshot) {
    by_name[name] = &tensor;
  }
  for (StateEntry& entry : module.state()) {
    auto it = by_name.find(entry.name);
    ROADFUSION_CHECK(it != by_name.end(),
                     "restore_state: missing tensor '" << entry.name << "'");
    ROADFUSION_CHECK(it->second->shape() == entry.tensor->shape(),
                     "restore_state: shape mismatch for '"
                         << entry.name << "': checkpoint "
                         << it->second->shape().str() << " vs module "
                         << entry.tensor->shape().str());
    *entry.tensor = *it->second;
  }
  // Loaded values replace whatever the inference caches were packed from.
  invalidate_inference_caches();
}

}  // namespace roadfusion::nn
