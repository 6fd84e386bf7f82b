#include "engine/options.h"

#include "common/string_util.h"

namespace dbspinner {

const std::vector<OptimizerToggles::Toggle>& OptimizerToggles::All() {
  static const std::vector<Toggle> kToggles = {
      {"constant_folding", &OptimizerOptions::enable_constant_folding},
      {"join_simplification", &OptimizerOptions::enable_join_simplification},
      {"predicate_pushdown", &OptimizerOptions::enable_predicate_pushdown},
      {"cte_predicate_pushdown",
       &OptimizerOptions::enable_cte_predicate_pushdown},
      {"common_result", &OptimizerOptions::enable_common_result},
      {"rename", &OptimizerOptions::enable_rename_optimization},
      {"delta_iteration", &OptimizerOptions::enable_delta_iteration},
      {"join_build_cache", &OptimizerOptions::enable_join_build_cache},
  };
  return kToggles;
}

bool OptimizerToggles::Set(OptimizerOptions* options, const std::string& name,
                           bool value) {
  for (const Toggle& t : All()) {
    if (name == t.name) {
      options->*(t.member) = value;
      return true;
    }
  }
  return false;
}

OptimizerOptions OptimizerToggles::AllSetTo(bool value) {
  OptimizerOptions options;
  for (const Toggle& t : All()) {
    options.*(t.member) = value;
  }
  return options;
}

Status EngineOptions::Validate() const {
  if (morsel_size < 1) {
    return Status::InvalidArgument("morsel_size must be >= 1");
  }
  if (mpp_min_rows_per_task < 1) {
    return Status::InvalidArgument("mpp_min_rows_per_task must be >= 1");
  }
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (max_iterations_guard < 1) {
    return Status::InvalidArgument("max_iterations_guard must be >= 1");
  }
  if (ivm_max_delta_rows < 1) {
    return Status::InvalidArgument("ivm_max_delta_rows must be >= 1");
  }
  if (persistence.enabled) {
    if (persistence.path.empty()) {
      return Status::InvalidArgument(
          "persistence.enabled requires a non-empty persistence.path");
    }
    if (persistence.block_rows < 1) {
      return Status::InvalidArgument("persistence.block_rows must be >= 1");
    }
    if (persistence.manifest_every < 1) {
      return Status::InvalidArgument("persistence.manifest_every must be >= 1");
    }
  }
  return Status::OK();
}

std::string EngineOptions::ToString() const {
  return StringPrintf(
      "EngineOptions{workers=%d, fold=%d, join_simplify=%d, pushdown=%d, "
      "cte_pushdown=%d, common_result=%d, rename=%d, delta=%d, "
      "build_cache=%d, morsel=%zu, "
      "faults=%d(seed=%llu, "
      "rate=%.3f), recovery=%d(k=%lld, "
      "retries=%d), verify=%d(enforce=%d), persist=%d, "
      "ivm=%d(max_delta=%lld)}",
      num_workers, optimizer.enable_constant_folding ? 1 : 0,
      optimizer.enable_join_simplification ? 1 : 0,
      optimizer.enable_predicate_pushdown ? 1 : 0,
      optimizer.enable_cte_predicate_pushdown ? 1 : 0,
      optimizer.enable_common_result ? 1 : 0,
      optimizer.enable_rename_optimization ? 1 : 0,
      optimizer.enable_delta_iteration ? 1 : 0,
      optimizer.enable_join_build_cache ? 1 : 0,
      morsel_size,
      fault_injection.enabled ? 1 : 0,
      static_cast<unsigned long long>(fault_injection.seed),
      fault_injection.rate, fault_tolerance.enable_recovery ? 1 : 0,
      static_cast<long long>(fault_tolerance.checkpoint_interval),
      fault_tolerance.max_step_retries, verify.verify_plans ? 1 : 0,
      verify.enforce ? 1 : 0, persistence.enabled ? 1 : 0,
      ivm_enabled ? 1 : 0, static_cast<long long>(ivm_max_delta_rows));
}

}  // namespace dbspinner
