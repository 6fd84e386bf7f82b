#include "exec/physical_plan.h"

#include "common/string_util.h"

namespace dbspinner {

void ExecStats::RewindWorkCountersTo(const ExecStats& base) {
  steps_executed = base.steps_executed;
  loop_iterations = base.loop_iterations;
  rows_materialized = base.rows_materialized;
  rows_shuffled = base.rows_shuffled;
  renames = base.renames;
  merge_updates = base.merge_updates;
  delta_rows = base.delta_rows;
  delta_probe_rows = base.delta_probe_rows;
  build_cache_hits = base.build_cache_hits;
  pipelines_run = base.pipelines_run;
  morsels_dispatched = base.morsels_dispatched;
  pipeline_rows_in = base.pipeline_rows_in;
  pipeline_rows_out = base.pipeline_rows_out;
  kernel_rows_filter = base.kernel_rows_filter;
  kernel_rows_project = base.kernel_rows_project;
  kernel_rows_probe = base.kernel_rows_probe;
  pipeline_ns = base.pipeline_ns;
  morsels_stolen = base.morsels_stolen;
  agg_partials_merged = base.agg_partials_merged;
  agg_rows_preaggregated = base.agg_rows_preaggregated;
}

std::string ExecStats::ToString() const {
  return StringPrintf(
      "ExecStats{steps=%lld, iterations=%lld, rows_materialized=%lld, "
      "rows_shuffled=%lld, renames=%lld, merge_updates=%lld, "
      "delta_rows=%lld, delta_probe_rows=%lld, build_cache_hits=%lld, "
      "faults_seen=%lld, step_retries=%lld, checkpoints_taken=%lld, "
      "restores=%lld, durable_checkpoints=%lld, verify_violations=%lld, "
      "queue_wait_us=%lld, "
      "admission_waits=%lld, cancel_checks=%lld, pipelines=%lld, "
      "morsels=%lld, pipe_rows_in=%lld, pipe_rows_out=%lld, "
      "kernel_filter=%lld, kernel_project=%lld, kernel_probe=%lld, "
      "morsels_stolen=%lld, agg_partials_merged=%lld, "
      "agg_rows_preaggregated=%lld, ivm_deltas_applied=%lld, "
      "ivm_rows_maintained=%lld, ivm_full_refreshes=%lld, "
      "ivm_fallbacks=%lld, pipeline_ms=%.3f}",
      static_cast<long long>(steps_executed),
      static_cast<long long>(loop_iterations),
      static_cast<long long>(rows_materialized),
      static_cast<long long>(rows_shuffled), static_cast<long long>(renames),
      static_cast<long long>(merge_updates),
      static_cast<long long>(delta_rows),
      static_cast<long long>(delta_probe_rows),
      static_cast<long long>(build_cache_hits),
      static_cast<long long>(faults_seen),
      static_cast<long long>(step_retries),
      static_cast<long long>(checkpoints_taken),
      static_cast<long long>(restores),
      static_cast<long long>(durable_checkpoints),
      static_cast<long long>(verify_violations),
      static_cast<long long>(queue_wait_us),
      static_cast<long long>(admission_waits),
      static_cast<long long>(cancel_checks),
      static_cast<long long>(pipelines_run),
      static_cast<long long>(morsels_dispatched),
      static_cast<long long>(pipeline_rows_in),
      static_cast<long long>(pipeline_rows_out),
      static_cast<long long>(kernel_rows_filter),
      static_cast<long long>(kernel_rows_project),
      static_cast<long long>(kernel_rows_probe),
      static_cast<long long>(morsels_stolen),
      static_cast<long long>(agg_partials_merged),
      static_cast<long long>(agg_rows_preaggregated),
      static_cast<long long>(ivm_deltas_applied),
      static_cast<long long>(ivm_rows_maintained),
      static_cast<long long>(ivm_full_refreshes),
      static_cast<long long>(ivm_fallbacks),
      static_cast<double>(pipeline_ns) / 1e6);
}

std::string PhysicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + Name();
  std::string detail = Describe();
  if (!detail.empty()) out += " [" + detail + "]";
  out += "\n";
  for (const auto& c : children_) out += c->ToString(indent + 1);
  return out;
}

Result<TablePtr> PhysicalOp::Execute(ExecContext& ctx) const {
  (void)ctx;
  return Status::Internal(std::string(Name()) +
                          " runs only inside a pipeline");
}

Result<TablePtr> PhysicalScan::Execute(ExecContext& ctx) const {
  if (from_catalog_) {
    DBSP_ASSIGN_OR_RETURN(CatalogEntry * entry, ctx.catalog->Get(name_));
    return entry->table;
  }
  return ctx.registry->Get(name_);
}

Result<TablePtr> PhysicalValues::Execute(ExecContext& ctx) const {
  (void)ctx;
  auto out = Table::Make(output_schema_);
  for (const auto& row : rows_) out->AppendRow(row);
  return out;
}

}  // namespace dbspinner
