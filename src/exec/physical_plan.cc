#include "exec/physical_plan.h"

namespace dbspinner {

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
