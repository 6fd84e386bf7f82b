// Binder: semantic analysis. Resolves names against the catalog and CTE
// scope, infers types, extracts aggregates, and produces logical plans.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"

namespace dbspinner {

/// A CTE visible while binding: the intermediate-result name its scans read
/// at runtime, and its schema.
struct CteBinding {
  std::string result_name;
  Schema schema;
};

/// Binds one statement's queries. Not thread-safe; create one per statement.
class Binder {
 public:
  explicit Binder(Catalog* catalog) : catalog_(catalog) {}

  /// Makes a CTE visible to subsequent Bind* calls (shadowing catalog tables
  /// of the same name, per SQL scoping).
  void AddCte(const std::string& name, CteBinding binding);
  void RemoveCte(const std::string& name);
  bool HasCte(const std::string& name) const;

  /// Binds a full query node (select / set-op with ORDER BY / LIMIT).
  Result<LogicalOpPtr> BindQuery(const QueryNode& query);

  /// Binds a scalar expression over a single relation's schema; unqualified
  /// and `rel_name`-qualified column refs resolve into `schema`.
  Result<BoundExprPtr> BindExprOverSchema(const ParseExpr& expr,
                                          const Schema& schema,
                                          const std::string& rel_name);

  /// One FROM item's columns within a combined input schema.
  struct ScopeEntry {
    std::string alias;       ///< explicit alias (empty if none)
    std::string table_name;  ///< underlying table/CTE name (empty for
                             ///< derived tables)
    size_t start = 0;        ///< first column ordinal in the combined schema
    size_t count = 0;
  };
  struct BindContext {
    Schema schema;                   ///< combined input schema
    std::vector<ScopeEntry> entries;
  };

  /// Binds a scalar expression over an explicit context (exposed for
  /// INSERT ... VALUES, whose constants bind over an empty context).
  Result<BoundExprPtr> BindScalarExpr(const ParseExpr& expr,
                                      const BindContext& ctx);

 private:
  /// Binds a FROM-clause table reference, returning the plan; `*ctx_out`
  /// receives the visible column scopes.
  Result<LogicalOpPtr> BindTableRef(const TableRef& ref, BindContext* ctx_out);

  Result<LogicalOpPtr> BindSelectCore(const QueryNode& q);
  Result<LogicalOpPtr> BindSetOp(const QueryNode& q);

  Result<BoundExprPtr> BindAggContextExpr(
      const ParseExpr& expr, const BindContext& input_ctx,
      const std::vector<const ParseExpr*>& group_parse_exprs,
      const std::vector<BoundExprPtr>& group_bound,
      std::vector<AggregateSpec>* specs, const Schema& agg_schema);

  Result<AggregateSpec> BindAggregateCall(const ParseExpr& call,
                                          const BindContext& input_ctx);

  /// Resolves a (possibly qualified) column name within `ctx`.
  Result<BoundExprPtr> ResolveColumn(const std::string& qualifier,
                                     const std::string& name,
                                     const BindContext& ctx);

  Catalog* catalog_;
  std::map<std::string, CteBinding> ctes_;
};

/// True if the expression tree contains an aggregate function call.
bool ContainsAggregate(const ParseExpr& expr);

/// Structural equality of unbound expressions (used for GROUP BY matching).
bool ParseExprEquals(const ParseExpr& a, const ParseExpr& b);

/// Wraps `plan` in a Project that casts its columns to `target` types (and
/// renames them to `target` names). No-op if schemas already match.
LogicalOpPtr MakeCastProject(LogicalOpPtr plan, const Schema& target);

}  // namespace dbspinner
