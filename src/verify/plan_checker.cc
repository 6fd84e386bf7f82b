// Logical-plan checker: V001..V011.
//
// Validates one LogicalOp tree bottom-up. The checks mirror what the binder
// guarantees on entry to the optimizer, so any diagnostic after a rewrite
// pass points at the rewrite that broke the invariant. Type checks are
// deliberately lenient about kNull (constant folding legally produces NULL
// constants whose static type is kNull) and about column *names* on
// copy-through operators (rewrites relabel freely; positional types are
// authoritative, see Schema).

#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/types.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"
#include "verify/verify_internal.h"

namespace dbspinner {
namespace verify {
namespace internal {

namespace {

constexpr size_t kExcerptLimit = 512;

/// Expected child count per operator kind.
size_t ExpectedChildren(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kScan:
    case LogicalOpKind::kValues:
      return 0;
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kUnionAll:
    case LogicalOpKind::kExcept:
    case LogicalOpKind::kIntersect:
      return 2;
    default:
      return 1;
  }
}

class PlanChecker {
 public:
  PlanChecker(const VerifyContext& ctx, int step_id, VerifyReport* report)
      : ctx_(ctx), step_id_(step_id), report_(report) {}

  void Check(const LogicalOp& op) {
    for (const LogicalOpPtr& child : op.children) {
      if (child != nullptr) Check(*child);
    }
    size_t expected = ExpectedChildren(op.kind);
    size_t present = 0;
    for (const LogicalOpPtr& child : op.children) {
      if (child != nullptr) ++present;
    }
    if (present != op.children.size() || present != expected) {
      Add(DefectCode::kV001, op,
          StringPrintf("%s has %zu child(ren), expected %zu",
                       LogicalOpKindName(op.kind), present, expected));
      return;  // node-local checks below assume the arity holds
    }
    switch (op.kind) {
      case LogicalOpKind::kScan:
        CheckScan(op);
        break;
      case LogicalOpKind::kValues:
        CheckValues(op);
        break;
      case LogicalOpKind::kFilter:
        CheckFilter(op);
        break;
      case LogicalOpKind::kProject:
        CheckProject(op);
        break;
      case LogicalOpKind::kJoin:
        CheckJoin(op);
        break;
      case LogicalOpKind::kAggregate:
        CheckAggregate(op);
        break;
      case LogicalOpKind::kUnionAll:
      case LogicalOpKind::kExcept:
      case LogicalOpKind::kIntersect:
        CheckSetOp(op);
        break;
      case LogicalOpKind::kDistinct:
        CheckCopyThrough(op);
        break;
      case LogicalOpKind::kSort:
        CheckSort(op);
        break;
      case LogicalOpKind::kLimit:
        CheckLimit(op);
        break;
      case LogicalOpKind::kDeltaRestrict:
        CheckDeltaRestrict(op);
        break;
    }
  }

 private:
  void Add(DefectCode code, const LogicalOp& op, std::string detail) {
    report_->Add(code, step_id_, std::move(detail), PlanExcerpt(op));
  }

  /// V003 for every column reference in `expr` against `width` input columns.
  void CheckRefs(const BoundExpr& expr, size_t width, const LogicalOp& op,
                 const char* what) {
    if (expr.RefsWithin(0, width)) return;
    std::vector<size_t> refs;
    expr.CollectColumnRefs(&refs);
    for (size_t r : refs) {
      if (r >= width) {
        Add(DefectCode::kV003, op,
            StringPrintf("%s in %s references column #%zu but the input has "
                         "%zu column(s)",
                         what, LogicalOpKindName(op.kind), r, width));
        return;  // one diagnostic per expression is enough
      }
    }
  }

  void CheckScan(const LogicalOp& op) {
    if (op.scan_name.empty()) {
      Add(DefectCode::kV008, op, "scan has an empty relation name");
      return;
    }
    if (op.scan_source != ScanSource::kCatalog || ctx_.catalog == nullptr) {
      return;  // result-scan schemas are checked by the program dataflow
    }
    // Catalog::Get has no const overload; the lookup is read-only.
    auto entry = const_cast<Catalog*>(ctx_.catalog)->Get(op.scan_name);
    if (!entry.ok()) {
      Add(DefectCode::kV008, op,
          StringPrintf("scan of unknown catalog table '%s'",
                       op.scan_name.c_str()));
      return;
    }
    const Schema& actual = (*entry)->table->schema();
    if (!SameTypes(op.output_schema, actual)) {
      Add(DefectCode::kV008, op,
          StringPrintf("scan schema %s disagrees with catalog table '%s' %s",
                       op.output_schema.ToString().c_str(),
                       op.scan_name.c_str(), actual.ToString().c_str()));
    }
  }

  void CheckValues(const LogicalOp& op) {
    size_t width = op.output_schema.num_columns();
    for (size_t r = 0; r < op.rows.size(); ++r) {
      const std::vector<Value>& row = op.rows[r];
      if (row.size() != width) {
        Add(DefectCode::kV009, op,
            StringPrintf("VALUES row %zu has %zu cell(s), schema has %zu "
                         "column(s)",
                         r, row.size(), width));
        return;
      }
      for (size_t c = 0; c < row.size(); ++c) {
        TypeId want = op.output_schema.column(c).type;
        if (row[c].is_null()) continue;
        if (row[c].type() != want &&
            !IsImplicitlyCoercible(row[c].type(), want)) {
          Add(DefectCode::kV009, op,
              StringPrintf("VALUES cell (%zu,%zu) has type %s, column '%s' "
                           "expects %s",
                           r, c, TypeName(row[c].type()),
                           op.output_schema.column(c).name.c_str(),
                           TypeName(want)));
          return;
        }
      }
    }
  }

  void CheckFilter(const LogicalOp& op) {
    const LogicalOp& child = *op.children[0];
    if (!SameTypes(op.output_schema, child.output_schema)) {
      Add(DefectCode::kV002, op,
          StringPrintf("filter output schema %s differs from its child's %s",
                       op.output_schema.ToString().c_str(),
                       child.output_schema.ToString().c_str()));
    }
    if (op.predicate == nullptr) {
      Add(DefectCode::kV004, op, "filter has no predicate");
      return;
    }
    if (!TypeAgrees(op.predicate->type, TypeId::kBool)) {
      Add(DefectCode::kV004, op,
          StringPrintf("filter predicate has type %s, expected BOOL",
                       TypeName(op.predicate->type)));
    }
    CheckRefs(*op.predicate, child.output_schema.num_columns(), op,
              "predicate");
  }

  void CheckProject(const LogicalOp& op) {
    const LogicalOp& child = *op.children[0];
    if (op.projections.size() != op.output_schema.num_columns()) {
      Add(DefectCode::kV002, op,
          StringPrintf("project has %zu expression(s) for %zu output "
                       "column(s)",
                       op.projections.size(),
                       op.output_schema.num_columns()));
      return;
    }
    for (size_t i = 0; i < op.projections.size(); ++i) {
      if (op.projections[i] == nullptr) {
        Add(DefectCode::kV002, op,
            StringPrintf("project expression %zu is null", i));
        return;
      }
      if (!TypeAgrees(op.projections[i]->type,
                      op.output_schema.column(i).type)) {
        Add(DefectCode::kV002, op,
            StringPrintf("project expression %zu has type %s, output column "
                         "'%s' declares %s",
                         i, TypeName(op.projections[i]->type),
                         op.output_schema.column(i).name.c_str(),
                         TypeName(op.output_schema.column(i).type)));
      }
      CheckRefs(*op.projections[i], child.output_schema.num_columns(), op,
                "projection");
    }
  }

  void CheckJoin(const LogicalOp& op) {
    const Schema& left = op.children[0]->output_schema;
    const Schema& right = op.children[1]->output_schema;
    size_t width = left.num_columns() + right.num_columns();
    if (op.output_schema.num_columns() != width) {
      Add(DefectCode::kV002, op,
          StringPrintf("join output has %zu column(s), children provide %zu",
                       op.output_schema.num_columns(), width));
      return;
    }
    for (size_t i = 0; i < width; ++i) {
      TypeId want = i < left.num_columns()
                        ? left.column(i).type
                        : right.column(i - left.num_columns()).type;
      if (op.output_schema.column(i).type != want) {
        Add(DefectCode::kV002, op,
            StringPrintf("join output column %zu has type %s, child "
                         "provides %s",
                         i, TypeName(op.output_schema.column(i).type),
                         TypeName(want)));
        return;
      }
    }
    if (op.join_condition == nullptr) return;  // cross join
    if (!TypeAgrees(op.join_condition->type, TypeId::kBool)) {
      Add(DefectCode::kV004, op,
          StringPrintf("join condition has type %s, expected BOOL",
                       TypeName(op.join_condition->type)));
    }
    CheckRefs(*op.join_condition, width, op, "join condition");
    if (op.join_condition->RefsWithin(0, width)) {
      CheckComparisonTypes(*op.join_condition, op.output_schema, op);
    }
  }

  /// V005: every comparison inside a join condition must compare coercible
  /// types; an incomparable pair means a rewrite remapped a key ordinal into
  /// the wrong relation.
  void CheckComparisonTypes(const BoundExpr& expr, const Schema& input,
                            const LogicalOp& op) {
    if (expr.kind == BoundExprKind::kBinaryOp && expr.children.size() == 2) {
      switch (expr.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          TypeId l = expr.children[0]->type;
          TypeId r = expr.children[1]->type;
          if (l != TypeId::kNull && r != TypeId::kNull && l != r &&
              !IsImplicitlyCoercible(l, r) && !IsImplicitlyCoercible(r, l)) {
            Add(DefectCode::kV005, op,
                StringPrintf("join condition compares %s with %s: %s",
                             TypeName(l), TypeName(r),
                             expr.ToString().c_str()));
            return;
          }
          break;
        }
        default:
          break;
      }
    }
    for (const BoundExprPtr& child : expr.children) {
      if (child != nullptr) CheckComparisonTypes(*child, input, op);
    }
  }

  void CheckAggregate(const LogicalOp& op) {
    const LogicalOp& child = *op.children[0];
    size_t groups = op.group_exprs.size();
    size_t want = groups + op.aggregates.size();
    if (op.output_schema.num_columns() != want) {
      Add(DefectCode::kV002, op,
          StringPrintf("aggregate output has %zu column(s) for %zu group "
                       "expr(s) + %zu aggregate(s)",
                       op.output_schema.num_columns(), groups,
                       op.aggregates.size()));
      return;
    }
    for (size_t i = 0; i < groups; ++i) {
      if (op.group_exprs[i] == nullptr) {
        Add(DefectCode::kV006, op,
            StringPrintf("group expression %zu is null", i));
        return;
      }
      if (!TypeAgrees(op.group_exprs[i]->type,
                      op.output_schema.column(i).type)) {
        Add(DefectCode::kV002, op,
            StringPrintf("group expression %zu has type %s, output column "
                         "declares %s",
                         i, TypeName(op.group_exprs[i]->type),
                         TypeName(op.output_schema.column(i).type)));
      }
      CheckRefs(*op.group_exprs[i], child.output_schema.num_columns(), op,
                "group expression");
    }
    for (size_t i = 0; i < op.aggregates.size(); ++i) {
      const AggregateSpec& spec = op.aggregates[i];
      bool want_arg = spec.kind != AggKind::kCountStar;
      if (want_arg != (spec.arg != nullptr)) {
        Add(DefectCode::kV006, op,
            StringPrintf("aggregate %zu (%s) %s an argument", i,
                         AggKindName(spec.kind),
                         want_arg ? "is missing" : "must not carry"));
        continue;
      }
      if (spec.arg != nullptr) {
        CheckRefs(*spec.arg, child.output_schema.num_columns(), op,
                  "aggregate argument");
        if (spec.arg->type != TypeId::kNull) {
          auto rt = AggResultType(spec.kind, spec.arg->type);
          if (rt.ok() && *rt != spec.result_type) {
            Add(DefectCode::kV006, op,
                StringPrintf("aggregate %zu (%s of %s) declares result type "
                             "%s, expected %s",
                             i, AggKindName(spec.kind),
                             TypeName(spec.arg->type),
                             TypeName(spec.result_type), TypeName(*rt)));
          }
        }
      }
      if (!TypeAgrees(spec.result_type,
                      op.output_schema.column(groups + i).type)) {
        Add(DefectCode::kV002, op,
            StringPrintf("aggregate %zu result type %s differs from output "
                         "column type %s",
                         i, TypeName(spec.result_type),
                         TypeName(op.output_schema.column(groups + i).type)));
      }
    }
  }

  void CheckSetOp(const LogicalOp& op) {
    for (size_t i = 0; i < op.children.size(); ++i) {
      const Schema& child = op.children[i]->output_schema;
      if (!op.output_schema.TypesCompatible(child)) {
        Add(DefectCode::kV007, op,
            StringPrintf("%s child %zu schema %s is incompatible with "
                         "output %s",
                         LogicalOpKindName(op.kind), i,
                         child.ToString().c_str(),
                         op.output_schema.ToString().c_str()));
      }
    }
  }

  /// Distinct (and other pure row-selectors) must preserve the child's
  /// column types positionally.
  void CheckCopyThrough(const LogicalOp& op) {
    const LogicalOp& child = *op.children[0];
    if (!SameTypes(op.output_schema, child.output_schema)) {
      Add(DefectCode::kV002, op,
          StringPrintf("%s output schema %s differs from its child's %s",
                       LogicalOpKindName(op.kind),
                       op.output_schema.ToString().c_str(),
                       child.output_schema.ToString().c_str()));
    }
  }

  void CheckSort(const LogicalOp& op) {
    CheckCopyThrough(op);
    const LogicalOp& child = *op.children[0];
    for (size_t i = 0; i < op.sort_keys.size(); ++i) {
      if (op.sort_keys[i].expr == nullptr) {
        Add(DefectCode::kV002, op, StringPrintf("sort key %zu is null", i));
        return;
      }
      CheckRefs(*op.sort_keys[i].expr, child.output_schema.num_columns(), op,
                "sort key");
    }
  }

  void CheckLimit(const LogicalOp& op) {
    CheckCopyThrough(op);
    if (op.limit < -1) {
      Add(DefectCode::kV010, op,
          StringPrintf("negative LIMIT %lld", (long long)op.limit));
    }
    if (op.offset < 0) {
      Add(DefectCode::kV010, op,
          StringPrintf("negative OFFSET %lld", (long long)op.offset));
    }
  }

  void CheckDeltaRestrict(const LogicalOp& op) {
    CheckCopyThrough(op);
    if (op.delta_source.empty()) {
      Add(DefectCode::kV011, op, "delta-restrict has an empty source name");
    }
    if (op.delta_key_col >= op.children[0]->output_schema.num_columns()) {
      Add(DefectCode::kV003, op,
          StringPrintf("delta-restrict key column #%zu out of bounds (child "
                       "has %zu column(s))",
                       op.delta_key_col,
                       op.children[0]->output_schema.num_columns()));
    }
  }

  const VerifyContext& ctx_;
  int step_id_;
  VerifyReport* report_;
};

}  // namespace

std::string PlanExcerpt(const LogicalOp& op) {
  std::string s = op.ToString(0);
  if (s.size() > kExcerptLimit) {
    s.resize(kExcerptLimit);
    s += "...";
  }
  return s;
}

void CheckPlan(const LogicalOp& plan, const VerifyContext& ctx, int step_id,
               VerifyReport* report) {
  PlanChecker(ctx, step_id, report).Check(plan);
}

}  // namespace internal
}  // namespace verify
}  // namespace dbspinner
