// Physical-plan & fused-pipeline checker: V201..V208 (DESIGN.md §13).
//
// Validates every compiled Step::physical tree against the contracts the
// morsel pipeline executor (exec/pipeline.cc) compiles fused kernels
// against. The legality facts checked here are re-derived independently of
// the executor: the checker walks the physical tree with its own role/type
// tables, so a planner or rewrite bug that hands the kernels an inconsistent
// tree fails at plan time with a stable code instead of corrupting chunks
// (or static_cast-ing to the wrong operator type) at run time. Like the
// logical checker, type comparisons follow the engine's positional-type
// discipline and stay lenient about kNull where expressions legally carry
// the NULL wildcard.

#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/types.h"
#include "exec/physical_plan.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"
#include "verify/verify_internal.h"

namespace dbspinner {
namespace verify {
namespace internal {

namespace {

constexpr size_t kExcerptLimit = 512;

/// Expected child count for the known concrete operator classes, keyed by
/// PhysicalOp::Name(). Returns -1 for operator types the checker does not
/// know (custom / future operators): their arity is not checkable, but
/// their pipeline-role contract still is (V203/V207).
int ExpectedChildren(const std::string& name) {
  if (name == "Scan" || name == "Values") return 0;
  if (name == "Filter" || name == "Project" || name == "HashAggregate" ||
      name == "Distinct" || name == "Sort" || name == "Limit" ||
      name == "DeltaRestrict") {
    return 1;
  }
  if (name == "HashJoin" || name == "NestedLoopJoin" || name == "UnionAll" ||
      name == "Except" || name == "Intersect") {
    return 2;
  }
  return -1;
}

/// The concrete class each fusible / sink pipeline role is compiled
/// against. CompileStages and the aggregate sink static_cast on the role,
/// so an operator claiming one of these roles under a different type is a
/// memory-safety bug, not just a planning bug (V207). Roles outside this
/// table (kBreaker) carry no fusion contract.
const char* RequiredNameForRole(PipelineRole role) {
  switch (role) {
    case PipelineRole::kFilter:
      return "Filter";
    case PipelineRole::kProject:
      return "Project";
    case PipelineRole::kHashProbe:
      return "HashJoin";
    case PipelineRole::kDeltaRestrict:
      return "DeltaRestrict";
    case PipelineRole::kPreAggregate:
      return "HashAggregate";
    default:
      return nullptr;
  }
}

bool IsStreamingRole(PipelineRole role) {
  return role == PipelineRole::kFilter || role == PipelineRole::kProject ||
         role == PipelineRole::kHashProbe ||
         role == PipelineRole::kDeltaRestrict;
}

/// Join-key agreement: TypeAgrees, or an INT64/DOUBLE pair, which the row
/// index hashes and compares by numeric value (DESIGN.md §11, "Row index").
/// BOOL and STRING keys match only their own type.
bool KeyTypesAgree(TypeId a, TypeId b) {
  auto number = [](TypeId t) {
    return t == TypeId::kInt64 || t == TypeId::kDouble;
  };
  return TypeAgrees(a, b) || (number(a) && number(b));
}

/// Physical operator names a logical kind may legally compile to.
bool KindMatchesPhysical(LogicalOpKind kind, const std::string& name) {
  switch (kind) {
    case LogicalOpKind::kScan:
      return name == "Scan";
    case LogicalOpKind::kValues:
      return name == "Values";
    case LogicalOpKind::kFilter:
      return name == "Filter";
    case LogicalOpKind::kProject:
      return name == "Project";
    case LogicalOpKind::kJoin:
      return name == "HashJoin" || name == "NestedLoopJoin";
    case LogicalOpKind::kAggregate:
      return name == "HashAggregate";
    case LogicalOpKind::kUnionAll:
      return name == "UnionAll";
    case LogicalOpKind::kExcept:
      return name == "Except";
    case LogicalOpKind::kIntersect:
      return name == "Intersect";
    case LogicalOpKind::kDistinct:
      return name == "Distinct";
    case LogicalOpKind::kSort:
      return name == "Sort";
    case LogicalOpKind::kLimit:
      return name == "Limit";
    case LogicalOpKind::kDeltaRestrict:
      return name == "DeltaRestrict";
  }
  return false;
}

class PipelineChecker {
 public:
  PipelineChecker(const VerifyContext& ctx, int step_id, VerifyReport* report)
      : ctx_(ctx), step_id_(step_id), report_(report) {}

  void Check(const PhysicalOp& op) {
    for (const PhysicalOpPtr& child : op.children()) {
      if (child != nullptr) Check(*child);
    }
    const std::string name = op.Name();
    int expected = ExpectedChildren(name);
    size_t present = 0;
    for (const PhysicalOpPtr& child : op.children()) {
      if (child != nullptr) ++present;
    }
    if (present != op.children().size() ||
        (expected >= 0 && present != static_cast<size_t>(expected))) {
      Add(DefectCode::kV201, op,
          StringPrintf("%s has %zu child(ren), expected %d", name.c_str(),
                       present, expected));
      return;  // node-local checks below assume the arity holds
    }
    CheckPipelineShape(op);
    CheckRoleTypeAgreement(op);
    if (name == "Scan") {
      CheckScan(static_cast<const PhysicalScan&>(op));
    } else if (name == "Filter") {
      CheckFilter(static_cast<const PhysicalFilter&>(op));
    } else if (name == "Project") {
      CheckProject(static_cast<const PhysicalProject&>(op));
    } else if (name == "HashJoin") {
      CheckHashJoin(static_cast<const PhysicalHashJoin&>(op));
    } else if (name == "DeltaRestrict") {
      CheckDeltaRestrict(static_cast<const PhysicalDeltaRestrict&>(op));
    } else if (name == "HashAggregate") {
      CheckHashAggregate(static_cast<const PhysicalHashAggregate&>(op));
    }
  }

  /// Paired physical↔logical walk (V202). The physical planner compiles
  /// logical trees strictly 1:1 (exec/physical_planner.cc), so any shape,
  /// operator-mapping or per-node schema divergence means a post-planning
  /// mutation broke the agreement.
  void CheckAgainstLogical(const PhysicalOp& phys, const LogicalOp& logical) {
    if (!KindMatchesPhysical(logical.kind, phys.Name())) {
      Add(DefectCode::kV202, phys,
          StringPrintf("physical %s compiled from logical %s", phys.Name(),
                       LogicalOpKindName(logical.kind)));
      return;
    }
    if (!SameTypes(phys.output_schema(), logical.output_schema)) {
      Add(DefectCode::kV202, phys,
          StringPrintf("physical %s output schema %s disagrees with its "
                       "logical node's %s",
                       phys.Name(), phys.output_schema().ToString().c_str(),
                       logical.output_schema.ToString().c_str()));
    }
    if (phys.children().size() != logical.children.size()) {
      Add(DefectCode::kV202, phys,
          StringPrintf("physical %s has %zu child(ren), its logical node "
                       "has %zu",
                       phys.Name(), phys.children().size(),
                       logical.children.size()));
      return;
    }
    for (size_t i = 0; i < phys.children().size(); ++i) {
      if (phys.children()[i] != nullptr && logical.children[i] != nullptr) {
        CheckAgainstLogical(*phys.children()[i], *logical.children[i]);
      }
    }
  }

 private:
  void Add(DefectCode code, const PhysicalOp& op, std::string detail) {
    report_->Add(code, step_id_, std::move(detail), PhysicalExcerpt(op));
  }

  /// V204 for every column reference in `expr` against `width` input
  /// columns — the chunk kernels index the stage's input chunk by ordinal,
  /// so an out-of-bounds reference reads past the chunk's columns.
  void CheckRefs(const BoundExpr& expr, size_t width, const PhysicalOp& op,
                 const char* what) {
    if (expr.RefsWithin(0, width)) return;
    std::vector<size_t> refs;
    expr.CollectColumnRefs(&refs);
    for (size_t r : refs) {
      if (r >= width) {
        Add(DefectCode::kV204, op,
            StringPrintf("%s in %s references column #%zu but the stage's "
                         "input chunk has %zu column(s)",
                         what, op.Name(), r, width));
        return;  // one diagnostic per expression is enough
      }
    }
  }

  /// V203: the pipeline structural contract — a chain streams from exactly
  /// one source, so sources must be leaves and every streaming (or sink)
  /// stage needs an upstream child to stream from. For the known operator
  /// classes this coincides with their arity (V201); it fires on its own
  /// for custom operators whose arity the checker cannot know.
  void CheckPipelineShape(const PhysicalOp& op) {
    PipelineRole role = op.pipeline_role();
    if (role == PipelineRole::kSource && !op.children().empty()) {
      Add(DefectCode::kV203, op,
          StringPrintf("pipeline source %s is not a leaf (%zu child(ren))",
                       op.Name(), op.children().size()));
    }
    if ((IsStreamingRole(role) || role == PipelineRole::kPreAggregate) &&
        op.children().empty()) {
      Add(DefectCode::kV203, op,
          StringPrintf("pipeline stage %s has no upstream input to stream "
                       "from",
                       op.Name()));
    }
  }

  /// V207: CompileStages and the aggregate sink static_cast each fused
  /// stage to the concrete class its role promises; those classes are the
  /// closed set audited to keep all mutable execution state in per-worker
  /// ExecStats slots / GroupedAggregator partials. An operator claiming a
  /// fused role under any other type would be cast to the wrong class and
  /// could carry cross-morsel mutable state the workers stomp concurrently.
  void CheckRoleTypeAgreement(const PhysicalOp& op) {
    const char* required = RequiredNameForRole(op.pipeline_role());
    if (required == nullptr) return;
    if (std::string(required) != op.Name()) {
      Add(DefectCode::kV207, op,
          StringPrintf("operator %s claims a fused pipeline role reserved "
                       "for %s; fused stages must be %s to keep mutable "
                       "state per-worker",
                       op.Name(), required, required));
    }
  }

  void CheckScan(const PhysicalScan& op) {
    if (op.scan_name().empty()) {
      Add(DefectCode::kV208, op, "physical scan has an empty relation name");
      return;
    }
    if (!op.from_catalog() || ctx_.catalog == nullptr) {
      return;  // result-scan schemas are checked by the program dataflow
    }
    // Catalog::Get has no const overload; the lookup is read-only.
    auto entry = const_cast<Catalog*>(ctx_.catalog)->Get(op.scan_name());
    if (!entry.ok()) {
      Add(DefectCode::kV208, op,
          StringPrintf("physical scan of unknown catalog table '%s'",
                       op.scan_name().c_str()));
      return;
    }
    const Schema& actual = (*entry)->table->schema();
    if (!SameTypes(op.output_schema(), actual)) {
      Add(DefectCode::kV208, op,
          StringPrintf("physical scan schema %s disagrees with catalog "
                       "table '%s' %s",
                       op.output_schema().ToString().c_str(),
                       op.scan_name().c_str(), actual.ToString().c_str()));
    }
  }

  void CheckFilter(const PhysicalFilter& op) {
    const Schema& in = op.children()[0]->output_schema();
    if (!SameTypes(op.output_schema(), in)) {
      Add(DefectCode::kV204, op,
          StringPrintf("filter stage output schema %s differs from its "
                       "input chunk schema %s",
                       op.output_schema().ToString().c_str(),
                       in.ToString().c_str()));
    }
    if (!TypeAgrees(op.predicate().type, TypeId::kBool)) {
      Add(DefectCode::kV204, op,
          StringPrintf("filter kernel predicate has type %s, expected BOOL",
                       TypeName(op.predicate().type)));
    }
    CheckRefs(op.predicate(), in.num_columns(), op, "predicate");
  }

  void CheckProject(const PhysicalProject& op) {
    const Schema& in = op.children()[0]->output_schema();
    if (op.exprs().size() != op.output_schema().num_columns()) {
      Add(DefectCode::kV204, op,
          StringPrintf("projection kernel has %zu expression(s) for %zu "
                       "output column(s)",
                       op.exprs().size(), op.output_schema().num_columns()));
      return;
    }
    for (size_t i = 0; i < op.exprs().size(); ++i) {
      if (op.exprs()[i] == nullptr) {
        Add(DefectCode::kV204, op,
            StringPrintf("projection expression %zu is null", i));
        return;
      }
      if (!TypeAgrees(op.exprs()[i]->type, op.output_schema().column(i).type)) {
        Add(DefectCode::kV204, op,
            StringPrintf("projection expression %zu has type %s, output "
                         "column '%s' declares %s",
                         i, TypeName(op.exprs()[i]->type),
                         op.output_schema().column(i).name.c_str(),
                         TypeName(op.output_schema().column(i).type)));
      }
      CheckRefs(*op.exprs()[i], in.num_columns(), op, "projection");
    }
  }

  void CheckHashJoin(const PhysicalHashJoin& op) {
    const Schema& left = op.children()[0]->output_schema();
    const Schema& right = op.children()[1]->output_schema();
    size_t width = left.num_columns() + right.num_columns();
    if (op.output_schema().num_columns() != width) {
      Add(DefectCode::kV204, op,
          StringPrintf("probe output has %zu column(s), [left ++ right] "
                       "provides %zu",
                       op.output_schema().num_columns(), width));
    } else {
      for (size_t i = 0; i < width; ++i) {
        TypeId want = i < left.num_columns()
                          ? left.column(i).type
                          : right.column(i - left.num_columns()).type;
        if (op.output_schema().column(i).type != want) {
          Add(DefectCode::kV204, op,
              StringPrintf("probe output column %zu has type %s, the "
                           "gathered input column has %s",
                           i, TypeName(op.output_schema().column(i).type),
                           TypeName(want)));
          break;
        }
      }
    }
    if (op.left_keys().size() != op.right_keys().size() ||
        op.left_keys().empty()) {
      Add(DefectCode::kV204, op,
          StringPrintf("hash join has %zu probe key(s) against %zu build "
                       "key(s)",
                       op.left_keys().size(), op.right_keys().size()));
    } else {
      for (size_t i = 0; i < op.left_keys().size(); ++i) {
        size_t lk = op.left_keys()[i];
        size_t rk = op.right_keys()[i];
        if (lk >= left.num_columns() || rk >= right.num_columns()) {
          Add(DefectCode::kV204, op,
              StringPrintf("join key pair %zu (#%zu, #%zu) out of bounds "
                           "for inputs of %zu and %zu column(s)",
                           i, lk, rk, left.num_columns(),
                           right.num_columns()));
          break;
        }
        if (!KeyTypesAgree(left.column(lk).type, right.column(rk).type)) {
          Add(DefectCode::kV204, op,
              StringPrintf("join key pair %zu compares %s against %s", i,
                           TypeName(left.column(lk).type),
                           TypeName(right.column(rk).type)));
          break;
        }
      }
    }
    if (op.residual() != nullptr) {
      if (!TypeAgrees(op.residual()->type, TypeId::kBool)) {
        Add(DefectCode::kV204, op,
            StringPrintf("join residual has type %s, expected BOOL",
                         TypeName(op.residual()->type)));
      }
      CheckRefs(*op.residual(), width, op, "join residual");
    }
  }

  /// V206: the fused pre-aggregation sink is exact only because every
  /// aggregate's state is a commutative monoid under
  /// GroupedAggregator::MergeFrom and DISTINCT defers
  /// its updates to Finalize through a DistinctFilter over the argument
  /// values (exec/hash_aggregate.cc). Both facts are per-spec properties
  /// the checker can re-verify: the kind must be one of the audited
  /// merge-commutative kinds, COUNT(*) has no argument to dedupe (so it
  /// has no DISTINCT deferral path), and argument kinds need a bounded
  /// argument expression.
  void CheckHashAggregate(const PhysicalHashAggregate& op) {
    const Schema& in = op.children()[0]->output_schema();
    size_t want = op.group_exprs().size() + op.aggregates().size();
    if (op.output_schema().num_columns() != want) {
      Add(DefectCode::kV206, op,
          StringPrintf("aggregate sink output has %zu column(s) for %zu "
                       "group(s) + %zu aggregate(s)",
                       op.output_schema().num_columns(),
                       op.group_exprs().size(), op.aggregates().size()));
      return;
    }
    for (size_t i = 0; i < op.group_exprs().size(); ++i) {
      if (op.group_exprs()[i] == nullptr) {
        Add(DefectCode::kV206, op,
            StringPrintf("group expression %zu is null", i));
        return;
      }
      CheckRefs(*op.group_exprs()[i], in.num_columns(), op,
                "group expression");
    }
    for (size_t i = 0; i < op.aggregates().size(); ++i) {
      const AggregateSpec& spec = op.aggregates()[i];
      switch (spec.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
        case AggKind::kAvg:
        case AggKind::kStdDev:
        case AggKind::kVariance:
          break;
        default:
          Add(DefectCode::kV206, op,
              StringPrintf("aggregate %zu has unknown kind %d: partial "
                           "merge not proven commutative",
                           i, static_cast<int>(spec.kind)));
          return;
      }
      if (spec.kind == AggKind::kCountStar) {
        if (spec.arg != nullptr) {
          Add(DefectCode::kV206, op,
              StringPrintf("aggregate %zu: COUNT(*) carries an argument "
                           "expression",
                           i));
        }
        if (spec.distinct) {
          Add(DefectCode::kV206, op,
              StringPrintf("aggregate %zu: COUNT(*) has no DISTINCT "
                           "deferral path (no argument values to dedupe)",
                           i));
        }
      } else {
        if (spec.arg == nullptr) {
          Add(DefectCode::kV206, op,
              StringPrintf("aggregate %zu (%s) has no argument expression",
                           i, AggKindName(spec.kind)));
          continue;
        }
        CheckRefs(*spec.arg, in.num_columns(), op, "aggregate argument");
      }
      TypeId declared =
          op.output_schema().column(op.group_exprs().size() + i).type;
      if (!TypeAgrees(spec.result_type, declared)) {
        Add(DefectCode::kV206, op,
            StringPrintf("aggregate %zu result type %s disagrees with "
                         "output column type %s",
                         i, TypeName(spec.result_type), TypeName(declared)));
      }
    }
  }

  void CheckDeltaRestrict(const PhysicalDeltaRestrict& op) {
    const Schema& in = op.children()[0]->output_schema();
    if (op.delta_source().empty()) {
      Add(DefectCode::kV204, op,
          "delta-restrict stage has an empty source result name");
    }
    if (op.key_col() >= in.num_columns()) {
      Add(DefectCode::kV204, op,
          StringPrintf("delta-restrict key column #%zu out of bounds for "
                       "an input chunk of %zu column(s)",
                       op.key_col(), in.num_columns()));
    }
    if (!SameTypes(op.output_schema(), in)) {
      Add(DefectCode::kV204, op,
          StringPrintf("delta-restrict output schema %s differs from its "
                       "input chunk schema %s",
                       op.output_schema().ToString().c_str(),
                       in.ToString().c_str()));
    }
  }

  const VerifyContext& ctx_;
  int step_id_;
  VerifyReport* report_;
};

}  // namespace

std::string PhysicalExcerpt(const PhysicalOp& op) {
  std::string s = op.ToString(0);
  if (s.size() > kExcerptLimit) {
    s.resize(kExcerptLimit);
    s += "...";
  }
  return s;
}

void CheckPhysicalPlan(const PhysicalOp& plan, const LogicalOp* logical,
                       const VerifyContext& ctx, int step_id,
                       VerifyReport* report) {
  PipelineChecker checker(ctx, step_id, report);
  checker.Check(plan);
  if (logical != nullptr) checker.CheckAgainstLogical(plan, *logical);
}

void CheckPhysicalStep(const Step& step, const VerifyContext& ctx,
                       VerifyReport* report) {
  if (step.physical == nullptr) return;
  CheckPhysicalPlan(*step.physical, step.plan.get(), ctx, step.id, report);
}

}  // namespace internal
}  // namespace verify
}  // namespace dbspinner
