// Recursive CTE expansion (ANSI-style WITH RECURSIVE).
//
// Implemented for substrate completeness: the paper contrasts iterative CTEs
// with recursive ones (fixed-point union semantics, no aggregates in the
// recursive part). The rewrite expands into the classic semi-naive loop,
// built from the same steps as an iterative CTE — materialize, rename and
// the loop operator — with every result-producing step a plain plan:
//
//   base  := base part        (DISTINCT for UNION)
//   acc   := Scan base
//   delta := rename base
//   while delta not empty:
//     delta' := recursive(delta)
//     delta' := delta' EXCEPT acc    (UNION only; UNION ALL keeps duplicates)
//     acc    := acc UNION ALL delta'
//     delta  := rename delta'
//
// References to the CTE inside the recursive part see the previous delta
// (standard SQL working-table semantics); references after the CTE see the
// accumulated result. The CTE's schema is the base part's, widened against
// the recursive part's to a fixpoint (BindLoopParts), as for iterative CTEs.

#include "common/string_util.h"
#include "rewrite/iterative_rewrite.h"

namespace dbspinner {

namespace {

LogicalOpPtr MakeSetOp(LogicalOpKind kind, LogicalOpPtr left,
                       LogicalOpPtr right) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = kind;
  op->output_schema = left->output_schema;
  op->children.push_back(std::move(left));
  op->children.push_back(std::move(right));
  return op;
}

}  // namespace

Status ProgramBuilder::AddRecursiveCte(Program* program, const CteDef& def) {
  if (binder_.HasCte(def.name)) {
    return Status::BindError("duplicate CTE name: " + def.name);
  }
  const QueryNode& q = *def.query;
  if (q.kind != QueryNodeKind::kSetOp) {
    return Status::BindError(
        "recursive CTE '" + def.name +
        "' must be a UNION [ALL] of a base part and a recursive part");
  }
  if (QueryReferences(*q.left, def.name)) {
    return Status::BindError("recursive CTE '" + def.name +
                             "': the base (left) part must not reference the "
                             "CTE itself");
  }
  bool distinct_union = q.set_op == SetOpKind::kUnion;

  std::string delta_name = def.name + "__delta";
  std::string new_delta_name = def.name + "__delta_next";
  std::string tmp_name = def.name + "__base";

  // The recursive part reads the previous delta.
  Schema schema;
  LogicalOpPtr base_plan, rec_plan;
  DBSP_RETURN_NOT_OK(BindLoopParts(def, *q.left, *q.right, delta_name,
                                   &schema, &base_plan, &rec_plan));
  if (distinct_union) {
    auto d = std::make_unique<LogicalOp>();
    d->kind = LogicalOpKind::kDistinct;
    d->output_schema = base_plan->output_schema;
    d->children.push_back(std::move(base_plan));
    base_plan = std::move(d);
  }
  auto scan = [&](const std::string& name) {
    return MakeScan(ScanSource::kResult, name, schema);
  };

  int loop_id = ++loop_counter_;
  LoopSpec spec;
  spec.kind = LoopSpec::Kind::kWhileResultNonEmpty;
  spec.watch_name = delta_name;
  spec.cte_name = def.name;

  auto add = [&](Step s) {
    s.id = program->NewId();
    int id = s.id;
    program->steps.push_back(std::move(s));
    return id;
  };
  auto materialize = [&](const std::string& target, LogicalOpPtr plan,
                         std::string comment) {
    Step s;
    s.kind = Step::Kind::kMaterialize;
    s.target = target;
    s.plan = std::move(plan);
    s.comment = std::move(comment);
    return add(std::move(s));
  };
  auto rename = [&](const std::string& source, const std::string& target,
                    std::string comment) {
    Step s;
    s.kind = Step::Kind::kRename;
    s.source = source;
    s.target = target;
    s.comment = std::move(comment);
    add(std::move(s));
  };

  materialize(tmp_name, std::move(base_plan),
              "materialize recursive base of '" + def.name + "'");
  // A bare scan binds the base's own table: every registry mutation is
  // copy-on-write, so the accumulator needs no private copy.
  materialize(def.name, scan(tmp_name),
              "initialize accumulator '" + def.name + "'");
  rename(tmp_name, delta_name, "initial delta := base");
  int init_id;
  {
    Step s;
    s.kind = Step::Kind::kInitLoop;
    s.loop_id = loop_id;
    s.loop = spec.Clone();
    s.comment = "initialize recursive loop " + spec.ToString();
    init_id = add(std::move(s));
  }
  int body_id = materialize(new_delta_name, std::move(rec_plan),
                            "evaluate recursive part over the previous delta");
  if (distinct_union) {
    materialize(new_delta_name,
                MakeSetOp(LogicalOpKind::kExcept, scan(new_delta_name),
                          scan(def.name)),
                "drop rows already in the accumulator (UNION semantics)");
  }
  materialize(def.name,
              MakeSetOp(LogicalOpKind::kUnionAll, scan(def.name),
                        scan(new_delta_name)),
              "append new delta to the accumulator");
  rename(new_delta_name, delta_name, "delta := new delta");
  {
    Step s;
    s.kind = Step::Kind::kLoopCheck;
    s.loop_id = loop_id;
    s.loop = spec.Clone();
    s.jump_to_id = body_id;
    s.comment = "loop while the delta is non-empty";
    int check_id = add(std::move(s));
    // An empty base means an empty initial delta: skip the body outright.
    program->steps[program->FindStep(init_id)].jump_to_id = check_id;
  }
  {
    Step s;
    s.kind = Step::Kind::kRemoveResult;
    s.target = delta_name;
    s.comment = "release the final delta";
    add(std::move(s));
  }

  binder_.AddCte(def.name, CteBinding{def.name, schema});
  return Status::OK();
}

}  // namespace dbspinner
