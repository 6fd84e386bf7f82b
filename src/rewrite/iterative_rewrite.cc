#include "rewrite/iterative_rewrite.h"

#include "common/string_util.h"

namespace dbspinner {

namespace {

void CountRefsInTableRef(const TableRef& ref, const std::string& name,
                         int* count);

void CountRefsInQuery(const QueryNode& q, const std::string& name,
                      int* count) {
  if (q.kind == QueryNodeKind::kSetOp) {
    CountRefsInQuery(*q.left, name, count);
    CountRefsInQuery(*q.right, name, count);
    return;
  }
  if (q.from) CountRefsInTableRef(*q.from, name, count);
}

void CountRefsInTableRef(const TableRef& ref, const std::string& name,
                         int* count) {
  switch (ref.kind) {
    case TableRefKind::kBase:
      if (EqualsIgnoreCase(ref.table_name, name)) ++(*count);
      return;
    case TableRefKind::kJoin:
      CountRefsInTableRef(*ref.left, name, count);
      CountRefsInTableRef(*ref.right, name, count);
      return;
    case TableRefKind::kSubquery:
      CountRefsInQuery(*ref.subquery, name, count);
      return;
  }
}

// Widens `schema` in place against `other`'s column types; true if changed.
Result<bool> WidenSchema(Schema* schema, const Schema& other,
                         const std::string& cte_name) {
  if (schema->num_columns() != other.num_columns()) {
    return Status::BindError(
        "CTE '" + cte_name + "': the part that reads the CTE returns " +
        std::to_string(other.num_columns()) + " columns, expected " +
        std::to_string(schema->num_columns()));
  }
  bool changed = false;
  Schema widened;
  for (size_t i = 0; i < schema->num_columns(); ++i) {
    TypeId a = schema->column(i).type;
    DBSP_ASSIGN_OR_RETURN(TypeId out, CommonType(a, other.column(i).type));
    if (out != a) changed = true;
    widened.AddColumn(schema->column(i).name, out);
  }
  *schema = std::move(widened);
  return changed;
}

// Applies an optional CTE column-rename list to a plan's output schema.
Result<Schema> ApplyColumnNames(const Schema& schema,
                                const std::vector<std::string>& names,
                                const std::string& cte_name) {
  if (names.empty()) return schema;
  if (names.size() != schema.num_columns()) {
    return Status::BindError("CTE '" + cte_name + "' declares " +
                             std::to_string(names.size()) +
                             " columns but its query returns " +
                             std::to_string(schema.num_columns()));
  }
  Schema renamed;
  for (size_t i = 0; i < names.size(); ++i) {
    renamed.AddColumn(names[i], schema.column(i).type);
  }
  return renamed;
}

}  // namespace

bool QueryReferences(const QueryNode& query, const std::string& name) {
  return CountTableRefs(query, name) > 0;
}

int CountTableRefs(const QueryNode& query, const std::string& name) {
  int count = 0;
  CountRefsInQuery(query, name, &count);
  return count;
}

Result<Program> ProgramBuilder::BuildSelect(const Statement& stmt) {
  return BuildQuery(stmt.ctes, *stmt.query);
}

Result<Program> ProgramBuilder::BuildQuery(const std::vector<CteDef>& ctes,
                                           const QueryNode& query) {
  Program program;
  for (const CteDef& def : ctes) {
    DBSP_RETURN_NOT_OK(AddCte(&program, def));
  }
  DBSP_ASSIGN_OR_RETURN(LogicalOpPtr final_plan, binder_.BindQuery(query));
  Step final;
  final.kind = Step::Kind::kFinal;
  final.id = program.NewId();
  final.plan = std::move(final_plan);
  final.comment = "run the main query Qf";
  program.steps.push_back(std::move(final));
  return program;
}

Status ProgramBuilder::AddCte(Program* program, const CteDef& def) {
  switch (def.kind) {
    case CteKind::kRegular:
      return AddRegularCte(program, def);
    case CteKind::kRecursive:
      // A non-self-referential "recursive" CTE is just a regular one.
      if (!QueryReferences(*def.query, def.name)) {
        return AddRegularCte(program, def);
      }
      return AddRecursiveCte(program, def);
    case CteKind::kIterative:
      return AddIterativeCte(program, def);
  }
  return Status::Internal("unhandled CTE kind");
}

Status ProgramBuilder::AddRegularCte(Program* program, const CteDef& def) {
  if (binder_.HasCte(def.name)) {
    return Status::BindError("duplicate CTE name: " + def.name);
  }
  DBSP_ASSIGN_OR_RETURN(LogicalOpPtr plan, binder_.BindQuery(*def.query));
  DBSP_ASSIGN_OR_RETURN(
      Schema schema,
      ApplyColumnNames(plan->output_schema, def.column_names, def.name));
  plan = MakeCastProject(std::move(plan), schema);

  Step step;
  step.kind = Step::Kind::kMaterialize;
  step.id = program->NewId();
  step.target = def.name;
  step.plan = std::move(plan);
  step.comment = "materialize CTE '" + def.name + "'";
  program->steps.push_back(std::move(step));

  binder_.AddCte(def.name, CteBinding{def.name, schema});
  return Status::OK();
}

Status ProgramBuilder::BindLoopParts(const CteDef& def, const QueryNode& base,
                                     const QueryNode& step,
                                     const std::string& self_result,
                                     Schema* schema, LogicalOpPtr* r0_plan,
                                     LogicalOpPtr* ri_plan) {
  DBSP_ASSIGN_OR_RETURN(LogicalOpPtr r0, binder_.BindQuery(base));
  DBSP_ASSIGN_OR_RETURN(
      Schema cte_schema,
      ApplyColumnNames(r0->output_schema, def.column_names, def.name));

  // Bind Ri against the current schema; widen numerically (e.g. an INT count
  // in R0 overwritten by a DOUBLE in Ri) and rebind until fixpoint.
  LogicalOpPtr ri;
  for (int round = 0; round < 4; ++round) {
    binder_.AddCte(def.name, CteBinding{self_result, cte_schema});
    Result<LogicalOpPtr> bound = binder_.BindQuery(step);
    binder_.RemoveCte(def.name);
    if (!bound.ok()) return bound.status();
    ri = std::move(bound).value();
    DBSP_ASSIGN_OR_RETURN(
        bool changed, WidenSchema(&cte_schema, ri->output_schema, def.name));
    if (!changed) break;
    if (round == 3) {
      return Status::BindError("CTE '" + def.name +
                               "' schema failed to converge");
    }
  }

  *r0_plan = MakeCastProject(std::move(r0), cte_schema);
  *ri_plan = MakeCastProject(std::move(ri), cte_schema);
  *schema = std::move(cte_schema);
  return Status::OK();
}

Status ProgramBuilder::AddIterativeCte(Program* program, const CteDef& def) {
  if (binder_.HasCte(def.name)) {
    return Status::BindError("duplicate CTE name: " + def.name);
  }
  Schema schema;
  LogicalOpPtr r0_plan, ri_plan;
  DBSP_RETURN_NOT_OK(BindLoopParts(def, *def.init_query, *def.iter_query,
                                   def.name, &schema, &r0_plan, &ri_plan));

  // Row identifier: declared KEY column, else the first column (DESIGN.md).
  size_t key_col = 0;
  if (def.key_column.has_value()) {
    auto idx = schema.FindColumn(*def.key_column);
    if (!idx.has_value()) {
      return Status::BindError("KEY column '" + *def.key_column +
                               "' is not a column of CTE '" + def.name + "'");
    }
    key_col = *idx;
  }

  // ---- AST facts used by the optimizer (legality of Fig 10 pushdown) ----
  IterativeCteInfo info;
  info.cte_name = def.name;
  info.working_name = def.name + "__working";
  info.cte_schema = schema;
  info.key_col = key_col;
  const QueryNode& ri = *def.iter_query;
  info.ri_has_where =
      ri.kind == QueryNodeKind::kSelect && ri.where != nullptr;
  bool single_self_scan =
      ri.kind == QueryNodeKind::kSelect && ri.from != nullptr &&
      ri.from->kind == TableRefKind::kBase &&
      EqualsIgnoreCase(ri.from->table_name, def.name) &&
      CountTableRefs(ri, def.name) == 1;
  bool no_agg = ri.kind == QueryNodeKind::kSelect && ri.group_by.empty();
  if (no_agg && ri.kind == QueryNodeKind::kSelect) {
    for (const auto& item : ri.select_list) {
      if (ContainsAggregate(*item.expr)) no_agg = false;
    }
  }
  // The termination condition must not observe the row set: UPDATES counts
  // updated rows, DELTA counts changed rows, and ANY/ALL evaluate over the
  // CTE's contents, so filtering R0 would change when the loop stops (found
  // by differential fuzzing). Only a counted-iterations loop is insensitive.
  bool termination_row_insensitive =
      def.until.kind == TerminationCondition::Kind::kIterations;
  // A LIMIT/OFFSET in Ri is row-sensitive too: the cutoff selects different
  // rows depending on what survives into the iteration, so a predicate
  // filtered into R0 would change which rows the cutoff keeps (the verifier
  // re-derives this as defect V108).
  bool no_limit = !ri.limit.has_value() && ri.offset == 0;
  info.pushdown_legal =
      single_self_scan && no_agg && termination_row_insensitive && no_limit &&
      !(ri.kind == QueryNodeKind::kSelect && ri.distinct);
  info.pass_through.assign(schema.num_columns(), false);
  if (info.pushdown_legal) {
    for (size_t i = 0;
         i < ri.select_list.size() && i < schema.num_columns(); ++i) {
      const ParseExpr& e = *ri.select_list[i].expr;
      // The binder resolves a name to its *first* occurrence in the CTE
      // schema, so with duplicate column names a name match alone could
      // mark column i pass-through while the select item actually copies an
      // earlier column. Require the resolved ordinal to be i.
      info.pass_through[i] =
          e.kind == ParseExprKind::kColumnRef &&
          schema.FindColumn(e.column_name) == std::optional<size_t>(i);
    }
  }

  // ---- Loop specification (<<Type, N, Expr>>) ----
  int loop_id = ++loop_counter_;
  LoopSpec spec;
  spec.cte_name = def.name;
  spec.key_col = key_col;
  switch (def.until.kind) {
    case TerminationCondition::Kind::kIterations:
      spec.kind = LoopSpec::Kind::kIterations;
      spec.n = def.until.n;
      break;
    case TerminationCondition::Kind::kUpdates:
      spec.kind = LoopSpec::Kind::kUpdates;
      spec.n = def.until.n;
      break;
    case TerminationCondition::Kind::kAny:
    case TerminationCondition::Kind::kAll: {
      spec.kind = def.until.kind == TerminationCondition::Kind::kAny
                      ? LoopSpec::Kind::kAny
                      : LoopSpec::Kind::kAll;
      DBSP_ASSIGN_OR_RETURN(
          spec.expr,
          binder_.BindExprOverSchema(*def.until.expr, schema, def.name));
      if (spec.expr->type != TypeId::kBool &&
          spec.expr->type != TypeId::kNull) {
        return Status::TypeError("termination condition must be boolean");
      }
      break;
    }
    case TerminationCondition::Kind::kDeltaLess:
      spec.kind = LoopSpec::Kind::kDeltaLess;
      spec.n = def.until.n;
      break;
  }

  // ---- Emit the Algorithm 1 step sequence ----
  {
    Step s;  // 1: materialize R0 into cteTable
    s.kind = Step::Kind::kMaterialize;
    s.id = program->NewId();
    s.target = def.name;
    s.plan = std::move(r0_plan);
    s.comment = "materialize non-iterative part R0 into '" + def.name + "'";
    info.r0_step_id = s.id;
    program->steps.push_back(std::move(s));
  }
  {
    Step s;  // 2: initialize loop operator
    s.kind = Step::Kind::kInitLoop;
    s.id = program->NewId();
    s.loop_id = loop_id;
    s.loop = spec.Clone();
    s.comment = "initialize loop " + spec.ToString();
    info.init_step_id = s.id;
    program->steps.push_back(std::move(s));
  }
  int body_id;
  {
    Step s;  // 3: materialize Ri into workingTable
    s.kind = Step::Kind::kMaterialize;
    s.id = program->NewId();
    s.target = info.working_name;
    s.plan = std::move(ri_plan);
    s.comment = "materialize iterative part Ri into '" + info.working_name +
                "'";
    body_id = s.id;
    info.ri_step_id = s.id;
    program->steps.push_back(std::move(s));
  }
  if (!info.ri_has_where && options_.enable_rename_optimization) {
    Step s;  // 4: rename workingTable to cteTable (Algorithm 1 line 5)
    s.kind = Step::Kind::kRename;
    s.id = program->NewId();
    s.source = info.working_name;
    s.target = def.name;
    s.loop_id = loop_id;
    s.comment = "rename '" + info.working_name + "' to '" + def.name +
                "' (whole-dataset update, no data movement)";
    program->steps.push_back(std::move(s));
  } else {
    Step s;  // 4': merge (Algorithm 1 lines 8-10); also the Fig 8 baseline
    s.kind = Step::Kind::kMergeUpdate;
    s.id = program->NewId();
    s.source = info.working_name;
    s.target = def.name;
    s.key_col = key_col;
    s.loop_id = loop_id;
    s.comment =
        info.ri_has_where
            ? "merge '" + info.working_name + "' into '" + def.name +
                  "' by key '" + schema.column(key_col).name + "'"
            : "copy '" + info.working_name + "' back into '" + def.name +
                  "' identifying updated rows (rename optimization disabled)";
    program->steps.push_back(std::move(s));
  }
  {
    Step s;  // 5/6: update loop; conditional jump back to step 3
    s.kind = Step::Kind::kLoopCheck;
    s.id = program->NewId();
    s.loop_id = loop_id;
    s.loop = spec.Clone();
    s.jump_to_id = body_id;
    s.comment = "increment counter; go to Ri while continue";
    info.check_step_id = s.id;
    program->steps.push_back(std::move(s));
  }
  // Let the init step skip the body when the loop runs zero iterations
  // (termination condition already true over R0).
  program->steps[program->FindStep(info.init_step_id)].jump_to_id =
      info.check_step_id;

  program->iterative_ctes.push_back(std::move(info));
  binder_.AddCte(def.name, CteBinding{def.name, schema});
  return Status::OK();
}

}  // namespace dbspinner
