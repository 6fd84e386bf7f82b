#include "ivm/view_registry.h"

#include <algorithm>

#include "exec/row_index.h"

namespace dbspinner {
namespace ivm {
namespace {

size_t Rows(const TablePtr& t) { return t == nullptr ? 0 : t->num_rows(); }

/// Multiset apply for linear plans: contents + ins − del. Each delete row
/// consumes exactly one matching contents row; returns null when a delete
/// finds no match (the caller escalates to a full recompute).
TablePtr ApplyLinear(const Table& old, const TablePtr& ins,
                     const TablePtr& del) {
  TablePtr out;
  if (Rows(del) == 0) {
    out = Table::Make(old.schema());
    out->Reserve(old.num_rows() + Rows(ins));
    out->AppendAll(old);
  } else {
    // Each contents row drops the first unconsumed equal delete row.
    const KeyColumns old_cols = AllColumnsOf(old);
    const RowIndex del_index = RowIndex::Build(
        AllColumnsOf(*del), KeyTypes(old_cols), RowIndex::Nulls::kMatch);
    std::vector<bool> consumed(del->num_rows(), false);
    size_t unmatched = del->num_rows();
    std::vector<uint32_t> kept;
    for (uint32_t i = 0; i < old.num_rows(); ++i) {
      uint32_t d = del_index.Find(old_cols, i);
      while (d != kNoMatch && consumed[d]) d = del_index.Next(d);
      if (d == kNoMatch) {
        kept.push_back(i);
        continue;
      }
      consumed[d] = true;
      --unmatched;
    }
    if (unmatched > 0) return nullptr;
    out = old.Gather(kept);
  }
  if (ins != nullptr) out->AppendAll(*ins);
  return out;
}

/// The whole of `rows` as one chunk.
DataChunk WholeTable(const TablePtr& rows) {
  return DataChunk(rows, 0, rows->num_rows());
}

/// The empty group state of `plan` over maintenance input rows of schema
/// `input`. The kernel emits the types of `view`, the view's schema.
Result<std::unique_ptr<AggregateGroups>> NewGroups(const MaintenancePlan& plan,
                                                   const Schema& input,
                                                   const Schema& view) {
  auto groups = std::make_unique<AggregateGroups>();
  const size_t ng = static_cast<size_t>(plan.num_group_cols);
  std::vector<Column> out(ng + plan.aggs.size());
  for (size_t k = 0; k < ng; ++k) {
    const Column& c = input.column(k);
    groups->keys.push_back(MakeBoundColumnRef(k, c.type, c.name));
    out[k] = c;
  }
  for (size_t i = 0; i < plan.outputs.size(); ++i) {
    const PlanOutput& o = plan.outputs[i];
    out[(o.is_agg ? ng : 0) + static_cast<size_t>(o.index)] = view.column(i);
  }
  for (const PlanAgg& a : plan.aggs) {
    AggregateSpec spec;
    spec.kind = a.kind;
    if (a.input_col >= 0) {
      const Column& c = input.column(static_cast<size_t>(a.input_col));
      spec.arg = MakeBoundColumnRef(static_cast<size_t>(a.input_col), c.type,
                                    c.name);
    }
    DBSP_ASSIGN_OR_RETURN(
        spec.result_type,
        AggResultType(a.kind, spec.arg ? spec.arg->type : TypeId::kNull));
    groups->aggs.push_back(std::move(spec));
  }
  groups->aggs.emplace_back();  // COUNT(*): the group's row count
  out.push_back({"rows", TypeId::kInt64});
  groups->schema = Schema(std::move(out));
  groups->kernel = std::make_unique<GroupedAggregator>(
      &groups->keys, &groups->aggs, &groups->schema);
  return groups;
}

/// Folds one delta into an aggregate view's group state and emits the new
/// contents: the groups that still have rows, columns in PlanOutput order.
/// Returns null when the fold is inexact (a missing group, a MIN/MAX
/// extreme leaving) or fails, or when an integer SUM leaves the INT64
/// range; the caller recomputes, which reports the overflow. Deletions
/// retract first, so an escalation never folds an insertion.
TablePtr FoldAggregateDelta(const MaintenancePlan& plan, const Schema& view,
                            AggregateGroups* groups, const TablePtr& ins,
                            const TablePtr& del) {
  GroupedAggregator& kernel = *groups->kernel;
  if (Rows(del) > 0) {
    Result<bool> exact = kernel.Retract(WholeTable(del));
    if (!exact.ok() || !*exact) return nullptr;
  }
  if (Rows(ins) > 0 && !kernel.Consume(WholeTable(ins)).ok()) return nullptr;
  Result<TablePtr> all = kernel.Finalize();
  if (!all.ok()) return nullptr;
  const std::vector<int64_t>& rows =
      (*all)->column((*all)->num_columns() - 1).ints();
  std::vector<uint32_t> live;
  for (uint32_t g = 0; g < rows.size(); ++g) {
    if (rows[g] > 0) live.push_back(g);
  }
  std::vector<ColumnVectorPtr> cols;
  for (const PlanOutput& o : plan.outputs) {
    const size_t c = static_cast<size_t>(o.index) +
                     (o.is_agg ? static_cast<size_t>(plan.num_group_cols) : 0);
    cols.push_back((*all)->column_ptr(c));
  }
  return Table::FromColumns(view, std::move(cols))->Gather(live);
}

}  // namespace

Result<TablePtr> ViewRegistry::Create(const std::string& name,
                                      const QueryNode& body,
                                      std::string definition,
                                      const Catalog& snapshot,
                                      const QueryRunner& runner,
                                      ExecStats* stats) {
  if (Has(name)) {
    return Status::AlreadyExists("materialized view '" + name +
                                 "' already exists");
  }
  std::vector<std::string> bases;
  CollectBaseTables(body, &bases);
  for (const std::string& t : bases) {
    if (Has(t)) {
      return Status::InvalidArgument(
          "materialized view '" + name + "' cannot reference view '" + t +
          "'; views on views are not supported");
    }
  }

  auto state = std::make_shared<ViewState>();
  state->name = name;
  state->definition = std::move(definition);
  state->body = body.Clone();
  state->plan = DerivePlan(body);
  state->created_version = snapshot.version();

  TablePtr contents;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    DBSP_ASSIGN_OR_RETURN(contents,
                          RecomputeLocked(*state, snapshot.version(), snapshot,
                                          runner, stats));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("materialized view '" + name +
                                 "' already exists");
  }
  views_.emplace(name, std::move(state));
  return contents;
}

Status ViewRegistry::CreateRecovered(const std::string& name,
                                     QueryNodePtr body,
                                     std::string definition) {
  auto state = std::make_shared<ViewState>();
  state->name = name;
  state->definition = std::move(definition);
  state->plan = DerivePlan(*body);
  state->body = std::move(body);
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("materialized view '" + name +
                                 "' already exists");
  }
  views_.emplace(name, std::move(state));
  return Status::OK();
}

Status ViewRegistry::Drop(const std::string& name, bool if_exists) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    if (if_exists) return Status::OK();
    return Status::NotFound("materialized view '" + name + "' does not exist");
  }
  views_.erase(it);
  return Status::OK();
}

Status ViewRegistry::Refresh(const std::string& name, const Catalog& snapshot,
                             const QueryRunner& runner, ExecStats* stats) {
  std::shared_ptr<ViewState> state = Find(name);
  if (state == nullptr) {
    return Status::NotFound("materialized view '" + name + "' does not exist");
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->pending.clear();
  return RecomputeLocked(*state, snapshot.version(), snapshot, runner, stats)
      .status();
}

bool ViewRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.count(name) > 0;
}

bool ViewRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.empty();
}

bool ViewRegistry::DependsOn(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, state] : views_) {
    const std::vector<std::string>& bases = state->plan.base_tables;
    if (std::find(bases.begin(), bases.end(), table) != bases.end()) {
      return true;
    }
  }
  return false;
}

std::vector<ViewRegistry::ViewInfo> ViewRegistry::List() const {
  std::vector<std::shared_ptr<ViewState>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    states.reserve(views_.size());
    for (const auto& [name, state] : views_) states.push_back(state);
  }
  std::vector<ViewInfo> out;
  out.reserve(states.size());
  for (const auto& state : states) {
    ViewInfo info;
    info.name = state->name;
    info.definition = state->definition;
    info.plan = PlanKindName(state->plan.kind);
    std::lock_guard<std::mutex> lock(state->mu);
    info.version = state->history.empty() ? 0 : state->history.back().version;
    info.pending = state->pending.size();
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const ViewInfo& a, const ViewInfo& b) { return a.name < b.name; });
  return out;
}

std::vector<std::string> ViewRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, state] : views_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

void ViewRegistry::OnBaseDelta(const std::string& table,
                               const TablePtr& inserts, const TablePtr& deletes,
                               uint64_t version, const Catalog& snapshot,
                               bool force_full) {
  if (Rows(inserts) == 0 && Rows(deletes) == 0) return;
  std::vector<std::shared_ptr<ViewState>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, state] : views_) {
      const std::vector<std::string>& bases = state->plan.base_tables;
      if (std::find(bases.begin(), bases.end(), table) != bases.end()) {
        states.push_back(state);
      }
    }
  }
  for (const auto& state : states) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->plan.kind == PlanKind::kFallback) {
      // Fallback views queue nothing; they recompute on read.
      state->last_base_change = std::max(state->last_base_change, version);
      continue;
    }
    PendingDelta d;
    d.version = version;
    d.snapshot = snapshot;
    if (force_full) {
      d.full = true;
      state->pending.clear();
    } else {
      d.table = table;
      d.inserts = inserts;
      d.deletes = deletes;
    }
    state->pending.push_back(std::move(d));
    if (state->pending.size() > kMaxPending) {
      // Runaway queue (e.g. maintenance persistently failing): collapse to
      // one full-refresh marker so pinned snapshots are released.
      PendingDelta full;
      full.version = state->pending.back().version;
      full.snapshot = state->pending.back().snapshot;
      full.full = true;
      state->pending.clear();
      state->pending.push_back(std::move(full));
    }
  }
}

void ViewRegistry::MarkAllStale(uint64_t version, const Catalog& snapshot) {
  std::vector<std::shared_ptr<ViewState>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, state] : views_) states.push_back(state);
  }
  for (const auto& state : states) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->plan.kind == PlanKind::kFallback) {
      state->last_base_change = std::max(state->last_base_change, version);
      continue;
    }
    state->pending.clear();
    PendingDelta d;
    d.version = version;
    d.snapshot = snapshot;
    d.full = true;
    state->pending.push_back(std::move(d));
  }
}

Result<TablePtr> ViewRegistry::ContentsAt(const std::string& name,
                                          uint64_t version,
                                          const Catalog& reader_snapshot,
                                          const QueryRunner& runner,
                                          ExecStats* stats) {
  std::shared_ptr<ViewState> state = Find(name);
  if (state == nullptr) {
    return Status::NotFound("materialized view '" + name + "' does not exist");
  }
  std::lock_guard<std::mutex> lock(state->mu);
  while (!state->pending.empty() && state->pending.front().version <= version) {
    DBSP_RETURN_NOT_OK(ApplyFrontLocked(*state, runner, stats));
  }
  // Newest published version at or below the reader's catalog version.
  const PublishedVersion* best = nullptr;
  for (const PublishedVersion& p : state->history) {
    if (p.version <= version) best = &p;
  }
  if (best != nullptr && (state->plan.kind != PlanKind::kFallback ||
                          state->last_base_change <= best->version)) {
    return best->contents;
  }
  // Recompute at the reader's snapshot: fallback plan behind a base-table
  // change, a reader older than the retained history, or a recovered view
  // serving its first read.
  return RecomputeLocked(*state, version, reader_snapshot, runner, stats);
}

void ViewRegistry::DrainPending(const QueryRunner& runner, ExecStats* stats) {
  std::vector<std::shared_ptr<ViewState>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, state] : views_) states.push_back(state);
  }
  for (const auto& state : states) {
    std::lock_guard<std::mutex> lock(state->mu);
    while (!state->pending.empty()) {
      if (!ApplyFrontLocked(*state, runner, stats).ok()) {
        // Leave the queue intact: ContentsAt syncs lazily on the next read.
        break;
      }
    }
  }
}

bool ViewRegistry::HasPending() const {
  std::vector<std::shared_ptr<ViewState>> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, state] : views_) states.push_back(state);
  }
  for (const auto& state : states) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (!state->pending.empty()) return true;
  }
  return false;
}

std::shared_ptr<ViewState> ViewRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second;
}

Status ViewRegistry::ApplyFrontLocked(ViewState& s, const QueryRunner& runner,
                                      ExecStats* stats) {
  const PendingDelta& d = s.pending.front();
  auto recompute = [&]() -> Status {
    DBSP_RETURN_NOT_OK(
        RecomputeLocked(s, d.version, d.snapshot, runner, stats).status());
    s.pending.pop_front();
    return Status::OK();
  };
  // A full marker, or nothing consistent to fold into (a recovered view).
  if (d.full || s.history.empty() ||
      (s.plan.kind == PlanKind::kAggregate && s.groups == nullptr)) {
    return recompute();
  }

  // Derive ΔQ = Q[T→ins] − Q[T→del] by substituting the delta rows for the
  // mutated table. Both runs complete before any state mutates, so a
  // cancelled or failed maintenance query leaves the previously published
  // version (and the queue) untouched.
  const QueryNode& q = s.plan.kind == PlanKind::kAggregate
                           ? *s.plan.input_query
                           : *s.body;
  TablePtr ins_rows;
  TablePtr del_rows;
  for (int pass = 0; pass < 2; ++pass) {
    const TablePtr& delta = pass == 0 ? d.inserts : d.deletes;
    if (Rows(delta) == 0) continue;
    QueryNodePtr substituted = q.Clone();
    RewriteTableRefs(substituted.get(), d.table, kDeltaName);
    DBSP_ASSIGN_OR_RETURN(
        TablePtr rows,
        runner(*substituted, d.snapshot, {{kDeltaName, delta}}));
    (pass == 0 ? ins_rows : del_rows) = std::move(rows);
  }

  TablePtr contents =
      s.plan.kind == PlanKind::kLinear
          ? ApplyLinear(*s.history.back().contents, ins_rows, del_rows)
          : FoldAggregateDelta(s.plan, s.history.back().contents->schema(),
                               s.groups.get(), ins_rows, del_rows);
  if (contents == nullptr) {
    s.groups.reset();  // partially folded; rebuilt by the recompute
    return recompute();
  }
  PublishLocked(s, d.version, std::move(contents));
  stats->ivm_deltas_applied += 1;
  stats->ivm_rows_maintained +=
      static_cast<int64_t>(Rows(ins_rows) + Rows(del_rows));
  s.pending.pop_front();
  return Status::OK();
}

Result<TablePtr> ViewRegistry::RecomputeLocked(ViewState& s, uint64_t version,
                                               const Catalog& snapshot,
                                               const QueryRunner& runner,
                                               ExecStats* stats) {
  DBSP_ASSIGN_OR_RETURN(TablePtr contents, runner(*s.body, snapshot, {}));
  if (s.plan.kind == PlanKind::kAggregate) {
    DBSP_ASSIGN_OR_RETURN(TablePtr input,
                          runner(*s.plan.input_query, snapshot, {}));
    s.groups.reset();
    DBSP_ASSIGN_OR_RETURN(
        std::unique_ptr<AggregateGroups> groups,
        NewGroups(s.plan, input->schema(), contents->schema()));
    DBSP_RETURN_NOT_OK(groups->kernel->Consume(WholeTable(input)));
    s.groups = std::move(groups);
  }
  if (s.plan.kind == PlanKind::kFallback) {
    stats->ivm_fallbacks += 1;
  } else {
    stats->ivm_full_refreshes += 1;
  }
  PublishLocked(s, version, contents);
  return contents;
}

void ViewRegistry::PublishLocked(ViewState& s, uint64_t version,
                                 TablePtr contents) {
  if (!s.history.empty() && version < s.history.back().version) {
    // An older reader recomputed for itself; keep the newer published line.
    return;
  }
  if (!s.history.empty() && version == s.history.back().version) {
    s.history.back().contents = std::move(contents);
    return;
  }
  s.history.push_back({version, std::move(contents)});
  while (s.history.size() > kHistoryDepth) s.history.pop_front();
}

}  // namespace ivm
}  // namespace dbspinner
