// Seed-driven random query generation for the differential fuzzer.
//
// A generated case is a *structured spec*, not a SQL string: every optional
// clause is a field the minimizer can turn off and every constant a field it
// can shrink, after which Render() deterministically re-produces the SQL.
// The same spec also renders to a statement-at-a-time Procedure (the Fig 11
// baseline), which gives the differential runner its plan-vs-procedure
// oracle for free.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/procedure.h"
#include "graph/generator.h"
#include "testing/fuzz_rng.h"

namespace dbspinner {
namespace fuzz {

/// Query shapes the generator rotates through. The three iterative families
/// map to the paper's three body classes: pass-through arithmetic (FF,
/// rename path + pushdown-legal), join + aggregation (PR, rename path,
/// pushdown-illegal), and WHERE-filtered (SSSP, merge path). Canonical
/// families reuse the exact workload queries so results can also be checked
/// against graph/reference_algorithms.
enum class QueryFamily {
  kScalarSelect,    ///< random one-shot SELECT pipeline over edges
  kIterativeChain,  ///< FF-shaped iterative CTE (rename, pushdown-legal)
  kIterativeJoin,   ///< PR-shaped iterative CTE (joins + GROUP BY)
  kIterativeMerge,  ///< SSSP-shaped iterative CTE (WHERE -> merge by key)
  kRecursive,       ///< WITH RECURSIVE reachability with a depth bound
  kCanonicalPR,     ///< workloads::PRQuery / PRVSQuery
  kCanonicalSSSP,   ///< workloads::SSSPQuery / SSSPVSQuery
  kCanonicalFF,     ///< workloads::FFQuery
};

const char* FamilyName(QueryFamily family);

/// Loop-termination condition of a generated iterative CTE.
enum class UntilKind { kIterations, kUpdates, kDeltaLess };

/// One generated query, as shrinkable knobs. Render() is a pure function of
/// this struct, so (spec, graph spec) fully reproduces a case.
struct QuerySpec {
  QueryFamily family = QueryFamily::kScalarSelect;
  uint64_t expr_seed = 1;  ///< drives generated expressions and constants

  // --- scalar-select knobs -------------------------------------------------
  bool join_vertexstatus = false;  ///< INNER JOIN vertexstatus in FROM
  bool left_join = false;          ///< LEFT JOIN a second edges alias
  bool use_where = false;
  bool use_group_by = false;
  bool use_having = false;  ///< only with use_group_by
  bool use_union = false;   ///< UNION [ALL] with a second arm
  bool union_all = false;
  bool use_case = false;           ///< CASE expression in the select list
  bool use_order_limit = false;    ///< ORDER BY all columns + LIMIT
  /// Bit i set: ORDER BY key i is DESC, in the query's own ORDER BY or in
  /// the one the differential "ordered" oracle appends.
  uint32_t order_desc = 0;
  int limit = 10;

  // --- iterative knobs -----------------------------------------------------
  int iterations = 3;  ///< UNTIL n ITERATIONS / n for UPDATES / DELTA bound
  UntilKind until = UntilKind::kIterations;
  bool vs_join = false;       ///< join vertexstatus inside Ri (and Qf legal)
  bool qf_filter = false;     ///< MOD(node, filter_mod) = 0 predicate in Qf
  bool qf_aggregate = false;  ///< aggregate instead of projection in Qf
  int64_t filter_mod = 2;

  // --- recursive knobs -----------------------------------------------------
  bool union_distinct = true;  ///< UNION vs UNION ALL recursion
  int64_t depth_bound = 6;
  int64_t start_node = 1;

  // --- canonical knobs -----------------------------------------------------
  int64_t source_node = 1;  ///< SSSP source
  int64_t target_node = 2;  ///< SSSP target
};

/// A complete fuzz case: data + query.
struct FuzzCase {
  uint64_t case_seed = 0;  ///< for labeling/repro only
  graph::GraphSpec graph;
  double status_fraction = 0.75;
  uint64_t status_seed = 7;
  QuerySpec query;

  /// Human-readable one-liner ("case 17: iterative-chain, uniform n=40 ...").
  std::string Label() const;
};

/// Renders the spec to SQL. Deterministic.
std::string RenderQuery(const QuerySpec& spec);

/// One key of a query's top-level ORDER BY: an output column and its
/// direction.
struct OrderKey {
  size_t column = 0;
  bool descending = false;
};

/// The top-level ORDER BY of the rendered query over its `num_columns`
/// output columns; empty when the query has none.
std::vector<OrderKey> TopLevelOrder(const QuerySpec& spec,
                                    size_t num_columns);

/// An ORDER BY on every one of `num_columns` output columns in order, key
/// i DESC when bit i of spec.order_desc is set.
std::vector<OrderKey> OrderByAllColumns(const QuerySpec& spec,
                                        size_t num_columns);

/// The clause "\nORDER BY 1, 2 DESC, ..." for `keys`.
std::string RenderOrderBy(const std::vector<OrderKey>& keys);

/// True when the spec has a statement-at-a-time lowering (iterative families
/// with a counted UNTIL; data/delta conditions cannot be expressed as a
/// fixed-trip procedural loop).
bool HasProcedureLowering(const QuerySpec& spec);

/// The Fig 11-style lowering: temp tables + DELETE/INSERT/UPDATE per
/// iteration. Only valid when HasProcedureLowering(spec).
Procedure RenderProcedure(const QuerySpec& spec);

/// Loads the case's generated graph into `db` (edges + vertexstatus).
Status LoadCaseData(Database* db, const FuzzCase& c);

/// Deterministic stream of fuzz cases: same seed, same sequence.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  FuzzCase NextCase();

 private:
  QuerySpec NextSpec(QueryFamily family, uint64_t expr_seed,
                     int64_t num_nodes);

  FuzzRng rng_;
  int64_t counter_ = 0;
};

}  // namespace fuzz
}  // namespace dbspinner
