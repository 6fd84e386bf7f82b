// EXPLAIN walkthrough: prints the rewritten programs of the paper's queries.
//
//   $ ./build/examples/explain_plan
//
// The output of the PR query reproduces the logical plan of the paper's
// Table I: materialize R0, initialize the loop operator, materialize Ri,
// rename, loop check, final query. PR-VS additionally shows the hoisted
// __common#1 materialization (Fig 5); SSSP-VS shows it together with the
// delta-restricted loop body and its dependency join (DESIGN.md §4c); and
// FF shows the Qf predicate pushed into R0 (Fig 10 / §V-B).

#include <iostream>

#include "engine/database.h"
#include "engine/workloads.h"

using namespace dbspinner;

namespace {

void Show(Database* db, const std::string& title, const std::string& sql) {
  std::cout << "=== " << title << " ===\n";
  Result<QueryResult> result = db->Execute("EXPLAIN " + sql);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    std::exit(1);
  }
  std::cout << result->explain << "\n";
}

}  // namespace

int main() {
  Database db;
  for (const char* ddl :
       {"CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)",
        "CREATE TABLE vertexstatus (node BIGINT, status BIGINT)"}) {
    auto r = db.Execute(ddl);
    if (!r.ok()) {
      std::cerr << r.status().ToString() << "\n";
      return 1;
    }
  }

  Show(&db, "PR (Fig 2 / Table I): rename path, metadata loop",
       workloads::PRQuery(10));
  Show(&db, "PR-VS (Fig 5): common result hoisted out of the loop",
       workloads::PRVSQuery(10));
  Show(&db, "SSSP (Fig 7): merge path (Ri has a WHERE clause)",
       workloads::SSSPQuery(10, 1, 10));
  Show(&db,
       "SSSP-VS (Fig 9): common result hoisted, loop body delta-restricted",
       workloads::SSSPVSQuery(10, 1, 10));
  Show(&db, "FF (Fig 6 / Fig 10): Qf predicate pushed into R0",
       workloads::FFQuery(25, 100));
  Show(&db, "FF with Delta termination", workloads::FFDeltaQuery(1, 100));

  std::cout << "=== Same PR-VS with all optimizations disabled ===\n";
  Database plain;
  plain.options().optimizer.enable_common_result = false;
  plain.options().optimizer.enable_rename_optimization = false;
  plain.options().optimizer.enable_cte_predicate_pushdown = false;
  for (const char* ddl :
       {"CREATE TABLE edges (src BIGINT, dst BIGINT, weight DOUBLE)",
        "CREATE TABLE vertexstatus (node BIGINT, status BIGINT)"}) {
    auto r = plain.Execute(ddl);
    if (!r.ok()) return 1;
  }
  auto result = plain.Execute("EXPLAIN " + workloads::PRVSQuery(10));
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << result->explain << "\n";
  return 0;
}
