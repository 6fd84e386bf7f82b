// Kernel-free differential oracle for expressions.
//
// Generates random well-typed BoundExpr trees (depth <= 4) over a table's
// schema — every BoundExprKind, every BinaryOp and every registered scalar
// function — and checks the vectorized evaluator (CompiledExpr) against the
// row-wise reference EvaluateExpr over the same rows in order: each value
// (doubles bit for bit), each NULL, and whether evaluation fails at all.
// Both the evaluation form and the filter form run, over contiguous windows
// and random selections. The oracle uses no query, plan or pipeline, so a
// wrong kernel cannot hide behind an oracle that runs the same kernel.

#pragma once

#include <cstdint>
#include <string>

#include "expr/expr.h"
#include "storage/table.h"
#include "testing/fuzz_rng.h"
#include "testing/query_generator.h"

namespace dbspinner {
namespace fuzz {

/// A random table of `rows` rows with INT64, DOUBLE, STRING and BOOL
/// columns holding NULLs, NaN, +-0.0, +-infinity, INT64 min/max, and empty
/// and non-empty strings.
TablePtr RandomExprTable(FuzzRng* rng, size_t rows);

/// A random well-typed expression of type `type` (BOOL, INT64, DOUBLE or
/// STRING) and depth at most `depth` over `schema`.
BoundExprPtr RandomExpr(FuzzRng* rng, const Schema& schema, TypeId type,
                        int depth);

/// Checks `trees` random expressions over `table`, each on the whole table,
/// a contiguous window and a random selection. Returns "" when CompiledExpr
/// agrees with EvaluateExpr everywhere, else the first disagreement.
std::string CheckExprOracle(const Table& table, uint64_t seed, int trees);

/// The oracle over a fuzz case's tables (edges, vertexstatus) and over a
/// random table, seeded from the case on a stream of its own.
std::string CheckExprOracleOnCase(const FuzzCase& c, int trees);

}  // namespace fuzz
}  // namespace dbspinner
