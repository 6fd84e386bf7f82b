// The vectorized expression evaluator (DESIGN.md §11, "One evaluator").
//
// A CompiledExpr evaluates a BoundExpr over the rows of its input, each
// column read through its own row set (a contiguous window or a list of
// row ids), into a typed column with a NULL mask, or, as a filter, into the
// positions of the rows where it is TRUE. It is
// the engine's one evaluator: constant folding and INSERT … VALUES run it
// over one row (EvaluateConstant). It returns exactly what row-at-a-time
// evaluation returns (the reference in testing/reference_eval.h), row for
// row, NULLs included, and fails exactly when row-wise evaluation fails,
// because every node sees exactly the rows row-wise evaluation hands it:
//   - AND evaluates its right side only where the left is not FALSE, OR
//     only where the left is not TRUE;
//   - CASE runs WHEN k on the rows no earlier WHEN matched, THEN k where
//     WHEN k is TRUE and ELSE on the rest;
//   - an IN item runs on the rows whose operand is not NULL and that no
//     earlier item matched;
//   - every other node runs on every row that reaches it,
// so `/` and `%` check exactly the divisors row-wise evaluation checks, and
// `CASE WHEN x <> 0 THEN 10 / x ELSE 0 END` never divides by zero.
//
// Values are typed by the node's static type throughout: INT64 and BOOL in
// int64_t arrays, DOUBLE in double arrays, STRING in std::string arrays.
// Comparisons, casts and functions take their semantics from the row-wise
// evaluator: `<`, `<=`, `>`, `>=` order by CompareScalars (NaN equals
// itself and sorts above every number), `=` and `<>` are Value::Equals
// (IEEE), an INT64 meeting a DOUBLE is compared as a double, and CASE,
// CAST and function results convert as Value::CastTo does. A function
// call evaluates its argument columns, then calls ScalarFunction::eval once
// per row on them.
//
// The compiled form is immutable, so one instance is shared by every morsel
// worker. Each thread evaluates in its own scratch memory: one batch-sized
// typed buffer per node, kept for the thread's lifetime and reused across
// chunks, expressions and statements, so evaluation allocates nothing per
// row.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace dbspinner {

/// One input column and the rows it is read at. A row id of kNoMatch in
/// a padded list reads as NULL.
struct ColumnRead {
  ColumnVectorPtr data;
  RowSet rows;
};

/// What one evaluation reads: `size` rows, column c read through its own
/// row set columns[c].rows (a chunk's columns from different sources read
/// different lists). When `pinned` is set, its columns come first and read
/// its row `pinned_row` for every row, and `columns` follow (a nested-loop
/// join evaluates one left row against every right row so).
struct EvalInput {
  /// Every column of `table`, read at `rows`.
  EvalInput(const Table& table, RowSet rows);
  /// `columns`, each read at `size` rows of its own row set.
  EvalInput(std::vector<ColumnRead> columns, size_t size)
      : columns(std::move(columns)), size(size) {}

  std::vector<ColumnRead> columns;
  size_t size = 0;
  const Table* pinned = nullptr;
  uint32_t pinned_row = 0;
};

/// A BoundExpr compiled for batch evaluation. The expression must outlive
/// the compiled form.
class CompiledExpr {
 public:
  explicit CompiledExpr(const BoundExpr& expr);
  ~CompiledExpr();
  CompiledExpr(CompiledExpr&&) noexcept;
  CompiledExpr& operator=(CompiledExpr&&) noexcept;

  /// The result type (the expression's static type).
  TypeId type() const;

  /// Evaluates every row of `in`, in order, into a new column of type()
  /// (a plain column reference read at every row of its column, in order,
  /// returns that column itself). `unboxed_rows`, when set, grows by the
  /// rows evaluated without a boxed function call.
  Result<ColumnVectorPtr> Evaluate(const EvalInput& in,
                                   int64_t* unboxed_rows = nullptr) const;

  /// Appends to `rows_out` the positions (0 .. in.size - 1, ascending) of
  /// the rows of `in` where the expression is TRUE (SQL WHERE semantics).
  /// Top-level conjuncts refine the rows in turn: each one runs on the rows
  /// where no earlier conjunct was FALSE. `unboxed_rows` counts, per
  /// conjunct, the rows it ran on without a boxed function call.
  Status Filter(const EvalInput& in, std::vector<uint32_t>* rows_out,
                int64_t* unboxed_rows = nullptr) const;

  struct Node;

 private:
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  std::vector<uint32_t> conjuncts_;  ///< the root's top-level AND leaves
};

/// Evaluates `expr`, which references no column, once: a CompiledExpr over
/// one row of an input without columns. Fails where evaluating it fails
/// (division by zero, integer overflow, a bad cast).
Result<Value> EvaluateConstant(const BoundExpr& expr);

}  // namespace dbspinner
