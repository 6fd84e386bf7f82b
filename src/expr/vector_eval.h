// The vectorized expression evaluator (DESIGN.md §11, "One evaluator").
//
// A CompiledExpr evaluates a BoundExpr over a set of rows of a base table —
// a contiguous window or a selection — into a typed column with a NULL
// mask, or, as a filter, into the ids of the rows where it is TRUE. It is
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

/// Rows of a base table: the window [begin, begin + size), or, when `sel`
/// is set, the absolute row ids sel[0, size).
struct RowSet {
  const uint32_t* sel = nullptr;
  uint32_t begin = 0;
  size_t size = 0;

  uint32_t RowAt(size_t i) const {
    return sel != nullptr ? sel[i] : begin + static_cast<uint32_t>(i);
  }
  static RowSet Window(size_t begin, size_t count) {
    return RowSet{nullptr, static_cast<uint32_t>(begin), count};
  }
  static RowSet Of(const std::vector<uint32_t>& rows) {
    return RowSet{rows.data(), 0, rows.size()};
  }
};

/// What one evaluation reads. Column c is column c of `base` at the rows
/// of `rows`; when `pinned` is set, its columns come first and read its
/// row `pinned_row` for every row, and base's columns follow (a
/// nested-loop join evaluates one left row against every right row so).
struct EvalInput {
  EvalInput(const Table& base_table, RowSet row_set)
      : base(&base_table), rows(row_set) {}

  const Table* base;
  RowSet rows;
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
  /// (a plain column reference over all of an unpinned base returns that
  /// column itself). `unboxed_rows`, when set, grows by the rows evaluated
  /// without a boxed function call.
  Result<ColumnVectorPtr> Evaluate(const EvalInput& in,
                                   int64_t* unboxed_rows = nullptr) const;

  /// Appends to `rows_out` the base row ids of the rows of `in` (in order)
  /// where the expression is TRUE (SQL WHERE semantics). Top-level
  /// conjuncts refine the rows in turn: each one runs on the rows where no
  /// earlier conjunct was FALSE. `unboxed_rows` counts, per conjunct, the
  /// rows it ran on without a boxed function call.
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
