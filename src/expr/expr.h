// Bound (resolved, typed) expressions.
//
// The binder converts ParseExpr trees into BoundExpr trees where every column
// reference is an ordinal into the input relation's schema and every function
// is resolved against the scalar-function registry. Aggregates never appear
// inside BoundExpr: the binder extracts them into AggregateSpecs on a
// LogicalAggregate and replaces them with column references over the
// aggregate's output.
//
// The engine evaluates them with CompiledExpr (expr/vector_eval.h), its one
// evaluator; the row-wise reference lives in src/testing (DESIGN.md §11).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "parser/ast.h"
#include "storage/table.h"

namespace dbspinner {

struct ScalarFunction;

enum class BoundExprKind {
  kConstant,
  kColumnRef,
  kBinaryOp,
  kUnaryOp,
  kFunctionCall,
  kCase,
  kCast,
  kIsNull,
  kIn,
  kBetween,
  kLike,
};

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// A fully resolved expression node. `type` is the statically inferred
/// result type.
struct BoundExpr {
  BoundExprKind kind;
  TypeId type = TypeId::kNull;

  // kConstant
  Value constant;

  // kColumnRef
  size_t column_index = 0;
  std::string column_name;  ///< for diagnostics / printing

  // kBinaryOp / kUnaryOp
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;

  // kFunctionCall
  const ScalarFunction* function = nullptr;
  std::string function_name;

  // kCast
  TypeId cast_type = TypeId::kNull;

  // kIsNull / kIn
  bool negated = false;
  bool case_has_else = false;

  std::vector<BoundExprPtr> children;

  BoundExprPtr Clone() const;
  std::string ToString() const;

  /// True if any node in the tree is a column reference.
  bool HasColumnRef() const;

  /// Appends all referenced column ordinals (with duplicates) to `out`.
  void CollectColumnRefs(std::vector<size_t>* out) const;

  /// True if every referenced ordinal is within [lo, hi).
  bool RefsWithin(size_t lo, size_t hi) const;

  /// Rewrites every column ordinal through `mapping` (new = mapping[old]).
  void RemapColumns(const std::vector<size_t>& mapping);

  /// Shifts every column ordinal by `delta`.
  void ShiftColumns(int64_t delta);
};

BoundExprPtr MakeBoundConstant(Value v);
BoundExprPtr MakeBoundColumnRef(size_t index, TypeId type, std::string name);
BoundExprPtr MakeBoundBinary(BinaryOp op, BoundExprPtr l, BoundExprPtr r,
                             TypeId type);

/// SQL LIKE with % (any run) and _ (any one char).
bool LikeMatch(const std::string& s, const std::string& pattern);

/// Structural equality of bound expressions.
bool BoundExprEquals(const BoundExpr& a, const BoundExpr& b);

/// Column ordinals on which `expr` is strict: a NULL in any of them forces
/// the whole expression to NULL (hence "not TRUE" as a predicate). Used for
/// outer-join simplification.
std::vector<size_t> NullRejectedColumns(const BoundExpr& expr);

/// Splits an AND tree into conjuncts (clones of the leaves).
void SplitConjuncts(const BoundExpr& expr, std::vector<BoundExprPtr>* out);

/// ANDs a conjunct list back together (empty list -> TRUE constant).
BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts);

}  // namespace dbspinner
