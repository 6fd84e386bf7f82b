#include "testing/expr_oracle.h"

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "expr/scalar_functions.h"
#include "expr/vector_eval.h"
#include "graph/generator.h"
#include "testing/reference_eval.h"

namespace dbspinner {
namespace fuzz {

namespace {

constexpr TypeId kValueTypes[] = {TypeId::kBool, TypeId::kInt64,
                                  TypeId::kDouble, TypeId::kString};
constexpr BinaryOp kArith[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                               BinaryOp::kDiv, BinaryOp::kMod};

Value RandomValue(FuzzRng* rng, TypeId t) {
  static const std::vector<int64_t> kInts = {
      0, 1, -1, 2, 3, -7, 10, 4611686018427387904LL,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::min()};
  static const std::vector<double> kDoubles = {
      0.0, -0.0, 0.5, -1.5, 2.0, 1e300, -1e300,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  static const std::vector<std::string> kStrings = {
      "", "a", "abc", "A%c", "a_c", "%", "true", "False", "12", "-3",
      "2.5", "x y", "9223372036854775807"};
  switch (t) {
    case TypeId::kBool:
      return Value::Bool(rng->Chance(50));
    case TypeId::kInt64:
      return Value::Int64(rng->Chance(50) ? rng->Pick(kInts)
                                          : rng->Range(-20, 20));
    case TypeId::kDouble:
      return Value::Double(rng->Chance(50)
                               ? rng->Pick(kDoubles)
                               : static_cast<double>(rng->Range(-40, 40)) / 4);
    case TypeId::kString:
      return Value::String(rng->Pick(kStrings));
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

bool IsNumberType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble;
}

/// Random expression trees typed as the binder types them.
class ExprGen {
 public:
  ExprGen(FuzzRng* rng, const Schema& schema) : rng_(*rng), schema_(schema) {}

  BoundExprPtr Gen(TypeId t, int depth) {
    if (depth <= 0 || rng_.Chance(20)) return Leaf(t);
    const int d = depth - 1;
    BoundExprPtr e;
    switch (t) {
      case TypeId::kBool:
        e = GenBool(d);
        break;
      case TypeId::kInt64:
        e = GenInt(d);
        break;
      case TypeId::kDouble:
        e = GenDouble(d);
        break;
      default:
        e = GenString(d);
        break;
    }
    if (e == nullptr) return Leaf(t);
    // Keep the promised type: a branch mix or an inferred function type
    // may differ.
    if (e->type != t && e->type != TypeId::kNull) e = Cast(std::move(e), t);
    return e;
  }

 private:
  TypeId AnyType() {
    return kValueTypes[rng_.Range(0, 3)];
  }
  TypeId NumberType() {
    return rng_.Chance(50) ? TypeId::kInt64 : TypeId::kDouble;
  }

  BoundExprPtr Leaf(TypeId t) {
    if (rng_.Chance(8)) {
      return MakeBoundConstant(rng_.Chance(50) ? Value::Null()
                                               : Value::Null(t));
    }
    if (rng_.Chance(60)) {
      std::vector<size_t> cols;
      for (size_t c = 0; c < schema_.num_columns(); ++c) {
        if (schema_.column(c).type == t) cols.push_back(c);
      }
      if (!cols.empty()) {
        size_t c = rng_.Pick(cols);
        return MakeBoundColumnRef(c, t, schema_.column(c).name);
      }
    }
    BoundExprPtr k = MakeBoundConstant(RandomValue(&rng_, t));
    k->type = t;
    return k;
  }

  static BoundExprPtr Make(BoundExprKind kind, TypeId type,
                           std::vector<BoundExprPtr> kids) {
    auto e = std::make_unique<BoundExpr>();
    e->kind = kind;
    e->type = type;
    e->children = std::move(kids);
    return e;
  }
  /// Expressions of the given types, generated in order (the elements of
  /// a braced list are evaluated left to right, function arguments are
  /// not), so a seed gives the same tree under every compiler.
  std::vector<BoundExprPtr> Gens(std::initializer_list<TypeId> types, int d) {
    std::vector<BoundExprPtr> v;
    for (TypeId t : types) v.push_back(Gen(t, d));
    return v;
  }

  BoundExprPtr Cast(BoundExprPtr e, TypeId t) {
    std::vector<BoundExprPtr> kids;
    kids.push_back(std::move(e));
    BoundExprPtr c = Make(BoundExprKind::kCast, t, std::move(kids));
    c->cast_type = t;
    return c;
  }

  BoundExprPtr Binary(BinaryOp op, std::vector<BoundExprPtr> kids) {
    TypeId type = TypeId::kBool;
    if (op == BinaryOp::kConcat) {
      type = TypeId::kString;
    } else if (op != BinaryOp::kAnd && op != BinaryOp::kOr &&
               op != BinaryOp::kEq && op != BinaryOp::kNe &&
               op != BinaryOp::kLt && op != BinaryOp::kLe &&
               op != BinaryOp::kGt && op != BinaryOp::kGe) {
      Result<TypeId> common = CommonNumericType(kids[0]->type, kids[1]->type);
      if (!common.ok()) return nullptr;
      type = *common;
    }
    return MakeBoundBinary(op, std::move(kids[0]), std::move(kids[1]), type);
  }

  BoundExprPtr Unary(UnaryOp op, BoundExprPtr v) {
    TypeId type = op == UnaryOp::kNot ? TypeId::kBool : v->type;
    std::vector<BoundExprPtr> kids;
    kids.push_back(std::move(v));
    BoundExprPtr e = Make(BoundExprKind::kUnaryOp, type, std::move(kids));
    e->unary_op = op;
    return e;
  }

  /// A call typed by the function's own inference; nullptr when it
  /// rejects the arguments.
  BoundExprPtr Call(const std::string& name, std::vector<BoundExprPtr> args) {
    const ScalarFunction* fn = GetScalarFunction(name);
    if (fn == nullptr) return nullptr;
    std::vector<TypeId> types;
    for (const auto& a : args) types.push_back(a->type);
    Result<TypeId> type = fn->infer(types);
    if (!type.ok()) return nullptr;
    BoundExprPtr e = Make(BoundExprKind::kFunctionCall, *type, std::move(args));
    e->function = fn;
    e->function_name = name;
    return e;
  }

  /// CASE with 1-3 WHENs whose branches have the given types, typed as the
  /// binder types it; nullptr when the branch types do not combine.
  BoundExprPtr Case(const std::vector<TypeId>& branch_types, int d) {
    std::vector<BoundExprPtr> kids;
    const bool has_else = rng_.Chance(70);
    const size_t pairs = branch_types.size() - (has_else ? 1 : 0);
    if (pairs == 0) return nullptr;
    TypeId result = TypeId::kNull;
    for (size_t i = 0; i < branch_types.size(); ++i) {
      if (i < pairs) kids.push_back(Gen(TypeId::kBool, d));
      BoundExprPtr v = Gen(branch_types[i], d);
      if (result == TypeId::kNull) {
        result = v->type;
      } else if (v->type != TypeId::kNull && v->type != result) {
        Result<TypeId> common = CommonNumericType(result, v->type);
        if (!common.ok()) return nullptr;
        result = *common;
      }
      kids.push_back(std::move(v));
    }
    BoundExprPtr e = Make(BoundExprKind::kCase, result, std::move(kids));
    e->case_has_else = has_else;
    return e;
  }

  std::vector<TypeId> Branches(TypeId t) {
    std::vector<TypeId> types(static_cast<size_t>(rng_.Range(2, 4)), t);
    if (t == TypeId::kDouble) {
      for (TypeId& b : types) b = NumberType();
      types[0] = TypeId::kDouble;
    }
    return types;
  }

  static std::vector<BoundExprPtr> Pair(BoundExprPtr a, BoundExprPtr b) {
    std::vector<BoundExprPtr> v;
    v.push_back(std::move(a));
    v.push_back(std::move(b));
    return v;
  }

  BinaryOp DivOrMod() {
    return rng_.Chance(50) ? BinaryOp::kDiv : BinaryOp::kMod;
  }

  /// `v <> 0`, over a copy of `v`.
  BoundExprPtr NonZero(const BoundExpr& v) {
    return Binary(BinaryOp::kNe,
                  Pair(v.Clone(), MakeBoundConstant(Value::Int64(0))));
  }

  /// CASE WHEN v <> 0 THEN n / v ELSE e END (or %): the division sees
  /// only the rows where the guard holds, so it must not fail on the
  /// others.
  BoundExprPtr GuardedDivision(TypeId t, int d) {
    std::vector<BoundExprPtr> g = Gens({t, t, t}, d);  // v, n, e
    BoundExprPtr guard = NonZero(*g[0]);
    BoundExprPtr then =
        Binary(DivOrMod(), Pair(std::move(g[1]), std::move(g[0])));
    if (then == nullptr) return nullptr;
    Result<TypeId> type = then->type == TypeId::kNull
                              ? Result<TypeId>(g[2]->type)
                              : CommonNumericType(then->type, g[2]->type);
    if (!type.ok()) return nullptr;
    std::vector<BoundExprPtr> kids = Pair(std::move(guard), std::move(then));
    kids.push_back(std::move(g[2]));
    BoundExprPtr e = Make(BoundExprKind::kCase, *type, std::move(kids));
    e->case_has_else = true;
    return e;
  }

  BoundExprPtr GenBool(int d) {
    switch (rng_.Range(0, 10)) {
      case 0: {
        static const BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                        BinaryOp::kLt, BinaryOp::kLe,
                                        BinaryOp::kGt, BinaryOp::kGe};
        const BinaryOp op = kCmp[rng_.Range(0, 5)];
        if (rng_.Chance(60)) {
          return Binary(op, Gens({NumberType(), NumberType()}, d));
        }
        const TypeId t = AnyType();
        return Binary(op, Gens({t, t}, d));
      }
      case 1: {
        const BinaryOp op = rng_.Chance(50) ? BinaryOp::kAnd : BinaryOp::kOr;
        return Binary(op, Gens({TypeId::kBool, TypeId::kBool}, d));
      }
      case 2:
        return Unary(UnaryOp::kNot, Gen(TypeId::kBool, d));
      case 3: {
        BoundExprPtr e = Make(BoundExprKind::kIsNull, TypeId::kBool,
                              Gens({AnyType()}, d));
        e->negated = rng_.Chance(50);
        return e;
      }
      case 4: {
        const TypeId t = AnyType();
        std::vector<BoundExprPtr> kids = Gens({t}, d);
        const int64_t items = rng_.Range(1, 4);
        for (int64_t i = 0; i < items; ++i) {
          TypeId it = rng_.Chance(15) ? AnyType()
                      : IsNumberType(t) ? NumberType()
                                        : t;
          kids.push_back(rng_.Chance(60) ? Leaf(it) : Gen(it, d));
        }
        BoundExprPtr e =
            Make(BoundExprKind::kIn, TypeId::kBool, std::move(kids));
        e->negated = rng_.Chance(40);
        return e;
      }
      case 5: {
        const TypeId t = AnyType();
        auto bound_type = [&] {
          if (rng_.Chance(15)) return AnyType();
          return IsNumberType(t) ? NumberType() : t;
        };
        return Make(BoundExprKind::kBetween, TypeId::kBool,
                    Gens({t, bound_type(), bound_type()}, d));
      }
      case 6: {
        std::vector<BoundExprPtr> kids = Gens({TypeId::kString}, d);
        kids.push_back(rng_.Chance(70) ? Leaf(TypeId::kString)
                                       : Gen(TypeId::kString, d));
        BoundExprPtr e =
            Make(BoundExprKind::kLike, TypeId::kBool, std::move(kids));
        e->negated = rng_.Chance(40);
        return e;
      }
      case 7:
        return Case(Branches(TypeId::kBool), d);
      case 8:
        return Cast(Gen(AnyType(), d), TypeId::kBool);
      case 9: {
        // v <> 0 AND n / v >= 0: the division sees only rows the guard
        // does not rule out.
        std::vector<BoundExprPtr> g = Gens({NumberType(), NumberType()}, d);
        BoundExprPtr guard = NonZero(*g[0]);
        BoundExprPtr quotient = Binary(DivOrMod(), Pair(std::move(g[1]),
                                                        std::move(g[0])));
        if (quotient == nullptr) return nullptr;
        std::vector<BoundExprPtr> cmp =
            Pair(std::move(quotient), MakeBoundConstant(Value::Int64(0)));
        return Binary(BinaryOp::kAnd,
                      Pair(std::move(guard), Binary(BinaryOp::kGe,
                                                    std::move(cmp))));
      }
      default: {
        const char* name = rng_.Chance(50) ? "nullif" : "coalesce";
        return Call(name, Gens({TypeId::kBool, TypeId::kBool}, d));
      }
    }
  }

  BoundExprPtr GenInt(int d) {
    switch (rng_.Range(0, 6)) {
      case 0:
      case 1: {
        const BinaryOp op = kArith[rng_.Range(0, 4)];
        return Binary(op, Gens({TypeId::kInt64, TypeId::kInt64}, d));
      }
      case 2:
        return Unary(UnaryOp::kNeg, Gen(TypeId::kInt64, d));
      case 3:
        return Case(Branches(TypeId::kInt64), d);
      case 4:
        return Cast(Gen(AnyType(), d), TypeId::kInt64);
      case 5:
        return GuardedDivision(TypeId::kInt64, d);
      default:
        return IntFunction(d);
    }
  }

  BoundExprPtr IntFunction(int d) {
    switch (rng_.Range(0, 7)) {
      case 0:
        return Call("abs", Gens({TypeId::kInt64}, d));
      case 1:
        return Call("mod", Gens({TypeId::kInt64, TypeId::kInt64}, d));
      case 2:
      case 3: {
        std::vector<BoundExprPtr> args;
        for (int64_t i = rng_.Range(1, 3); i > 0; --i) {
          args.push_back(Gen(TypeId::kInt64, d));
        }
        return Call(rng_.Chance(50) ? "least" : "greatest", std::move(args));
      }
      case 4:
        return Call("coalesce", Gens({TypeId::kInt64, TypeId::kInt64}, d));
      case 5:
        return Call("sign", Gens({NumberType()}, d));
      case 6:
        return Call("length", Gens({AnyType()}, d));
      default:
        return Call("nullif", Gens({TypeId::kInt64, TypeId::kInt64}, d));
    }
  }

  BoundExprPtr GenDouble(int d) {
    switch (rng_.Range(0, 6)) {
      case 0:
      case 1: {
        std::vector<BoundExprPtr> kids =
            Gens({TypeId::kDouble, NumberType()}, d);
        if (rng_.Chance(50)) std::swap(kids[0], kids[1]);
        return Binary(kArith[rng_.Range(0, 4)], std::move(kids));
      }
      case 2:
        return Unary(UnaryOp::kNeg, Gen(TypeId::kDouble, d));
      case 3:
        return Case(Branches(TypeId::kDouble), d);
      case 4:
        return Cast(Gen(AnyType(), d), TypeId::kDouble);
      case 5:
        return GuardedDivision(TypeId::kDouble, d);
      default:
        return DoubleFunction(d);
    }
  }

  BoundExprPtr DoubleFunction(int d) {
    static const char* kUnary[] = {"ceiling", "ceil", "floor", "sqrt",
                                   "exp",     "ln",   "log"};
    switch (rng_.Range(0, 7)) {
      case 0:
        return Call("abs", Gens({TypeId::kDouble}, d));
      case 1: {
        const char* name = kUnary[rng_.Range(0, 6)];
        return Call(name, Gens({NumberType()}, d));
      }
      case 2: {
        std::vector<BoundExprPtr> args = Gens({NumberType()}, d);
        // The digits argument reads as an integer (Value::AsInt64).
        if (rng_.Chance(50)) args.push_back(Gen(TypeId::kInt64, d));
        return Call("round", std::move(args));
      }
      case 3:
        return Call("mod", Gens({TypeId::kDouble, NumberType()}, d));
      case 4: {
        const char* name = rng_.Chance(50) ? "power" : "pow";
        return Call(name, Gens({NumberType(), NumberType()}, d));
      }
      case 5: {
        std::vector<BoundExprPtr> args = Gens({TypeId::kDouble}, d);
        for (int64_t i = rng_.Range(0, 2); i > 0; --i) {
          args.push_back(Gen(NumberType(), d));
        }
        return Call(rng_.Chance(50) ? "least" : "greatest", std::move(args));
      }
      case 6:
        return Call("coalesce", Gens({NumberType(), TypeId::kDouble}, d));
      default:
        return Call("nullif", Gens({TypeId::kDouble, NumberType()}, d));
    }
  }

  BoundExprPtr GenString(int d) {
    switch (rng_.Range(0, 8)) {
      case 0:
      case 1:
        return Binary(BinaryOp::kConcat, Gens({AnyType(), AnyType()}, d));
      case 2:
        return Case(Branches(TypeId::kString), d);
      case 3:
        return Cast(Gen(AnyType(), d), TypeId::kString);
      case 4: {
        const char* name = rng_.Chance(50) ? "upper" : "lower";
        return Call(name, Gens({AnyType()}, d));
      }
      case 5: {
        // The position arguments read as integers (Value::AsInt64).
        std::vector<BoundExprPtr> args =
            Gens({TypeId::kString, TypeId::kInt64}, d);
        if (rng_.Chance(50)) args.push_back(Gen(TypeId::kInt64, d));
        return Call("substr", std::move(args));
      }
      case 6: {
        std::vector<BoundExprPtr> args;
        for (int64_t i = rng_.Range(0, 3); i > 0; --i) {
          args.push_back(Gen(AnyType(), d));
        }
        return Call("concat", std::move(args));
      }
      case 7:
        return Call("coalesce", Gens({TypeId::kString, TypeId::kString}, d));
      default:
        return Call("nullif", Gens({TypeId::kString, TypeId::kString}, d));
    }
  }

  FuzzRng& rng_;
  const Schema& schema_;
};

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == TypeId::kDouble) {
    double x = a.double_value();
    double y = b.double_value();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.Equals(b);
}

std::string Outcome(const Status& st) {
  return st.ok() ? "succeeds" : "fails (" + st.ToString() + ")";
}

/// Checks `e` over `in` against the reference reading rows `rows` of `t`,
/// the same values; "" when both evaluators agree.
std::string CheckRows(const BoundExpr& e, const EvalInput& in, const Table& t,
                      RowSet rows) {
  std::vector<Value> want;
  Status ref;
  for (size_t i = 0; i < rows.size && ref.ok(); ++i) {
    Result<Value> v = EvaluateExpr(e, t, rows.RowAt(i));
    if (v.ok()) {
      want.push_back(std::move(v).value());
    } else {
      ref = v.status();
    }
  }
  const CompiledExpr compiled(e);
  Result<ColumnVectorPtr> got = compiled.Evaluate(in);
  if (got.ok() != ref.ok()) {
    return "evaluation: row-wise " + Outcome(ref) + ", vectorized " +
           Outcome(got.status());
  }
  if (ref.ok()) {
    for (size_t i = 0; i < rows.size; ++i) {
      Value g = (*got)->GetValue(i);
      if (!SameValue(g, want[i])) {
        return StringPrintf("row %zu: row-wise %s, vectorized %s", i,
                            want[i].ToString().c_str(),
                            g.ToString().c_str());
      }
    }
  }
  if (e.type != TypeId::kBool && e.type != TypeId::kNull) return "";
  std::vector<uint32_t> pass;
  Status fs = compiled.Filter(in, &pass);
  if (fs.ok() != ref.ok()) {
    return "filter: row-wise " + Outcome(ref) + ", vectorized " + Outcome(fs);
  }
  if (!ref.ok()) return "";
  std::vector<uint32_t> expected;
  for (size_t i = 0; i < rows.size; ++i) {
    if (!want[i].is_null() && want[i].bool_value()) {
      expected.push_back(static_cast<uint32_t>(i));
    }
  }
  if (pass != expected) {
    return StringPrintf("filter keeps %zu rows, row-wise %zu", pass.size(),
                        expected.size());
  }
  return "";
}

}  // namespace

TablePtr RandomExprTable(FuzzRng* rng, size_t rows) {
  Schema s;
  s.AddColumn("i1", TypeId::kInt64);
  s.AddColumn("i2", TypeId::kInt64);
  s.AddColumn("d1", TypeId::kDouble);
  s.AddColumn("d2", TypeId::kDouble);
  s.AddColumn("s1", TypeId::kString);
  s.AddColumn("s2", TypeId::kString);
  s.AddColumn("b1", TypeId::kBool);
  TablePtr t = Table::Make(s);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < s.num_columns(); ++c) {
      row.push_back(rng->Chance(15) ? Value::Null(s.column(c).type)
                                    : RandomValue(rng, s.column(c).type));
    }
    t->AppendRow(row);
  }
  return t;
}

BoundExprPtr RandomExpr(FuzzRng* rng, const Schema& schema, TypeId type,
                        int depth) {
  return ExprGen(rng, schema).Gen(type, depth);
}

std::string CheckExprOracle(const Table& table, uint64_t seed, int trees) {
  FuzzRng rng(seed);
  const size_t n = table.num_rows();
  for (int k = 0; k < trees; ++k) {
    TypeId type = kValueTypes[rng.Range(0, 3)];
    if (rng.Chance(50)) type = TypeId::kBool;
    BoundExprPtr e = RandomExpr(&rng, table.schema(), type,
                                static_cast<int>(rng.Range(1, 4)));
    // The whole table, a window and a random selection.
    const size_t begin = n == 0 ? 0 : static_cast<size_t>(rng.Range(0, n - 1));
    const size_t count =
        n == 0 ? 0 : static_cast<size_t>(rng.Range(0, n - begin));
    std::vector<uint32_t> sel;
    for (size_t r = 0; r < n; ++r) {
      if (rng.Chance(40)) sel.push_back(static_cast<uint32_t>(r));
    }
    const std::pair<const char*, RowSet> sets[] = {
        {"all rows", RowSet::Window(0, n)},
        {"window", RowSet::Window(begin, count)},
        {"selection", RowSet::Of(sel)}};
    for (const auto& [label, rows] : sets) {
      std::string diff = CheckRows(*e, EvalInput(table, rows), table, rows);
      if (!diff.empty()) {
        return StringPrintf("expression %s over %s (%zu rows): %s",
                            e->ToString().c_str(), label, rows.size,
                            diff.c_str());
      }
    }
    // Views: each column read through a row-id list of its own, as a
    // chunk's columns from different probe sources are, with kNoMatch
    // (a LEFT probe's padding) reading as NULL. The reference reads the
    // same values from a table gathered row by row.
    const size_t m = static_cast<size_t>(rng.Range(0, 2 * n + 2));
    std::vector<std::vector<uint32_t>> lists(table.num_columns());
    std::vector<ColumnRead> reads;
    std::vector<ColumnVectorPtr> gathered;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      for (size_t i = 0; i < m; ++i) {
        lists[c].push_back(n == 0 || rng.Chance(20)
                               ? kNoMatch
                               : static_cast<uint32_t>(rng.Range(0, n - 1)));
      }
      reads.push_back(ColumnRead{table.column_ptr(c),
                                 RowSet::Of(lists[c], /*padded=*/true)});
      auto col = std::make_shared<ColumnVector>(table.column(c).type());
      for (uint32_t r : lists[c]) {
        r == kNoMatch ? col->AppendNull() : col->AppendFrom(table.column(c), r);
      }
      gathered.push_back(std::move(col));
    }
    const TablePtr flat = Table::FromColumns(table.schema(), gathered);
    std::string diff = CheckRows(*e, EvalInput(std::move(reads), m), *flat,
                                 RowSet::Window(0, m));
    if (!diff.empty()) {
      return StringPrintf("expression %s over views (%zu rows): %s",
                          e->ToString().c_str(), m, diff.c_str());
    }
  }
  return "";
}

std::string CheckExprOracleOnCase(const FuzzCase& c, int trees) {
  FuzzRng rng(c.case_seed * 0xd1b54a32d192ed03ULL + 0x5851f42d4c957f2dULL);
  graph::EdgeList g = graph::Generate(c.graph);
  const TablePtr tables[] = {
      graph::BuildEdgesTable(g),
      graph::BuildVertexStatusTable(g.num_nodes, c.status_fraction,
                                    c.status_seed),
      RandomExprTable(&rng, static_cast<size_t>(rng.Range(0, 80)))};
  for (const TablePtr& t : tables) {
    std::string diff = CheckExprOracle(*t, rng.Fork(), trees);
    if (!diff.empty()) return diff;
  }
  return "";
}

}  // namespace fuzz
}  // namespace dbspinner
