#include "expr/vector_eval.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/string_util.h"
#include "expr/scalar_functions.h"

namespace dbspinner {

namespace {

/// Evaluations split their rows into batches of at most this many, so the
/// per-node buffers stay small and cache resident.
constexpr size_t kBatch = 1024;

const uint8_t kNullFlag = 1;

bool IsNumber(TypeId t) { return t == TypeId::kInt64 || t == TypeId::kDouble; }

bool IsArithmetic(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv || op == BinaryOp::kMod;
}

}  // namespace

struct CompiledExpr::Node {
  const BoundExpr* expr = nullptr;
  TypeId type = TypeId::kNull;  ///< the type of every value it yields
  std::vector<uint32_t> kids;
  // kConstant, as stored values (BOOL as 0/1 in `ci`).
  uint8_t null_flag = 1;
  int64_t ci = 0;
  double cd = 0;
  std::string cs;
};

namespace {

using Node = CompiledExpr::Node;

/// A thread's working memory for evaluation: one batch-sized buffer per
/// node and the filter's position lists.
struct EvalScratch {
  /// One node's output and its position lists.
  struct Buf {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    std::vector<uint8_t> nulls;
    std::vector<uint32_t> pos[3];
    std::vector<uint8_t> marks;
  };
  std::vector<Buf> bufs;
  std::vector<uint32_t> alive[2];  ///< filter survivors, by position
  std::vector<uint8_t> not_true;   ///< filter: a conjunct was NULL here
  std::vector<Value> args;         ///< one boxed function call's arguments
};
using Buf = EvalScratch::Buf;

/// The calling thread's scratch, sized for `nodes` nodes. No evaluation
/// starts while another runs on the same thread.
EvalScratch& ThreadScratch(size_t nodes) {
  thread_local EvalScratch scratch;
  if (scratch.bufs.size() < nodes) scratch.bufs.resize(nodes);
  return scratch;
}

/// One node's values by batch position. A constant reads slot 0 at every
/// position (mask 0); everything else reads slot p (mask ~0).
struct Vec {
  TypeId type = TypeId::kNull;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const std::string* strings = nullptr;
  const uint8_t* nulls = &kNullFlag;
  uint32_t mask = 0;

  bool IsNull(uint32_t p) const { return nulls[p & mask] != 0; }
  int64_t Int(uint32_t p) const { return ints[p & mask]; }
  double Dbl(uint32_t p) const { return doubles[p & mask]; }
  const std::string& Str(uint32_t p) const { return strings[p & mask]; }
  bool True(uint32_t p) const { return !IsNull(p) && Int(p) != 0; }
};

/// The batch positions a node runs on: [0, n) when `pos` is null, else
/// pos[0, n) (increasing).
struct Active {
  const uint32_t* pos = nullptr;
  uint32_t n = 0;
};

template <typename F>
inline void ForEach(const Active& a, F&& f) {
  if (a.pos == nullptr) {
    for (uint32_t p = 0; p < a.n; ++p) f(p);
  } else {
    for (uint32_t k = 0; k < a.n; ++k) f(a.pos[k]);
  }
}

/// Calls f(p) for each position where neither operand is NULL, and marks
/// the others NULL in `nulls`.
template <typename F>
inline void ForEachNonNull(const Vec& l, const Vec& r, const Active& a,
                           uint8_t* nulls, F&& f) {
  ForEach(a, [&](uint32_t p) {
    if (l.IsNull(p) || r.IsNull(p)) {
      nulls[p] = 1;
      return;
    }
    nulls[p] = 0;
    f(p);
  });
}

uint32_t* Positions(std::vector<uint32_t>* v, size_t n) {
  if (v->size() < n) v->resize(n);
  return v->data();
}

/// Sizes `b` for n values of type t.
void Prepare(Buf* b, TypeId t, size_t n) {
  if (b->nulls.size() < n) b->nulls.resize(n);
  switch (t) {
    case TypeId::kBool:
    case TypeId::kInt64:
      if (b->ints.size() < n) b->ints.resize(n);
      break;
    case TypeId::kDouble:
      if (b->doubles.size() < n) b->doubles.resize(n);
      break;
    case TypeId::kString:
      if (b->strings.size() < n) b->strings.resize(n);
      break;
    case TypeId::kNull:
      break;
  }
}

Vec View(const Buf& b, TypeId t) {
  Vec v;
  v.type = t;
  v.ints = b.ints.data();
  v.doubles = b.doubles.data();
  v.strings = b.strings.data();
  v.nulls = b.nulls.data();
  v.mask = ~0u;
  return v;
}

/// Column `col` read at rows offset, offset + 1, ... (mask ~0), or at row
/// `offset` for every position (mask 0).
Vec ColumnView(const ColumnVector& col, uint32_t offset, uint32_t mask) {
  Vec v;
  v.type = col.type();
  v.nulls = col.nulls().data() + offset;
  v.mask = mask;
  switch (col.type()) {
    case TypeId::kBool:
    case TypeId::kInt64:
      v.ints = col.ints().data() + offset;
      break;
    case TypeId::kDouble:
      v.doubles = col.doubles().data() + offset;
      break;
    case TypeId::kString:
      v.strings = col.strings().data() + offset;
      break;
    case TypeId::kNull:
      v.nulls = &kNullFlag;
      v.mask = 0;
      break;
  }
  return v;
}

// Operand getters: one operand at a position, in the type a kernel
// computes in.
struct IntOf {
  const Vec* v;
  int64_t operator()(uint32_t p) const { return v->Int(p); }
};
struct DoubleOf {
  const Vec* v;
  double operator()(uint32_t p) const { return v->Dbl(p); }
};
struct IntAsDouble {
  const Vec* v;
  double operator()(uint32_t p) const { return static_cast<double>(v->Int(p)); }
};
struct StringOf {
  const Vec* v;
  const std::string& operator()(uint32_t p) const { return v->Str(p); }
};

/// Calls fn(getter) reading `v` (INT64 or DOUBLE) as doubles, as
/// Value::AsDouble widens.
template <typename Fn>
void AsDoubles(const Vec& v, Fn&& fn) {
  if (v.type == TypeId::kInt64) {
    fn(IntAsDouble{&v});
  } else {
    fn(DoubleOf{&v});
  }
}

/// Calls fn(gl, gr) with getters comparing l and r as Value::Compare and
/// Value::Equals do: as integers when both are INT64 or both BOOL, as
/// doubles when both are numeric otherwise, as strings when both are
/// STRING. Returns false, without a call, for a pair of other types.
template <typename Fn>
bool WithComparable(const Vec& l, const Vec& r, Fn&& fn) {
  if ((l.type == TypeId::kInt64 && r.type == TypeId::kInt64) ||
      (l.type == TypeId::kBool && r.type == TypeId::kBool)) {
    fn(IntOf{&l}, IntOf{&r});
    return true;
  }
  if (IsNumber(l.type) && IsNumber(r.type)) {
    AsDoubles(l, [&](auto gl) { AsDoubles(r, [&](auto gr) { fn(gl, gr); }); });
    return true;
  }
  if (l.type == TypeId::kString && r.type == TypeId::kString) {
    fn(StringOf{&l}, StringOf{&r});
    return true;
  }
  return false;
}

/// Value::Compare of two non-NULL values of types that WithComparable
/// rejects: they order by type id.
int CompareHeterogeneous(TypeId l, TypeId r) {
  return static_cast<int>(l) < static_cast<int>(r) ? -1 : 1;
}

// The comparison operators over two values of one type: `=` and `<>` are
// Value::Equals (IEEE for doubles), the orderings follow CompareScalars.
struct CmpEq {
  template <typename A>
  bool operator()(const A& a, const A& b) const { return a == b; }
  static bool FromSign(int c) { return c == 0; }
};
struct CmpNe {
  template <typename A>
  bool operator()(const A& a, const A& b) const { return a != b; }
  static bool FromSign(int c) { return c != 0; }
};
struct CmpLt {
  template <typename A>
  bool operator()(const A& a, const A& b) const {
    return CompareScalars(a, b) < 0;
  }
  static bool FromSign(int c) { return c < 0; }
};
struct CmpLe {
  template <typename A>
  bool operator()(const A& a, const A& b) const {
    return CompareScalars(a, b) <= 0;
  }
  static bool FromSign(int c) { return c <= 0; }
};
struct CmpGt {
  template <typename A>
  bool operator()(const A& a, const A& b) const {
    return CompareScalars(a, b) > 0;
  }
  static bool FromSign(int c) { return c > 0; }
};
struct CmpGe {
  template <typename A>
  bool operator()(const A& a, const A& b) const {
    return CompareScalars(a, b) >= 0;
  }
  static bool FromSign(int c) { return c >= 0; }
};

template <typename Fn>
void WithCmp(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq: fn(CmpEq{}); return;
    case BinaryOp::kNe: fn(CmpNe{}); return;
    case BinaryOp::kLt: fn(CmpLt{}); return;
    case BinaryOp::kLe: fn(CmpLe{}); return;
    case BinaryOp::kGt: fn(CmpGt{}); return;
    default: fn(CmpGe{}); return;
  }
}

/// Appends the display form of non-NULL value p of `v`, as
/// Value::ToString writes it.
void AppendText(const Vec& v, uint32_t p, std::string* out) {
  switch (v.type) {
    case TypeId::kBool:
      *out += v.Int(p) != 0 ? "true" : "false";
      return;
    case TypeId::kInt64:
      *out += std::to_string(v.Int(p));
      return;
    case TypeId::kDouble:
      *out += FormatDouble(v.Dbl(p));
      return;
    case TypeId::kString:
      *out += v.Str(p);
      return;
    case TypeId::kNull:
      *out += "NULL";
      return;
  }
}

/// Value p of `v` boxed.
Value ValueAt(const Vec& v, uint32_t p) {
  if (v.IsNull(p)) return Value::Null(v.type);
  switch (v.type) {
    case TypeId::kBool:
      return Value::Bool(v.Int(p) != 0);
    case TypeId::kInt64:
      return Value::Int64(v.Int(p));
    case TypeId::kDouble:
      return Value::Double(v.Dbl(p));
    case TypeId::kString:
      return Value::String(v.Str(p));
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

/// Stores `v` (NULL or of type t) at position p of `b`.
void StoreValue(const Value& v, TypeId t, uint32_t p, Buf* b) {
  if (v.is_null() || t == TypeId::kNull) {
    b->nulls[p] = 1;
    return;
  }
  b->nulls[p] = 0;
  switch (t) {
    case TypeId::kBool:
      b->ints[p] = v.bool_value() ? 1 : 0;
      return;
    case TypeId::kInt64:
      b->ints[p] = v.int64_value();
      return;
    case TypeId::kDouble:
      b->doubles[p] = v.double_value();
      return;
    case TypeId::kString:
      b->strings[p] = v.string_value();
      return;
    case TypeId::kNull:
      return;
  }
}

/// Converts the values of `v` at the active positions to type `to` into
/// `b` (prepared for `to`), exactly as Value::CastTo converts each one.
Status StoreCast(const Vec& v, TypeId to, const Active& a, Buf* b) {
  uint8_t* nl = b->nulls.data();
  const TypeId from = v.type;
  if (from == TypeId::kNull) {
    ForEach(a, [&](uint32_t p) { nl[p] = 1; });
    return Status::OK();
  }
  std::string bad;  // the first value that does not convert
  bool failed = false;
  // Calls conv(p) on each non-NULL position; conv returns false when the
  // value does not convert.
  auto each = [&](auto&& conv) {
    ForEach(a, [&](uint32_t p) {
      nl[p] = v.IsNull(p);
      if (nl[p] == 0 && !conv(p) && !failed) {
        failed = true;
        bad.clear();
        AppendText(v, p, &bad);
      }
    });
  };
  int64_t* oi = b->ints.data();
  double* od = b->doubles.data();
  std::string* os = b->strings.data();
  switch (to) {
    case TypeId::kBool:
      switch (from) {
        case TypeId::kBool:
        case TypeId::kInt64:
          each([&](uint32_t p) {
            oi[p] = v.Int(p) != 0;
            return true;
          });
          break;
        case TypeId::kDouble:
          each([&](uint32_t p) {
            oi[p] = v.Dbl(p) != 0;
            return true;
          });
          break;
        default:
          each([&](uint32_t p) {
            bool x = false;
            bool ok = ParseBool(v.Str(p), &x);
            oi[p] = x;
            return ok;
          });
          if (failed) {
            return Status::TypeError("cannot cast '" + bad + "' to BOOLEAN");
          }
          break;
      }
      return Status::OK();
    case TypeId::kInt64:
      switch (from) {
        case TypeId::kBool:
        case TypeId::kInt64:
          each([&](uint32_t p) {
            oi[p] = v.Int(p);
            return true;
          });
          break;
        case TypeId::kDouble:
          each([&](uint32_t p) {
            oi[p] = static_cast<int64_t>(std::llround(v.Dbl(p)));
            return true;
          });
          break;
        default:
          each([&](uint32_t p) { return ParseInt64(v.Str(p), &oi[p]); });
          if (failed) {
            return Status::TypeError("cannot cast '" + bad + "' to BIGINT");
          }
          break;
      }
      return Status::OK();
    case TypeId::kDouble:
      switch (from) {
        case TypeId::kBool:
        case TypeId::kInt64:
          each([&](uint32_t p) {
            od[p] = static_cast<double>(v.Int(p));
            return true;
          });
          break;
        case TypeId::kDouble:
          each([&](uint32_t p) {
            od[p] = v.Dbl(p);
            return true;
          });
          break;
        default:
          each([&](uint32_t p) { return ParseDouble(v.Str(p), &od[p]); });
          if (failed) {
            return Status::TypeError("cannot cast '" + bad + "' to DOUBLE");
          }
          break;
      }
      return Status::OK();
    case TypeId::kString:
      each([&](uint32_t p) {
        os[p].clear();
        AppendText(v, p, &os[p]);
        return true;
      });
      return Status::OK();
    case TypeId::kNull:
      each([](uint32_t) { return false; });
      if (failed) {
        return Status::TypeError(std::string("unsupported cast from ") +
                                 TypeName(from) + " to " +
                                 TypeName(TypeId::kNull));
      }
      return Status::OK();
  }
  return Status::Internal("unhandled cast target");
}

/// One evaluation of a compiled tree over one batch of rows.
class Evaluation {
 public:
  /// Evaluates rows [off, off + n) of `in`.
  Evaluation(const std::vector<Node>& nodes, const EvalInput& in, size_t off,
             size_t n, EvalScratch* s)
      : nodes_(nodes), in_(in), off_(off), n_(n), s_(s) {}

  /// Evaluates node `id` at the active positions into *out.
  Status Eval(uint32_t id, const Active& a, Vec* out);

  /// Rows that went through a boxed ScalarFunction::eval.
  int64_t boxed_rows() const { return boxed_rows_; }

 private:
  size_t n() const { return n_; }
  Buf& BufOf(uint32_t id) { return s_->bufs[id]; }

  Status EvalColumn(uint32_t id, const Active& a, Vec* out);
  Status EvalOperator(uint32_t id, const Active& a, Vec* out);
  Status EvalLogic(uint32_t id, const Active& a, Vec* out);
  Status EvalArithmetic(uint32_t id, const Vec& l, const Vec& r,
                        const Active& a, Vec* out);
  Status EvalUnary(uint32_t id, const Active& a, Vec* out);
  Status EvalFunction(uint32_t id, const Active& a, Vec* out);
  Status EvalCase(uint32_t id, const Active& a, Vec* out);
  Status EvalIn(uint32_t id, const Active& a, Vec* out);
  Status EvalBetween(uint32_t id, const Active& a, Vec* out);
  Status EvalLike(uint32_t id, const Active& a, Vec* out);

  const std::vector<Node>& nodes_;
  const EvalInput& in_;
  size_t off_;
  size_t n_;
  EvalScratch* s_;
  int64_t boxed_rows_ = 0;
};

Status Evaluation::Eval(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  switch (node.expr->kind) {
    case BoundExprKind::kConstant:
      out->type = node.type;
      out->ints = &node.ci;
      out->doubles = &node.cd;
      out->strings = &node.cs;
      out->nulls = &node.null_flag;
      out->mask = 0;
      return Status::OK();
    case BoundExprKind::kColumnRef:
      return EvalColumn(id, a, out);
    case BoundExprKind::kBinaryOp:
      return EvalOperator(id, a, out);
    case BoundExprKind::kUnaryOp:
      return EvalUnary(id, a, out);
    case BoundExprKind::kFunctionCall:
      return EvalFunction(id, a, out);
    case BoundExprKind::kCase:
      return EvalCase(id, a, out);
    case BoundExprKind::kCast: {
      Vec v;
      DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &v));
      if (v.type == node.type) {
        *out = v;
        return Status::OK();
      }
      Buf& b = BufOf(id);
      Prepare(&b, node.type, n());
      DBSP_RETURN_NOT_OK(StoreCast(v, node.type, a, &b));
      *out = View(b, node.type);
      return Status::OK();
    }
    case BoundExprKind::kIsNull: {
      Vec v;
      DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &v));
      Buf& b = BufOf(id);
      Prepare(&b, TypeId::kBool, n());
      const bool negated = node.expr->negated;
      ForEach(a, [&](uint32_t p) {
        b.nulls[p] = 0;
        b.ints[p] = v.IsNull(p) != negated;
      });
      *out = View(b, TypeId::kBool);
      return Status::OK();
    }
    case BoundExprKind::kIn:
      return EvalIn(id, a, out);
    case BoundExprKind::kBetween:
      return EvalBetween(id, a, out);
    case BoundExprKind::kLike:
      return EvalLike(id, a, out);
  }
  return Status::Internal("unhandled expression kind");
}

/// Gathers the active positions of `rows` from `col` into `b`; with
/// kPadded, a row id of kNoMatch reads as NULL.
template <bool kPadded>
void GatherRows(const ColumnVector& col, const uint32_t* sel, const Active& a,
                Buf* b) {
  const uint8_t* nulls = col.nulls().data();
  auto gather = [&](auto* out, const auto* src) {
    ForEach(a, [&](uint32_t p) {
      const uint32_t r = sel[p];
      if (kPadded && r == kNoMatch) {
        b->nulls[p] = 1;
        return;
      }
      b->nulls[p] = nulls[r];
      out[p] = src[r];
    });
  };
  switch (col.type()) {
    case TypeId::kBool:
    case TypeId::kInt64:
      gather(b->ints.data(), col.ints().data());
      break;
    case TypeId::kDouble:
      gather(b->doubles.data(), col.doubles().data());
      break;
    case TypeId::kString:
      ForEach(a, [&](uint32_t p) {
        const uint32_t r = sel[p];
        b->nulls[p] = (kPadded && r == kNoMatch) ? 1 : nulls[r];
        if (!b->nulls[p]) b->strings[p] = col.strings()[r];
      });
      break;
    case TypeId::kNull:
      ForEach(a, [&](uint32_t p) { b->nulls[p] = 1; });
      break;
  }
}

Status Evaluation::EvalColumn(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  const size_t c = node.expr->column_index;
  const size_t np = in_.pinned != nullptr ? in_.pinned->num_columns() : 0;
  Buf& b = BufOf(id);
  Vec raw;
  if (c < np) {
    raw = ColumnView(in_.pinned->column(c), in_.pinned_row, 0);
  } else {
    // The column read through its own rows: in place over a window, else
    // the active rows of its list gathered.
    const ColumnRead& read = in_.columns[c - np];
    const ColumnVector& col = *read.data;
    if (read.rows.sel == nullptr) {
      raw = ColumnView(col, read.rows.begin + static_cast<uint32_t>(off_),
                       ~0u);
    } else {
      Prepare(&b, col.type(), n());
      const uint32_t* sel = read.rows.sel + off_;
      if (read.rows.padded) {
        GatherRows<true>(col, sel, a, &b);
      } else {
        GatherRows<false>(col, sel, a, &b);
      }
      raw = View(b, col.type());
    }
  }
  if (raw.type == node.type) {
    *out = raw;
    return Status::OK();
  }
  // A column whose type differs from the reference's reads as the
  // reference's type, converted as the row-wise evaluator converts it.
  // (Converting in place is safe: each position is read before written.)
  Prepare(&b, node.type, n());
  DBSP_RETURN_NOT_OK(StoreCast(raw, node.type, a, &b));
  *out = View(b, node.type);
  return Status::OK();
}

Status Evaluation::EvalLogic(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  const bool is_and = node.expr->binary_op == BinaryOp::kAnd;
  Vec l;
  DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &l));
  Buf& b = BufOf(id);
  Prepare(&b, TypeId::kBool, n());
  // A side decides the result where it is FALSE (AND) or TRUE (OR); the
  // right side runs only where the left does not.
  auto decides = [is_and](const Vec& v, uint32_t p) {
    return !v.IsNull(p) && (v.Int(p) != 0) != is_and;
  };
  uint32_t* sub = Positions(&b.pos[0], n());
  uint32_t m = 0;
  ForEach(a, [&](uint32_t p) {
    if (!decides(l, p)) sub[m++] = p;
  });
  Vec r;
  if (m > 0) {
    DBSP_RETURN_NOT_OK(
        Eval(node.kids[1], m == a.n ? a : Active{sub, m}, &r));
  }
  ForEach(a, [&](uint32_t p) {
    if (decides(l, p) || decides(r, p)) {
      b.nulls[p] = 0;
      b.ints[p] = !is_and;
    } else if (l.IsNull(p) || r.IsNull(p)) {
      b.nulls[p] = 1;
    } else {
      b.nulls[p] = 0;
      b.ints[p] = is_and;
    }
  });
  *out = View(b, TypeId::kBool);
  return Status::OK();
}

Status Evaluation::EvalOperator(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  const BinaryOp op = node.expr->binary_op;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) return EvalLogic(id, a, out);
  Vec l, r;
  DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &l));
  DBSP_RETURN_NOT_OK(Eval(node.kids[1], a, &r));
  if (IsArithmetic(op)) return EvalArithmetic(id, l, r, a, out);
  Buf& b = BufOf(id);
  Prepare(&b, node.type, n());
  uint8_t* nl = b.nulls.data();
  if (op == BinaryOp::kConcat) {
    ForEachNonNull(l, r, a, nl, [&](uint32_t p) {
      std::string& s = b.strings[p];
      s.clear();
      AppendText(l, p, &s);
      AppendText(r, p, &s);
    });
    *out = View(b, node.type);
    return Status::OK();
  }
  int64_t* o = b.ints.data();
  WithCmp(op, [&](auto cmp) {
    const bool typed = WithComparable(l, r, [&](auto gl, auto gr) {
      ForEachNonNull(l, r, a, nl,
                     [&](uint32_t p) { o[p] = cmp(gl(p), gr(p)); });
    });
    if (!typed) {
      // Values of unrelated types: never equal, ordered by type id.
      const bool holds = op == BinaryOp::kEq   ? false
                         : op == BinaryOp::kNe ? true
                                               : decltype(cmp)::FromSign(
                                                     CompareHeterogeneous(
                                                         l.type, r.type));
      ForEachNonNull(l, r, a, nl, [&](uint32_t p) { o[p] = holds; });
    }
  });
  *out = View(b, TypeId::kBool);
  return Status::OK();
}

Status Evaluation::EvalArithmetic(uint32_t id, const Vec& l, const Vec& r,
                                  const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  const BinaryOp op = node.expr->binary_op;
  Buf& b = BufOf(id);
  Prepare(&b, node.type, n());
  uint8_t* nl = b.nulls.data();
  *out = View(b, node.type);
  const char* err = nullptr;
  // Records the first failure; the failing row's value is 0.
  auto fail = [&err](const char* what) {
    if (err == nullptr) err = what;
    return 0;
  };
  if (node.type == TypeId::kInt64 && l.type == TypeId::kInt64 &&
      r.type == TypeId::kInt64) {
    int64_t* o = b.ints.data();
    auto each = [&](auto&& f) {
      ForEachNonNull(l, r, a, nl,
                     [&](uint32_t p) { o[p] = f(l.Int(p), r.Int(p)); });
    };
    switch (op) {
      case BinaryOp::kAdd:
        each([&](int64_t x, int64_t y) {
          int64_t v = 0;
          if (__builtin_add_overflow(x, y, &v)) fail("integer overflow");
          return v;
        });
        break;
      case BinaryOp::kSub:
        each([&](int64_t x, int64_t y) {
          int64_t v = 0;
          if (__builtin_sub_overflow(x, y, &v)) fail("integer overflow");
          return v;
        });
        break;
      case BinaryOp::kMul:
        each([&](int64_t x, int64_t y) {
          int64_t v = 0;
          if (__builtin_mul_overflow(x, y, &v)) fail("integer overflow");
          return v;
        });
        break;
      case BinaryOp::kDiv:
        each([&](int64_t x, int64_t y) -> int64_t {
          if (y == 0) return fail("division by zero");
          // INT64_MIN / -1 is the one quotient that does not fit.
          if (y == -1 && x == std::numeric_limits<int64_t>::min()) {
            return fail("integer overflow");
          }
          return x / y;
        });
        break;
      default:  // kMod
        each([&](int64_t x, int64_t y) -> int64_t {
          if (y == 0) return fail("modulo by zero");
          return y == -1 ? 0 : x % y;
        });
        break;
    }
  } else if (node.type == TypeId::kDouble && IsNumber(l.type) &&
             IsNumber(r.type)) {
    double* o = b.doubles.data();
    AsDoubles(l, [&](auto gl) {
      AsDoubles(r, [&](auto gr) {
        auto each = [&](auto&& f) {
          ForEachNonNull(l, r, a, nl,
                         [&](uint32_t p) { o[p] = f(gl(p), gr(p)); });
        };
        switch (op) {
          case BinaryOp::kAdd:
            each([](double x, double y) { return x + y; });
            break;
          case BinaryOp::kSub:
            each([](double x, double y) { return x - y; });
            break;
          case BinaryOp::kMul:
            each([](double x, double y) { return x * y; });
            break;
          case BinaryOp::kDiv:
            each([&](double x, double y) -> double {
              if (y == 0) return fail("division by zero");
              return x / y;
            });
            break;
          default:  // kMod
            each([&](double x, double y) -> double {
              if (y == 0) return fail("modulo by zero");
              return std::fmod(x, y);
            });
            break;
        }
      });
    });
  } else {
    // An operand of NULL type: every result is NULL.
    ForEach(a, [&](uint32_t p) { nl[p] = 1; });
  }
  if (err != nullptr) return Status::ExecutionError(err);
  return Status::OK();
}

Status Evaluation::EvalUnary(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  Vec v;
  DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &v));
  Buf& b = BufOf(id);
  Prepare(&b, node.type, n());
  uint8_t* nl = b.nulls.data();
  *out = View(b, node.type);
  auto each = [&](auto&& f) {
    ForEach(a, [&](uint32_t p) {
      nl[p] = v.IsNull(p);
      if (nl[p] == 0) f(p);
    });
  };
  if (node.expr->unary_op == UnaryOp::kNot) {
    each([&](uint32_t p) { b.ints[p] = v.Int(p) == 0; });
    return Status::OK();
  }
  if (v.type == TypeId::kInt64 && node.type == TypeId::kInt64) {
    bool overflow = false;
    each([&](uint32_t p) {
      const int64_t x = v.Int(p);
      overflow |= x == std::numeric_limits<int64_t>::min();
      b.ints[p] = overflow ? 0 : -x;
    });
    if (overflow) return Status::ExecutionError("integer overflow");
  } else if (v.type == TypeId::kDouble && node.type == TypeId::kDouble) {
    each([&](uint32_t p) { b.doubles[p] = -v.Dbl(p); });
  } else {
    ForEach(a, [&](uint32_t p) { nl[p] = 1; });
  }
  return Status::OK();
}

Status Evaluation::EvalFunction(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  // Every argument runs on every row that reaches the call.
  const size_t nargs = node.kids.size();
  Vec args[4];
  std::vector<Vec> many;
  Vec* av = args;
  if (nargs > 4) {
    many.resize(nargs);
    av = many.data();
  }
  for (size_t k = 0; k < nargs; ++k) {
    DBSP_RETURN_NOT_OK(Eval(node.kids[k], a, &av[k]));
  }
  Buf& b = BufOf(id);
  const TypeId t = node.type;
  Prepare(&b, t, n());
  *out = View(b, t);
  // One boxed call per row on the evaluated arguments.
  std::vector<Value>& vals = s_->args;
  vals.resize(nargs);
  Status st;
  ForEach(a, [&](uint32_t p) {
    if (!st.ok()) return;
    for (size_t k = 0; k < nargs; ++k) vals[k] = ValueAt(av[k], p);
    Result<Value> v = node.expr->function->eval(vals);
    if (!v.ok()) {
      st = v.status();
      return;
    }
    if (!v->is_null() && t != TypeId::kNull && v->type() != t) {
      v = v->CastTo(t);
      if (!v.ok()) {
        st = v.status();
        return;
      }
    }
    StoreValue(*v, t, p, &b);
  });
  boxed_rows_ += a.n;
  return st;
}

Status Evaluation::EvalCase(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  Buf& b = BufOf(id);
  const TypeId t = node.type;
  Prepare(&b, t, n());
  Active rest = a;  // rows no WHEN has matched yet
  const size_t pairs = node.kids.size() / 2;
  for (size_t i = 0; i < pairs && rest.n > 0; ++i) {
    Vec when;
    DBSP_RETURN_NOT_OK(Eval(node.kids[2 * i], rest, &when));
    uint32_t* hit = Positions(&b.pos[1], n());
    uint32_t* miss = Positions(&b.pos[2], n());
    uint32_t h = 0, m = 0;
    ForEach(rest, [&](uint32_t p) {
      if (when.True(p)) {
        hit[h++] = p;
      } else {
        miss[m++] = p;
      }
    });
    if (h > 0) {
      const Active matched{hit, h};
      Vec then;
      DBSP_RETURN_NOT_OK(Eval(node.kids[2 * i + 1], matched, &then));
      DBSP_RETURN_NOT_OK(StoreCast(then, t, matched, &b));
    }
    std::swap(b.pos[0], b.pos[2]);
    rest = Active{b.pos[0].data(), m};
  }
  if (rest.n > 0) {
    if (node.expr->case_has_else) {
      Vec els;
      DBSP_RETURN_NOT_OK(Eval(node.kids.back(), rest, &els));
      DBSP_RETURN_NOT_OK(StoreCast(els, t, rest, &b));
    } else {
      ForEach(rest, [&](uint32_t p) { b.nulls[p] = 1; });
    }
  }
  *out = View(b, t);
  return Status::OK();
}

Status Evaluation::EvalIn(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  Vec v;
  DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &v));
  Buf& b = BufOf(id);
  Prepare(&b, TypeId::kBool, n());
  if (b.marks.size() < n()) b.marks.resize(n());
  const bool negated = node.expr->negated;
  // Rows with a non-NULL operand and no match yet; marks: an item was NULL.
  uint32_t* pending = Positions(&b.pos[0], n());
  uint32_t m = 0;
  ForEach(a, [&](uint32_t p) {
    b.nulls[p] = v.IsNull(p);
    if (b.nulls[p] == 0) {
      pending[m++] = p;
      b.marks[p] = 0;
    }
  });
  for (size_t k = 1; k < node.kids.size() && m > 0; ++k) {
    Vec item;
    DBSP_RETURN_NOT_OK(Eval(node.kids[k], Active{pending, m}, &item));
    uint32_t* next = Positions(&b.pos[1], n());
    uint32_t left = 0;
    const bool typed = WithComparable(v, item, [&](auto gv, auto gi) {
      for (uint32_t j = 0; j < m; ++j) {
        const uint32_t p = pending[j];
        if (item.IsNull(p)) {
          b.marks[p] = 1;
          next[left++] = p;
        } else if (gv(p) == gi(p)) {
          b.ints[p] = !negated;
        } else {
          next[left++] = p;
        }
      }
    });
    if (!typed) {
      // Values of unrelated types never equal.
      for (uint32_t j = 0; j < m; ++j) {
        const uint32_t p = pending[j];
        if (item.IsNull(p)) b.marks[p] = 1;
        next[left++] = p;
      }
    }
    std::swap(b.pos[0], b.pos[1]);
    pending = b.pos[0].data();
    m = left;
  }
  for (uint32_t j = 0; j < m; ++j) {
    const uint32_t p = pending[j];
    b.nulls[p] = b.marks[p];
    b.ints[p] = negated;
  }
  *out = View(b, TypeId::kBool);
  return Status::OK();
}

Status Evaluation::EvalBetween(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  Vec v, lo, hi;
  DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &v));
  DBSP_RETURN_NOT_OK(Eval(node.kids[1], a, &lo));
  DBSP_RETURN_NOT_OK(Eval(node.kids[2], a, &hi));
  Buf& b = BufOf(id);
  Prepare(&b, TypeId::kBool, n());
  ForEach(a, [&](uint32_t p) {
    b.nulls[p] = v.IsNull(p) || lo.IsNull(p) || hi.IsNull(p);
    b.ints[p] = 1;
  });
  // ANDs `v cmp bound` into every non-NULL result.
  auto bound = [&](const Vec& w, auto cmp) {
    const bool typed = WithComparable(v, w, [&](auto gv, auto gw) {
      ForEach(a, [&](uint32_t p) {
        if (b.nulls[p] == 0) b.ints[p] &= cmp(gv(p), gw(p));
      });
    });
    if (!typed) {
      const bool holds =
          decltype(cmp)::FromSign(CompareHeterogeneous(v.type, w.type));
      ForEach(a, [&](uint32_t p) {
        if (b.nulls[p] == 0) b.ints[p] &= holds;
      });
    }
  };
  bound(lo, CmpGe{});
  bound(hi, CmpLe{});
  *out = View(b, TypeId::kBool);
  return Status::OK();
}

Status Evaluation::EvalLike(uint32_t id, const Active& a, Vec* out) {
  const Node& node = nodes_[id];
  Vec v, pat;
  DBSP_RETURN_NOT_OK(Eval(node.kids[0], a, &v));
  DBSP_RETURN_NOT_OK(Eval(node.kids[1], a, &pat));
  Buf& b = BufOf(id);
  Prepare(&b, TypeId::kBool, n());
  const bool negated = node.expr->negated;
  std::string vs, ps;
  ForEachNonNull(v, pat, a, b.nulls.data(), [&](uint32_t p) {
    bool match;
    if (v.type == TypeId::kString && pat.type == TypeId::kString) {
      match = LikeMatch(v.Str(p), pat.Str(p));
    } else {
      vs.clear();
      ps.clear();
      AppendText(v, p, &vs);
      AppendText(pat, p, &ps);
      match = LikeMatch(vs, ps);
    }
    b.ints[p] = match != negated;
  });
  *out = View(b, TypeId::kBool);
  return Status::OK();
}

/// The type of the values the row-wise evaluator yields for `e` whose
/// children yield `kids`. Function results convert to the call's static
/// type, and a column reference reads as its static type.
TypeId ResultType(const BoundExpr& e, const std::vector<TypeId>& kids) {
  switch (e.kind) {
    case BoundExprKind::kConstant:
      return e.constant.is_null() ? e.type : e.constant.type();
    case BoundExprKind::kBinaryOp:
      if (IsArithmetic(e.binary_op)) {
        if (kids[0] == TypeId::kInt64 && kids[1] == TypeId::kInt64) {
          return TypeId::kInt64;
        }
        if (IsNumber(kids[0]) && IsNumber(kids[1])) return TypeId::kDouble;
        return e.type;
      }
      return e.binary_op == BinaryOp::kConcat ? TypeId::kString
                                              : TypeId::kBool;
    case BoundExprKind::kUnaryOp:
      if (e.unary_op == UnaryOp::kNot) return TypeId::kBool;
      return IsNumber(kids[0]) ? kids[0] : e.type;
    case BoundExprKind::kCast:
      return e.cast_type;
    case BoundExprKind::kIsNull:
    case BoundExprKind::kIn:
    case BoundExprKind::kBetween:
    case BoundExprKind::kLike:
      return TypeId::kBool;
    case BoundExprKind::kColumnRef:
    case BoundExprKind::kFunctionCall:
    case BoundExprKind::kCase:
      return e.type;
  }
  return e.type;
}

uint32_t CompileNode(const BoundExpr& e, std::vector<Node>* nodes) {
  const uint32_t id = static_cast<uint32_t>(nodes->size());
  nodes->emplace_back();
  std::vector<uint32_t> kids;
  std::vector<TypeId> kid_types;
  for (const auto& c : e.children) {
    kids.push_back(CompileNode(*c, nodes));
    kid_types.push_back((*nodes)[kids.back()].type);
  }
  Node& node = (*nodes)[id];
  node.expr = &e;
  node.kids = std::move(kids);
  node.type = ResultType(e, kid_types);
  if (e.kind == BoundExprKind::kConstant && !e.constant.is_null()) {
    node.null_flag = 0;
    switch (node.type) {
      case TypeId::kBool:
        node.ci = e.constant.bool_value() ? 1 : 0;
        break;
      case TypeId::kInt64:
        node.ci = e.constant.int64_value();
        break;
      case TypeId::kDouble:
        node.cd = e.constant.double_value();
        break;
      case TypeId::kString:
        node.cs = e.constant.string_value();
        break;
      case TypeId::kNull:
        node.null_flag = 1;
        break;
    }
  }
  return id;
}

void CollectConjuncts(const std::vector<Node>& nodes, uint32_t id,
                      std::vector<uint32_t>* out) {
  const BoundExpr& e = *nodes[id].expr;
  if (e.kind == BoundExprKind::kBinaryOp && e.binary_op == BinaryOp::kAnd) {
    CollectConjuncts(nodes, nodes[id].kids[0], out);
    CollectConjuncts(nodes, nodes[id].kids[1], out);
    return;
  }
  out->push_back(id);
}

/// Appends the n values of `v` to `out` (of v's type).
void AppendVec(const Vec& v, size_t n, ColumnVector* out) {
  if (v.mask != 0) {
    out->AppendRaw(v.ints, v.doubles, v.strings, v.nulls, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out->AppendRaw(v.ints, v.doubles, v.strings, v.nulls, 1);
  }
}

}  // namespace

EvalInput::EvalInput(const Table& table, RowSet rows) : size(rows.size) {
  columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(ColumnRead{table.column_ptr(c), rows});
  }
}

CompiledExpr::CompiledExpr(const BoundExpr& expr) {
  root_ = CompileNode(expr, &nodes_);
  CollectConjuncts(nodes_, root_, &conjuncts_);
}

CompiledExpr::~CompiledExpr() = default;
CompiledExpr::CompiledExpr(CompiledExpr&&) noexcept = default;
CompiledExpr& CompiledExpr::operator=(CompiledExpr&&) noexcept = default;

TypeId CompiledExpr::type() const { return nodes_[root_].type; }

Result<ColumnVectorPtr> CompiledExpr::Evaluate(const EvalInput& in,
                                               int64_t* unboxed_rows) const {
  const Node& root = nodes_[root_];
  const size_t total = in.size;
  const size_t pinned = in.pinned != nullptr ? in.pinned->num_columns() : 0;
  if (root.expr->kind == BoundExprKind::kColumnRef &&
      root.expr->column_index >= pinned) {
    // A plain column: the column itself, or one copy of its rows.
    const ColumnRead& read = in.columns[root.expr->column_index - pinned];
    const ColumnVectorPtr& col = read.data;
    if (col->type() == root.type) {
      if (unboxed_rows != nullptr) *unboxed_rows += static_cast<int64_t>(total);
      if (read.rows.sel == nullptr && read.rows.begin == 0 &&
          total == col->size()) {
        return col;
      }
      auto out = std::make_shared<ColumnVector>(root.type);
      if (read.rows.sel == nullptr) {
        out->AppendRange(*col, read.rows.begin, total);
      } else {
        out->AppendGathered(*col, read.rows.sel, total);
      }
      return out;
    }
  }
  EvalScratch* scratch = &ThreadScratch(nodes_.size());
  auto out = std::make_shared<ColumnVector>(root.type);
  out->Reserve(total);
  for (size_t off = 0; off < total; off += kBatch) {
    const size_t n = std::min(kBatch, total - off);
    Evaluation ev(nodes_, in, off, n, scratch);
    Vec v;
    DBSP_RETURN_NOT_OK(
        ev.Eval(root_, Active{nullptr, static_cast<uint32_t>(n)}, &v));
    AppendVec(v, n, out.get());
    if (unboxed_rows != nullptr) {
      *unboxed_rows +=
          std::max<int64_t>(0, static_cast<int64_t>(n) - ev.boxed_rows());
    }
  }
  return out;
}

Status CompiledExpr::Filter(const EvalInput& in,
                            std::vector<uint32_t>* rows_out,
                            int64_t* unboxed_rows) const {
  EvalScratch* scratch = &ThreadScratch(nodes_.size());
  const size_t total = in.size;
  for (size_t off = 0; off < total; off += kBatch) {
    const size_t n = std::min(kBatch, total - off);
    Evaluation ev(nodes_, in, off, n, scratch);
    if (scratch->not_true.size() < n) scratch->not_true.resize(n);
    uint8_t* not_true = scratch->not_true.data();
    bool any_null = false;
    // alive: positions where no conjunct so far was FALSE.
    int cur = 0;
    Active alive{nullptr, static_cast<uint32_t>(n)};
    for (uint32_t c : conjuncts_) {
      if (alive.n == 0) break;
      uint32_t* next = Positions(&scratch->alive[1 - cur], n);
      uint32_t m = 0;
      const int64_t boxed_before = ev.boxed_rows();
      Vec v;
      DBSP_RETURN_NOT_OK(ev.Eval(c, alive, &v));
      ForEach(alive, [&](uint32_t p) {
        if (v.IsNull(p)) {
          if (!any_null) {
            any_null = true;
            std::fill_n(not_true, n, 0);
          }
          not_true[p] = 1;
          next[m++] = p;
        } else if (v.Int(p) != 0) {
          next[m++] = p;
        }
      });
      if (unboxed_rows != nullptr) {
        const int64_t boxed = ev.boxed_rows() - boxed_before;
        *unboxed_rows +=
            std::max<int64_t>(0, static_cast<int64_t>(alive.n) - boxed);
      }
      cur = 1 - cur;
      alive = Active{scratch->alive[cur].data(), m};
    }
    // The survivors: alive, and TRUE wherever a conjunct ran.
    const uint32_t base = static_cast<uint32_t>(off);
    ForEach(alive, [&](uint32_t p) {
      if (!any_null || not_true[p] == 0) rows_out->push_back(base + p);
    });
  }
  return Status::OK();
}

Result<Value> EvaluateConstant(const BoundExpr& expr) {
  static const TablePtr kNoColumns = Table::Make(Schema());
  DBSP_ASSIGN_OR_RETURN(
      ColumnVectorPtr col,
      CompiledExpr(expr).Evaluate(
          EvalInput(*kNoColumns, RowSet::Window(0, 1))));
  return col->GetValue(0);
}

}  // namespace dbspinner
