#include "expr/scalar_functions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/string_util.h"

namespace dbspinner {

namespace {

Status ArityError(const std::string& name, size_t got, const char* want) {
  return Status::BindError("function " + name + " expects " + want +
                           " argument(s), got " + std::to_string(got));
}

Result<TypeId> InferNumericVariadic(const std::string& name,
                                    const std::vector<TypeId>& args,
                                    size_t min_arity) {
  if (args.size() < min_arity) {
    return ArityError(name, args.size(), ">= required");
  }
  TypeId out = TypeId::kNull;
  for (TypeId t : args) {
    DBSP_ASSIGN_OR_RETURN(out, CommonNumericType(out, t));
  }
  return out;
}

// LEAST / GREATEST: variadic numeric; NULL inputs are ignored (Postgres
// semantics); all-NULL -> NULL.
Value LeastGreatest(const std::vector<Value>& args, bool greatest) {
  Value best = Value::Null();
  for (const Value& v : args) {
    if (v.is_null()) continue;
    if (best.is_null() || (greatest ? v.Compare(best) > 0
                                    : v.Compare(best) < 0)) {
      best = v;
    }
  }
  return best;
}

double Num(const Value& v) { return v.AsDouble(); }

bool AnyNull(const std::vector<Value>& args) {
  for (const Value& v : args) {
    if (v.is_null()) return true;
  }
  return false;
}

const std::unordered_map<std::string, ScalarFunction>& Registry() {
  static const std::unordered_map<std::string, ScalarFunction>* kRegistry = [] {
    auto* m = new std::unordered_map<std::string, ScalarFunction>();
    auto add = [m](ScalarFunction f) { (*m)[f.name] = std::move(f); };

    add({"least",
         [](const std::vector<TypeId>& a) {
           return InferNumericVariadic("least", a, 1);
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           return LeastGreatest(a, /*greatest=*/false);
         }});
    add({"greatest",
         [](const std::vector<TypeId>& a) {
           return InferNumericVariadic("greatest", a, 1);
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           return LeastGreatest(a, /*greatest=*/true);
         }});
    add({"coalesce",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.empty()) return ArityError("coalesce", 0, ">= 1");
           TypeId out = TypeId::kNull;
           for (TypeId t : a) {
             if (out == TypeId::kNull) {
               out = t;
             } else if (t != TypeId::kNull && t != out) {
               if (IsNumeric(out) && IsNumeric(t)) {
                 DBSP_ASSIGN_OR_RETURN(out, CommonNumericType(out, t));
               } else {
                 return Status::TypeError(
                     "coalesce arguments have incompatible types");
               }
             }
           }
           return out;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           for (const Value& v : a) {
             if (!v.is_null()) return v;
           }
           return Value::Null();
         }});
    add({"nullif",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 2) return ArityError("nullif", a.size(), "2");
           return a[0];
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (!a[0].is_null() && !a[1].is_null() && a[0].Equals(a[1])) {
             return Value::Null(a[0].type());
           }
           return a[0];
         }});
    add({"abs",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 1) return ArityError("abs", a.size(), "1");
           return InferNumericVariadic("abs", a, 1);
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null();
           if (a[0].type() == TypeId::kInt64) {
             if (a[0].int64_value() == std::numeric_limits<int64_t>::min()) {
               return Status::ExecutionError("integer overflow");
             }
             return Value::Int64(std::llabs(a[0].int64_value()));
           }
           return Value::Double(std::fabs(Num(a[0])));
         }});

    auto unary_double = [&add](const std::string& name, double (*fn)(double)) {
      add({name,
           [name](const std::vector<TypeId>& a) -> Result<TypeId> {
             if (a.size() != 1) return ArityError(name, a.size(), "1");
             if (!IsNumeric(a[0])) {
               return Status::TypeError(name + " expects a numeric argument");
             }
             return TypeId::kDouble;
           },
           [fn](const std::vector<Value>& a) -> Result<Value> {
             if (AnyNull(a)) return Value::Null(TypeId::kDouble);
             return Value::Double(fn(Num(a[0])));
           }});
    };
    unary_double("ceiling", std::ceil);
    unary_double("ceil", std::ceil);
    unary_double("floor", std::floor);
    unary_double("sqrt", std::sqrt);
    unary_double("exp", std::exp);
    unary_double("ln", std::log);
    unary_double("log", std::log10);

    add({"round",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.empty() || a.size() > 2) {
             return ArityError("round", a.size(), "1 or 2");
           }
           if (!IsNumeric(a[0])) {
             return Status::TypeError("round expects a numeric argument");
           }
           return TypeId::kDouble;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null(TypeId::kDouble);
           double x = Num(a[0]);
           if (a.size() == 2) {
             double scale = std::pow(10.0, static_cast<double>(a[1].AsInt64()));
             return Value::Double(std::round(x * scale) / scale);
           }
           return Value::Double(std::round(x));
         }});
    add({"mod",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 2) return ArityError("mod", a.size(), "2");
           return CommonNumericType(a[0], a[1]);
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null();
           if (a[0].type() == TypeId::kInt64 &&
               a[1].type() == TypeId::kInt64) {
             if (a[1].int64_value() == 0) {
               return Status::ExecutionError("MOD by zero");
             }
             // x % -1 is 0; computing it for INT64_MIN traps.
             if (a[1].int64_value() == -1) return Value::Int64(0);
             return Value::Int64(a[0].int64_value() % a[1].int64_value());
           }
           double d = Num(a[1]);
           if (d == 0) return Status::ExecutionError("MOD by zero");
           return Value::Double(std::fmod(Num(a[0]), d));
         }});

    auto binary_double = [&add](const std::string& name,
                                double (*fn)(double, double)) {
      add({name,
           [name](const std::vector<TypeId>& a) -> Result<TypeId> {
             if (a.size() != 2) return ArityError(name, a.size(), "2");
             if (!IsNumeric(a[0]) || !IsNumeric(a[1])) {
               return Status::TypeError(name + " expects numeric arguments");
             }
             return TypeId::kDouble;
           },
           [fn](const std::vector<Value>& a) -> Result<Value> {
             if (AnyNull(a)) return Value::Null(TypeId::kDouble);
             return Value::Double(fn(Num(a[0]), Num(a[1])));
           }});
    };
    binary_double("power", std::pow);
    binary_double("pow", std::pow);

    add({"sign",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 1) return ArityError("sign", a.size(), "1");
           return TypeId::kInt64;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null(TypeId::kInt64);
           double x = Num(a[0]);
           return Value::Int64(x > 0 ? 1 : (x < 0 ? -1 : 0));
         }});
    add({"length",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 1) return ArityError("length", a.size(), "1");
           return TypeId::kInt64;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null(TypeId::kInt64);
           return Value::Int64(
               static_cast<int64_t>(a[0].ToString().size()));
         }});
    add({"upper",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 1) return ArityError("upper", a.size(), "1");
           return TypeId::kString;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null(TypeId::kString);
           return Value::String(ToUpper(a[0].ToString()));
         }});
    add({"lower",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 1) return ArityError("lower", a.size(), "1");
           return TypeId::kString;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null(TypeId::kString);
           return Value::String(ToLower(a[0].ToString()));
         }});
    add({"substr",
         [](const std::vector<TypeId>& a) -> Result<TypeId> {
           if (a.size() != 2 && a.size() != 3) {
             return ArityError("substr", a.size(), "2 or 3");
           }
           return TypeId::kString;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           if (AnyNull(a)) return Value::Null(TypeId::kString);
           std::string s = a[0].ToString();
           int64_t start = a[1].AsInt64();  // 1-based
           if (start < 1) start = 1;
           if (static_cast<size_t>(start) > s.size()) return Value::String("");
           size_t from = static_cast<size_t>(start - 1);
           size_t len = s.size() - from;
           if (a.size() == 3) {
             int64_t want = a[2].AsInt64();
             if (want < 0) want = 0;
             len = std::min<size_t>(len, static_cast<size_t>(want));
           }
           return Value::String(s.substr(from, len));
         }});
    add({"concat",
         [](const std::vector<TypeId>&) -> Result<TypeId> {
           return TypeId::kString;
         },
         [](const std::vector<Value>& a) -> Result<Value> {
           std::string out;
           for (const Value& v : a) {
             if (!v.is_null()) out += v.ToString();
           }
           return Value::String(out);
         }});
    return m;
  }();
  return *kRegistry;
}

}  // namespace

const ScalarFunction* GetScalarFunction(const std::string& name) {
  const auto& reg = Registry();
  auto it = reg.find(ToLower(name));
  return it == reg.end() ? nullptr : &it->second;
}

bool IsAggregateFunctionName(const std::string& name) {
  std::string n = ToLower(name);
  return n == "count" || n == "sum" || n == "min" || n == "max" ||
         n == "avg" || n == "stddev" || n == "stddev_samp" ||
         n == "variance" || n == "var_samp";
}

std::vector<std::string> ScalarFunctionNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [name, fn] : Registry()) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> AggregateFunctionNames() {
  return {"avg", "count", "max", "min", "stddev", "sum", "variance"};
}

}  // namespace dbspinner
