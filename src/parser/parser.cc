#include "parser/parser.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "parser/lexer.h"

namespace dbspinner {

namespace {

// Reserved words that may not be used as implicit (AS-less) aliases.
const std::unordered_set<std::string>& ReservedWords() {
  static const std::unordered_set<std::string> kReserved = {
      "SELECT", "FROM",   "WHERE",  "GROUP",   "HAVING", "ORDER",  "LIMIT",
      "UNION",  "ALL",    "JOIN",   "LEFT",    "RIGHT",  "INNER",  "OUTER",
      "CROSS",  "ON",     "AS",     "ITERATE", "UNTIL",  "SET",    "VALUES",
      "WITH",   "AND",    "OR",     "NOT",     "CASE",   "WHEN",   "THEN",
      "ELSE",   "END",    "IS",     "NULL",    "IN",     "BETWEEN","DISTINCT",
      "INSERT", "UPDATE", "DELETE", "CREATE",  "DROP",   "EXPLAIN","BY",
      "INTO",   "TABLE",  "PRIMARY", "ASC",    "DESC",   "EXISTS",
      "IF",     "RECURSIVE", "ITERATIVE", "TRUE", "FALSE", "CAST",
      "EXCEPT", "INTERSECT", "OFFSET", "LIKE",
      // KEY / ITERATIONS / UPDATES / DELTA / ANY are contextual keywords
      // (they appear as column names in the paper's queries).
  };
  return kReserved;
}

// Depth of the tree under `root`; `each_child(node, visit)` calls
// visit(child) for each child. The walk keeps its own stack: operator chains
// are built without recursion and must be measured without it too.
template <typename Node, typename EachChild>
size_t TreeDepth(const Node& root, EachChild each_child) {
  size_t deepest = 0;
  std::vector<std::pair<const Node*, size_t>> stack = {{&root, 1}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    deepest = std::max(deepest, depth);
    each_child(*node, [&, d = depth](const Node* c) {
      if (c != nullptr) stack.emplace_back(c, d + 1);
    });
  }
  return deepest;
}

size_t ExprDepth(const ParseExpr& e) {
  return TreeDepth(e, [](const ParseExpr& n, auto visit) {
    for (const ParseExprPtr& c : n.children) visit(c.get());
  });
}

// Counts set operations only: the nesting the set-operation loop builds.
size_t SetOpDepth(const QueryNode& q) {
  return TreeDepth(q, [](const QueryNode& n, auto visit) {
    if (n.kind != QueryNodeKind::kSetOp) return;
    visit(n.left.get());
    visit(n.right.get());
  });
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<StatementPtr>> ParseScriptTop() {
    std::vector<StatementPtr> out;
    while (!AtEnd()) {
      if (MatchSymbol(";")) continue;
      DBSP_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementTop());
      out.push_back(std::move(stmt));
    }
    return out;
  }

  Result<StatementPtr> ParseSingleStatement() {
    DBSP_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementTop());
    MatchSymbol(";");
    if (!AtEnd()) {
      return Err("unexpected " + Peek().Describe() + " after statement");
    }
    return stmt;
  }

  Result<ParseExprPtr> ParseSingleExpression() {
    DBSP_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr_());
    if (!AtEnd()) {
      return Err("unexpected " + Peek().Describe() + " after expression");
    }
    return e;
  }

 private:
  // --- token helpers -------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }
  bool MatchKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Err("expected " + kw + ", found " + Peek().Describe());
  }
  bool PeekSymbol(const std::string& sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool MatchSymbol(const std::string& sym) {
    if (PeekSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (MatchSymbol(sym)) return Status::OK();
    return Err("expected '" + sym + "', found " + Peek().Describe());
  }

  Status Err(const std::string& msg) const {
    const Token& t = Peek();
    return Status::ParseError(msg + " (line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.column) + ")");
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Err(std::string("expected ") + what + ", found " +
                 Peek().Describe());
    }
    return Advance().text;
  }

  bool PeekNonReservedIdentifier() const {
    return Peek().type == TokenType::kIdentifier &&
           !ReservedWords().count(ToUpper(Peek().text));
  }

  // --- nesting limit (kMaxExpressionDepth) ---------------------------------

  // Holds one level of parser recursion (depth_) for its lifetime.
  struct Nest {
    explicit Nest(size_t* depth) : depth(depth) { ++*depth; }
    ~Nest() { --*depth; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    size_t* depth;
  };

  Status TooDeep() const {
    return Err("expression nested deeper than " +
               std::to_string(kMaxExpressionDepth) + " levels");
  }

  // `left` <op> `right` as one node. `*depth` is the depth of `left`, or 0
  // when not yet measured; it becomes the depth of the result. The binary
  // operator loops build chains without recursing, so the limit is
  // enforced here.
  Status Chain(BinaryOp op, ParseExprPtr* left, ParseExprPtr right,
               size_t* depth) {
    if (*depth == 0) *depth = ExprDepth(**left);
    *depth = 1 + std::max(*depth, ExprDepth(*right));
    if (*depth > kMaxExpressionDepth) return TooDeep();
    *left = MakeBinary(op, std::move(*left), std::move(right));
    return Status::OK();
  }

  // --- statements ----------------------------------------------------------

  Result<StatementPtr> ParseStatementTop() {
    if (PeekKeyword("EXPLAIN")) return ParseExplain();
    if (PeekKeyword("SELECT") || PeekKeyword("WITH") || PeekSymbol("(")) {
      return ParseSelectStatement();
    }
    if (PeekKeyword("CREATE")) return ParseCreateTable();
    if (PeekKeyword("INSERT")) return ParseInsert();
    if (PeekKeyword("UPDATE")) return ParseUpdate();
    if (PeekKeyword("DELETE")) return ParseDelete();
    if (PeekKeyword("DROP")) return ParseDropTable();
    if (MatchKeyword("BEGIN")) {
      MatchKeyword("TRANSACTION");
      auto stmt = std::make_unique<Statement>();
      stmt->kind = StatementKind::kBegin;
      return stmt;
    }
    if (MatchKeyword("COMMIT")) {
      auto stmt = std::make_unique<Statement>();
      stmt->kind = StatementKind::kCommit;
      return stmt;
    }
    if (MatchKeyword("ROLLBACK")) {
      auto stmt = std::make_unique<Statement>();
      stmt->kind = StatementKind::kRollback;
      return stmt;
    }
    if (PeekKeyword("COPY")) return ParseCopy();
    if (PeekKeyword("REFRESH")) return ParseRefreshView();
    return Err("expected a statement, found " + Peek().Describe());
  }

  Result<StatementPtr> ParseExplain() {
    Advance();  // EXPLAIN
    bool with_cost = false;
    bool with_analyze = false;
    bool with_verify = false;
    if (MatchSymbol("(")) {
      // EXPLAIN (opt, opt, ...): parenthesized option list.
      do {
        if (MatchKeyword("COST")) {
          with_cost = true;
        } else if (MatchKeyword("ANALYZE")) {
          with_analyze = true;
        } else if (MatchKeyword("VERIFY")) {
          with_verify = true;
        } else {
          return Err("expected an EXPLAIN option (COST, ANALYZE, VERIFY), "
                     "found " +
                     Peek().Describe());
        }
      } while (MatchSymbol(","));
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      // Bare options, in any order.
      for (bool progressed = true; progressed;) {
        progressed = false;
        if (!with_cost && MatchKeyword("COST")) {
          with_cost = progressed = true;
        }
        if (!with_analyze && MatchKeyword("ANALYZE")) {
          with_analyze = progressed = true;
        }
        if (!with_verify && MatchKeyword("VERIFY")) {
          with_verify = progressed = true;
        }
      }
    }
    DBSP_ASSIGN_OR_RETURN(StatementPtr inner, ParseStatementTop());
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kExplain;
    stmt->explained = std::move(inner);
    stmt->explain_cost = with_cost;
    stmt->explain_analyze = with_analyze;
    stmt->explain_verify = with_verify;
    return stmt;
  }

  Result<StatementPtr> ParseSelectStatement() {
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kSelect;
    if (PeekKeyword("WITH")) {
      DBSP_ASSIGN_OR_RETURN(stmt->ctes, ParseWithClause());
    }
    DBSP_ASSIGN_OR_RETURN(stmt->query, ParseQueryExpr());
    return stmt;
  }

  Result<std::vector<CteDef>> ParseWithClause() {
    DBSP_RETURN_NOT_OK(ExpectKeyword("WITH"));
    CteKind default_kind = CteKind::kRegular;
    if (MatchKeyword("RECURSIVE")) {
      default_kind = CteKind::kRecursive;
    } else if (MatchKeyword("ITERATIVE")) {
      default_kind = CteKind::kIterative;
    }
    std::vector<CteDef> defs;
    bool recursive_with = default_kind == CteKind::kRecursive;
    while (true) {
      DBSP_ASSIGN_OR_RETURN(CteDef def, ParseCteDef(default_kind));
      defs.push_back(std::move(def));
      if (!MatchSymbol(",")) break;
      // ITERATIVE marks only the def it precedes; RECURSIVE (as in standard
      // SQL) covers the whole WITH list. A per-CTE marker may re-introduce
      // either kind: `..., ITERATIVE foo AS (...)`.
      default_kind = recursive_with ? CteKind::kRecursive : CteKind::kRegular;
      if (MatchKeyword("ITERATIVE")) {
        default_kind = CteKind::kIterative;
      } else if (MatchKeyword("RECURSIVE")) {
        default_kind = CteKind::kRecursive;
      }
    }
    return defs;
  }

  Result<CteDef> ParseCteDef(CteKind default_kind) {
    CteDef def;
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("CTE name"));
    def.name = ToLower(name);
    if (MatchSymbol("(")) {
      while (true) {
        DBSP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        def.column_names.push_back(ToLower(col));
        if (!MatchSymbol(",")) break;
      }
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    if (MatchKeyword("KEY")) {
      DBSP_RETURN_NOT_OK(ExpectSymbol("("));
      DBSP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("key column"));
      def.key_column = ToLower(col);
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    DBSP_RETURN_NOT_OK(ExpectKeyword("AS"));
    DBSP_RETURN_NOT_OK(ExpectSymbol("("));
    DBSP_ASSIGN_OR_RETURN(def.query, ParseQueryExpr());
    if (PeekKeyword("ITERATE")) {
      if (default_kind != CteKind::kIterative) {
        return Err("ITERATE requires WITH ITERATIVE");
      }
      Advance();  // ITERATE
      def.kind = CteKind::kIterative;
      def.init_query = std::move(def.query);
      DBSP_ASSIGN_OR_RETURN(def.iter_query, ParseQueryExpr());
      DBSP_RETURN_NOT_OK(ExpectKeyword("UNTIL"));
      DBSP_ASSIGN_OR_RETURN(def.until, ParseTermination());
    } else if (default_kind == CteKind::kIterative) {
      return Err("WITH ITERATIVE CTE '" + def.name +
                 "' is missing an ITERATE clause");
    } else {
      def.kind = default_kind;
    }
    DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    return def;
  }

  Result<TerminationCondition> ParseTermination() {
    TerminationCondition tc;
    if (Peek().type == TokenType::kIntLiteral) {
      tc.n = Advance().int_value;
      if (MatchKeyword("ITERATIONS") || MatchKeyword("ITERATION")) {
        tc.kind = TerminationCondition::Kind::kIterations;
      } else if (MatchKeyword("UPDATES") || MatchKeyword("UPDATE")) {
        tc.kind = TerminationCondition::Kind::kUpdates;
      } else {
        return Err("expected ITERATIONS or UPDATES after count");
      }
      // 0 is allowed: UNTIL 0 ITERATIONS / 0 UPDATES never enters the loop
      // body, so the CTE is just its non-iterative part (the executor's
      // InitLoop pre-check skips the body entirely).
      if (tc.n < 0) return Err("termination count must be non-negative");
      return tc;
    }
    if (MatchKeyword("DELTA")) {
      DBSP_RETURN_NOT_OK(ExpectSymbol("<"));
      if (Peek().type != TokenType::kIntLiteral) {
        return Err("expected integer after DELTA <");
      }
      tc.kind = TerminationCondition::Kind::kDeltaLess;
      tc.n = Advance().int_value;
      if (tc.n <= 0) return Err("DELTA bound must be positive");
      return tc;
    }
    if (MatchKeyword("ANY")) {
      DBSP_RETURN_NOT_OK(ExpectSymbol("("));
      tc.kind = TerminationCondition::Kind::kAny;
      DBSP_ASSIGN_OR_RETURN(tc.expr, ParseExpr_());
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
      return tc;
    }
    if (MatchKeyword("ALL")) {
      DBSP_RETURN_NOT_OK(ExpectSymbol("("));
      tc.kind = TerminationCondition::Kind::kAll;
      DBSP_ASSIGN_OR_RETURN(tc.expr, ParseExpr_());
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
      return tc;
    }
    return Err("expected termination condition after UNTIL");
  }

  Result<StatementPtr> ParseCopy() {
    Advance();  // COPY
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kCopy;
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    stmt->table_name = ToLower(name);
    if (MatchKeyword("TO")) {
      stmt->copy_to = true;
    } else if (MatchKeyword("FROM")) {
      stmt->copy_to = false;
    } else {
      return Err("expected TO or FROM in COPY");
    }
    if (Peek().type != TokenType::kStringLiteral) {
      return Err("expected a quoted file path in COPY");
    }
    stmt->copy_path = Advance().text;
    if (MatchKeyword("DELIMITER")) {
      if (Peek().type != TokenType::kStringLiteral ||
          Peek().text.size() != 1) {
        return Err("DELIMITER expects a single-character string");
      }
      stmt->copy_delimiter = Advance().text[0];
    }
    return stmt;
  }

  Result<StatementPtr> ParseCreateTable() {
    Advance();  // CREATE
    if (PeekKeyword("MATERIALIZED")) return ParseCreateView();
    DBSP_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kCreateTable;
    if (PeekKeyword("IF") && PeekKeyword("NOT", 1) && PeekKeyword("EXISTS", 2)) {
      pos_ += 3;
      stmt->if_not_exists = true;
    }
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    stmt->table_name = ToLower(name);
    if (MatchKeyword("AS")) {
      // CREATE TABLE ... AS [WITH ...] SELECT ...
      if (PeekKeyword("WITH")) {
        DBSP_ASSIGN_OR_RETURN(stmt->ctes, ParseWithClause());
      }
      DBSP_ASSIGN_OR_RETURN(stmt->ctas_query, ParseQueryExpr());
      return stmt;
    }
    DBSP_RETURN_NOT_OK(ExpectSymbol("("));
    while (true) {
      ColumnDef col;
      DBSP_ASSIGN_OR_RETURN(std::string cname, ExpectIdentifier("column name"));
      col.name = ToLower(cname);
      DBSP_ASSIGN_OR_RETURN(std::string tname, ExpectIdentifier("type name"));
      DBSP_ASSIGN_OR_RETURN(col.type, ParseTypeName(tname));
      if (MatchKeyword("PRIMARY")) {
        DBSP_RETURN_NOT_OK(ExpectKeyword("KEY"));
        col.primary_key = true;
      }
      stmt->columns.push_back(std::move(col));
      if (!MatchSymbol(",")) break;
    }
    DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    return stmt;
  }

  Result<StatementPtr> ParseInsert() {
    Advance();  // INSERT
    DBSP_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kInsert;
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    stmt->table_name = ToLower(name);
    if (PeekSymbol("(") &&
        !(PeekKeyword("SELECT", 1) || PeekKeyword("WITH", 1))) {
      // Target column list (a '(' followed by SELECT/WITH is a source query).
      Advance();
      while (true) {
        DBSP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->insert_columns.push_back(ToLower(col));
        if (!MatchSymbol(",")) break;
      }
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    if (MatchKeyword("VALUES")) {
      while (true) {
        DBSP_RETURN_NOT_OK(ExpectSymbol("("));
        std::vector<ParseExprPtr> row;
        while (true) {
          DBSP_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr_());
          row.push_back(std::move(e));
          if (!MatchSymbol(",")) break;
        }
        DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
        stmt->insert_values.push_back(std::move(row));
        if (!MatchSymbol(",")) break;
      }
    } else {
      if (PeekKeyword("WITH")) {
        DBSP_ASSIGN_OR_RETURN(stmt->ctes, ParseWithClause());
      }
      DBSP_ASSIGN_OR_RETURN(stmt->insert_query, ParseQueryExpr());
    }
    return stmt;
  }

  Result<StatementPtr> ParseUpdate() {
    Advance();  // UPDATE
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kUpdate;
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    stmt->table_name = ToLower(name);
    DBSP_RETURN_NOT_OK(ExpectKeyword("SET"));
    while (true) {
      DBSP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      DBSP_RETURN_NOT_OK(ExpectSymbol("="));
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr_());
      stmt->set_clauses.emplace_back(ToLower(col), std::move(e));
      if (!MatchSymbol(",")) break;
    }
    if (MatchKeyword("FROM")) {
      DBSP_ASSIGN_OR_RETURN(stmt->update_from, ParseTableRef());
    }
    if (MatchKeyword("WHERE")) {
      DBSP_ASSIGN_OR_RETURN(stmt->where, ParseExpr_());
    }
    return stmt;
  }

  Result<StatementPtr> ParseDelete() {
    Advance();  // DELETE
    DBSP_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kDelete;
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    stmt->table_name = ToLower(name);
    if (MatchKeyword("WHERE")) {
      DBSP_ASSIGN_OR_RETURN(stmt->where, ParseExpr_());
    }
    return stmt;
  }

  Result<StatementPtr> ParseDropTable() {
    Advance();  // DROP
    if (PeekKeyword("MATERIALIZED")) return ParseDropView();
    DBSP_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kDropTable;
    if (PeekKeyword("IF") && PeekKeyword("EXISTS", 1)) {
      pos_ += 2;
      stmt->if_exists = true;
    }
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    stmt->table_name = ToLower(name);
    return stmt;
  }

  // CREATE MATERIALIZED VIEW [IF NOT EXISTS] v AS <query-expr>. The body is
  // a bare query expression: WITH-clause bodies are rejected so a view's
  // definition stays renderable/re-parseable for the manifest (and iterative
  // CTE bodies, which cannot be incrementally maintained, never sneak in).
  Result<StatementPtr> ParseCreateView() {
    DBSP_RETURN_NOT_OK(ExpectKeyword("MATERIALIZED"));
    DBSP_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kCreateView;
    if (PeekKeyword("IF") && PeekKeyword("NOT", 1) && PeekKeyword("EXISTS", 2)) {
      pos_ += 3;
      stmt->if_not_exists = true;
    }
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("view name"));
    stmt->table_name = ToLower(name);
    DBSP_RETURN_NOT_OK(ExpectKeyword("AS"));
    if (PeekKeyword("WITH")) {
      return Err("materialized view bodies cannot use WITH; inline the CTE");
    }
    DBSP_ASSIGN_OR_RETURN(stmt->ctas_query, ParseQueryExpr());
    return stmt;
  }

  Result<StatementPtr> ParseDropView() {
    DBSP_RETURN_NOT_OK(ExpectKeyword("MATERIALIZED"));
    DBSP_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kDropView;
    if (PeekKeyword("IF") && PeekKeyword("EXISTS", 1)) {
      pos_ += 2;
      stmt->if_exists = true;
    }
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("view name"));
    stmt->table_name = ToLower(name);
    return stmt;
  }

  Result<StatementPtr> ParseRefreshView() {
    Advance();  // REFRESH
    DBSP_RETURN_NOT_OK(ExpectKeyword("MATERIALIZED"));
    DBSP_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    auto stmt = std::make_unique<Statement>();
    stmt->kind = StatementKind::kRefreshView;
    DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("view name"));
    stmt->table_name = ToLower(name);
    return stmt;
  }

  // --- query expressions ---------------------------------------------------

  Result<QueryNodePtr> ParseQueryExpr() {
    Nest nest(&depth_);
    if (depth_ > kMaxExpressionDepth) return TooDeep();
    DBSP_ASSIGN_OR_RETURN(QueryNodePtr left, ParseQueryTerm());
    size_t depth = 0;  // of `left`'s set operations, once measured
    while (PeekKeyword("UNION") || PeekKeyword("EXCEPT") ||
           PeekKeyword("INTERSECT")) {
      SetOpKind op;
      if (MatchKeyword("UNION")) {
        op = MatchKeyword("ALL") ? SetOpKind::kUnionAll : SetOpKind::kUnion;
      } else if (MatchKeyword("EXCEPT")) {
        op = SetOpKind::kExcept;
      } else {
        Advance();  // INTERSECT
        op = SetOpKind::kIntersect;
      }
      DBSP_ASSIGN_OR_RETURN(QueryNodePtr right, ParseQueryTerm());
      if (depth == 0) depth = SetOpDepth(*left);
      depth = 1 + std::max(depth, SetOpDepth(*right));
      if (depth > kMaxExpressionDepth) return TooDeep();
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryNodeKind::kSetOp;
      node->set_op = op;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    if (MatchKeyword("ORDER")) {
      DBSP_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderByItem item;
        DBSP_ASSIGN_OR_RETURN(item.expr, ParseExpr_());
        if (MatchKeyword("DESC")) {
          item.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        left->order_by.push_back(std::move(item));
        if (!MatchSymbol(",")) break;
      }
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Err("expected integer after LIMIT");
      }
      left->limit = Advance().int_value;
      if (MatchKeyword("OFFSET")) {
        if (Peek().type != TokenType::kIntLiteral) {
          return Err("expected integer after OFFSET");
        }
        left->offset = Advance().int_value;
      }
    } else if (MatchKeyword("OFFSET")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Err("expected integer after OFFSET");
      }
      left->offset = Advance().int_value;
    }
    return left;
  }

  Result<QueryNodePtr> ParseQueryTerm() {
    if (MatchSymbol("(")) {
      DBSP_ASSIGN_OR_RETURN(QueryNodePtr inner, ParseQueryExpr());
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    return ParseSelectCore();
  }

  Result<QueryNodePtr> ParseSelectCore() {
    DBSP_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto node = std::make_unique<QueryNode>();
    node->kind = QueryNodeKind::kSelect;
    node->distinct = MatchKeyword("DISTINCT");
    // Select list.
    while (true) {
      SelectItem item;
      if (PeekSymbol("*")) {
        Advance();
        item.expr = std::make_unique<ParseExpr>();
        item.expr->kind = ParseExprKind::kStar;
      } else if (PeekNonReservedIdentifier() && PeekSymbol(".", 1) &&
                 PeekSymbol("*", 2)) {
        // qualified star: t.*
        item.expr = std::make_unique<ParseExpr>();
        item.expr->kind = ParseExprKind::kStar;
        item.expr->qualifier = ToLower(Advance().text);
        Advance();  // .
        Advance();  // *
      } else {
        DBSP_ASSIGN_OR_RETURN(item.expr, ParseExpr_());
      }
      if (MatchKeyword("AS")) {
        DBSP_ASSIGN_OR_RETURN(std::string alias, ExpectIdentifier("alias"));
        item.alias = ToLower(alias);
      } else if (PeekNonReservedIdentifier()) {
        item.alias = ToLower(Advance().text);
      }
      node->select_list.push_back(std::move(item));
      if (!MatchSymbol(",")) break;
    }
    if (MatchKeyword("FROM")) {
      DBSP_ASSIGN_OR_RETURN(node->from, ParseFromClause());
    }
    if (MatchKeyword("WHERE")) {
      DBSP_ASSIGN_OR_RETURN(node->where, ParseExpr_());
    }
    if (MatchKeyword("GROUP")) {
      DBSP_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        DBSP_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr_());
        node->group_by.push_back(std::move(e));
        if (!MatchSymbol(",")) break;
      }
    }
    if (MatchKeyword("HAVING")) {
      DBSP_ASSIGN_OR_RETURN(node->having, ParseExpr_());
    }
    return node;
  }

  Result<TableRefPtr> ParseFromClause() {
    DBSP_ASSIGN_OR_RETURN(TableRefPtr left, ParseTableRef());
    // Comma-separated FROM items are cross joins.
    while (MatchSymbol(",")) {
      DBSP_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRef());
      auto join = std::make_unique<TableRef>();
      join->kind = TableRefKind::kJoin;
      join->join_type = JoinType::kInner;
      join->left = std::move(left);
      join->right = std::move(right);
      left = std::move(join);
    }
    return left;
  }

  Result<TableRefPtr> ParseTableRef() {
    DBSP_ASSIGN_OR_RETURN(TableRefPtr left, ParseTablePrimary());
    while (true) {
      JoinType type = JoinType::kInner;
      bool is_cross = false;
      if (PeekKeyword("JOIN")) {
        Advance();
      } else if (PeekKeyword("INNER") && PeekKeyword("JOIN", 1)) {
        pos_ += 2;
      } else if (PeekKeyword("LEFT")) {
        Advance();
        MatchKeyword("OUTER");
        DBSP_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        type = JoinType::kLeft;
      } else if (PeekKeyword("CROSS") && PeekKeyword("JOIN", 1)) {
        pos_ += 2;
        is_cross = true;
      } else {
        break;
      }
      DBSP_ASSIGN_OR_RETURN(TableRefPtr right, ParseTablePrimary());
      auto join = std::make_unique<TableRef>();
      join->kind = TableRefKind::kJoin;
      join->join_type = type;
      join->left = std::move(left);
      join->right = std::move(right);
      if (!is_cross) {
        DBSP_RETURN_NOT_OK(ExpectKeyword("ON"));
        DBSP_ASSIGN_OR_RETURN(join->join_condition, ParseExpr_());
      }
      left = std::move(join);
    }
    return left;
  }

  Result<TableRefPtr> ParseTablePrimary() {
    auto ref = std::make_unique<TableRef>();
    if (MatchSymbol("(")) {
      ref->kind = TableRefKind::kSubquery;
      DBSP_ASSIGN_OR_RETURN(ref->subquery, ParseQueryExpr());
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      DBSP_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
      ref->kind = TableRefKind::kBase;
      ref->table_name = ToLower(name);
    }
    if (MatchKeyword("AS")) {
      DBSP_ASSIGN_OR_RETURN(std::string alias, ExpectIdentifier("alias"));
      ref->alias = ToLower(alias);
    } else if (PeekNonReservedIdentifier()) {
      ref->alias = ToLower(Advance().text);
    }
    return ref;
  }

  // --- expressions (precedence climbing) -----------------------------------

  Result<ParseExprPtr> ParseExpr_() {
    Nest nest(&depth_);
    if (depth_ > kMaxExpressionDepth) return TooDeep();
    return ParseOr();
  }

  Result<ParseExprPtr> ParseOr() {
    DBSP_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAnd());
    size_t depth = 0;
    while (PeekKeyword("OR")) {
      Advance();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAnd());
      DBSP_RETURN_NOT_OK(Chain(BinaryOp::kOr, &left, std::move(right), &depth));
    }
    return left;
  }

  Result<ParseExprPtr> ParseAnd() {
    DBSP_ASSIGN_OR_RETURN(ParseExprPtr left, ParseNot());
    size_t depth = 0;
    while (PeekKeyword("AND")) {
      Advance();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr right, ParseNot());
      DBSP_RETURN_NOT_OK(
          Chain(BinaryOp::kAnd, &left, std::move(right), &depth));
    }
    return left;
  }

  Result<ParseExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      Nest nest(&depth_);
      if (depth_ > kMaxExpressionDepth) return TooDeep();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr operand, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ParseExprPtr> ParseComparison() {
    DBSP_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAdditive());
    // IS [NOT] NULL
    if (PeekKeyword("IS")) {
      Advance();
      bool negated = MatchKeyword("NOT");
      DBSP_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto e = std::make_unique<ParseExpr>();
      e->kind = ParseExprKind::kIsNull;
      e->negated = negated;
      e->children.push_back(std::move(left));
      return e;
    }
    // [NOT] IN ( ... ) / [NOT] BETWEEN lo AND hi / [NOT] LIKE pattern
    bool negated = false;
    if (PeekKeyword("NOT") &&
        (PeekKeyword("IN", 1) || PeekKeyword("BETWEEN", 1) ||
         PeekKeyword("LIKE", 1))) {
      Advance();
      negated = true;
    }
    if (PeekKeyword("LIKE")) {
      Advance();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr pattern, ParseAdditive());
      auto e = std::make_unique<ParseExpr>();
      e->kind = ParseExprKind::kLike;
      e->negated = negated;
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(pattern));
      return e;
    }
    if (PeekKeyword("IN")) {
      Advance();
      DBSP_RETURN_NOT_OK(ExpectSymbol("("));
      auto e = std::make_unique<ParseExpr>();
      e->kind = ParseExprKind::kIn;
      e->negated = negated;
      e->children.push_back(std::move(left));
      while (true) {
        DBSP_ASSIGN_OR_RETURN(ParseExprPtr item, ParseExpr_());
        e->children.push_back(std::move(item));
        if (!MatchSymbol(",")) break;
      }
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    if (PeekKeyword("BETWEEN")) {
      Advance();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr lo, ParseAdditive());
      DBSP_RETURN_NOT_OK(ExpectKeyword("AND"));
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr hi, ParseAdditive());
      auto e = std::make_unique<ParseExpr>();
      e->kind = ParseExprKind::kBetween;
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(lo));
      e->children.push_back(std::move(hi));
      ParseExprPtr result = std::move(e);
      if (negated) result = MakeUnary(UnaryOp::kNot, std::move(result));
      return result;
    }
    static const std::pair<const char*, BinaryOp> kCmps[] = {
        {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& [sym, op] : kCmps) {
      if (PeekSymbol(sym)) {
        Advance();
        DBSP_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAdditive());
        return MakeBinary(op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ParseExprPtr> ParseAdditive() {
    DBSP_ASSIGN_OR_RETURN(ParseExprPtr left, ParseMultiplicative());
    size_t depth = 0;
    while (true) {
      BinaryOp op;
      if (PeekSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (PeekSymbol("-")) {
        op = BinaryOp::kSub;
      } else if (PeekSymbol("||")) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      Advance();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr right, ParseMultiplicative());
      DBSP_RETURN_NOT_OK(Chain(op, &left, std::move(right), &depth));
    }
    return left;
  }

  Result<ParseExprPtr> ParseMultiplicative() {
    DBSP_ASSIGN_OR_RETURN(ParseExprPtr left, ParseUnaryExpr());
    size_t depth = 0;
    while (true) {
      BinaryOp op;
      if (PeekSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (PeekSymbol("/")) {
        op = BinaryOp::kDiv;
      } else if (PeekSymbol("%")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      Advance();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr right, ParseUnaryExpr());
      DBSP_RETURN_NOT_OK(Chain(op, &left, std::move(right), &depth));
    }
    return left;
  }

  Result<ParseExprPtr> ParseUnaryExpr() {
    if (MatchSymbol("-")) {
      Nest nest(&depth_);
      if (depth_ > kMaxExpressionDepth) return TooDeep();
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr operand, ParseUnaryExpr());
      // Fold negative literals immediately for cleaner plans.
      if (operand->kind == ParseExprKind::kLiteral &&
          !operand->literal.is_null()) {
        if (operand->literal.type() == TypeId::kInt64) {
          return MakeLiteral(Value::Int64(-operand->literal.int64_value()));
        }
        if (operand->literal.type() == TypeId::kDouble) {
          return MakeLiteral(Value::Double(-operand->literal.double_value()));
        }
      }
      return MakeUnary(UnaryOp::kNeg, std::move(operand));
    }
    MatchSymbol("+");
    return ParsePrimary();
  }

  Result<ParseExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral:
        Advance();
        return MakeLiteral(Value::Int64(t.int_value));
      case TokenType::kFloatLiteral:
        Advance();
        return MakeLiteral(Value::Double(t.float_value));
      case TokenType::kStringLiteral:
        Advance();
        return MakeLiteral(Value::String(t.text));
      case TokenType::kSymbol:
        if (t.text == "(") {
          Advance();
          DBSP_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr_());
          DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
          return e;
        }
        break;
      case TokenType::kIdentifier:
        return ParseIdentifierExpr();
      case TokenType::kEnd:
        break;
    }
    return Err("expected an expression, found " + Peek().Describe());
  }

  Result<ParseExprPtr> ParseIdentifierExpr() {
    if (MatchKeyword("NULL")) return MakeLiteral(Value::Null());
    if (MatchKeyword("TRUE")) return MakeLiteral(Value::Bool(true));
    if (MatchKeyword("FALSE")) return MakeLiteral(Value::Bool(false));
    if (PeekKeyword("CASE")) return ParseCase();
    if (PeekKeyword("CAST")) return ParseCast();

    // Reserved words may not start an expression (quote them to use as
    // identifiers).
    if (ReservedWords().count(ToUpper(Peek().text))) {
      return Err("unexpected keyword " + Peek().Describe() +
                 " in expression");
    }
    std::string first = Advance().text;

    // Function call?
    if (PeekSymbol("(")) {
      Advance();
      auto e = std::make_unique<ParseExpr>();
      e->kind = ParseExprKind::kFunctionCall;
      e->function_name = ToLower(first);
      if (MatchKeyword("DISTINCT")) e->distinct = true;
      if (PeekSymbol("*")) {
        Advance();
        auto star = std::make_unique<ParseExpr>();
        star->kind = ParseExprKind::kStar;
        e->children.push_back(std::move(star));
      } else if (!PeekSymbol(")")) {
        while (true) {
          DBSP_ASSIGN_OR_RETURN(ParseExprPtr arg, ParseExpr_());
          e->children.push_back(std::move(arg));
          if (!MatchSymbol(",")) break;
        }
      }
      DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }

    // Qualified column: t.col
    if (PeekSymbol(".")) {
      Advance();
      DBSP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      return MakeColumnRef(first, col);
    }
    return MakeColumnRef("", first);
  }

  Result<ParseExprPtr> ParseCase() {
    Advance();  // CASE
    auto e = std::make_unique<ParseExpr>();
    e->kind = ParseExprKind::kCase;
    // Simple CASE (CASE x WHEN v ...) is normalized to searched CASE.
    ParseExprPtr operand;
    if (!PeekKeyword("WHEN")) {
      DBSP_ASSIGN_OR_RETURN(operand, ParseExpr_());
    }
    if (!PeekKeyword("WHEN")) return Err("expected WHEN in CASE");
    while (MatchKeyword("WHEN")) {
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr when, ParseExpr_());
      if (operand) {
        when = MakeBinary(BinaryOp::kEq, operand->Clone(), std::move(when));
      }
      DBSP_RETURN_NOT_OK(ExpectKeyword("THEN"));
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr then, ParseExpr_());
      e->children.push_back(std::move(when));
      e->children.push_back(std::move(then));
    }
    if (MatchKeyword("ELSE")) {
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr els, ParseExpr_());
      e->children.push_back(std::move(els));
      e->case_has_else = true;
    }
    DBSP_RETURN_NOT_OK(ExpectKeyword("END"));
    return e;
  }

  Result<ParseExprPtr> ParseCast() {
    Advance();  // CAST
    DBSP_RETURN_NOT_OK(ExpectSymbol("("));
    auto e = std::make_unique<ParseExpr>();
    e->kind = ParseExprKind::kCast;
    {
      DBSP_ASSIGN_OR_RETURN(ParseExprPtr operand, ParseExpr_());
      e->children.push_back(std::move(operand));
    }
    DBSP_RETURN_NOT_OK(ExpectKeyword("AS"));
    DBSP_ASSIGN_OR_RETURN(std::string tname, ExpectIdentifier("type name"));
    // Allow two-word "DOUBLE PRECISION".
    if (EqualsIgnoreCase(tname, "DOUBLE") && PeekKeyword("PRECISION")) {
      Advance();
    }
    DBSP_ASSIGN_OR_RETURN(e->cast_type, ParseTypeName(tname));
    DBSP_RETURN_NOT_OK(ExpectSymbol(")"));
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  ///< parser recursion levels held (Nest)
};

}  // namespace

Result<StatementPtr> ParseStatement(const std::string& sql) {
  DBSP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseSingleStatement();
}

Result<std::vector<StatementPtr>> ParseScript(const std::string& sql) {
  DBSP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseScriptTop();
}

Result<ParseExprPtr> ParseExpression(const std::string& text) {
  DBSP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens)).ParseSingleExpression();
}

bool IsReservedKeyword(const std::string& word) {
  return ReservedWords().count(ToUpper(word)) > 0;
}

}  // namespace dbspinner
