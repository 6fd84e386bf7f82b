// Recursive-descent SQL parser.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"

namespace dbspinner {

/// The deepest nesting a statement may have. Each parenthesis, NOT, unary
/// minus, function/CASE/CAST argument list and subquery is one level, and
/// so is each operator of a chain (`1 + 1 + ...`, `... UNION ALL ...`),
/// which nests its left operand one level deeper. Deeper input fails with
/// a ParseError instead of exhausting the stack of the recursive passes
/// (parsing itself, binding, rewriting, evaluation, destruction). The value
/// keeps the parser within an 8 MB thread stack under AddressSanitizer,
/// where about 420 nested parentheses fit.
constexpr size_t kMaxExpressionDepth = 256;

/// Parses exactly one statement (a trailing ';' is allowed).
Result<StatementPtr> ParseStatement(const std::string& sql);

/// Parses a ';'-separated script into a statement list.
Result<std::vector<StatementPtr>> ParseScript(const std::string& sql);

/// Parses a standalone scalar expression (used by tests and tools).
Result<ParseExprPtr> ParseExpression(const std::string& text);

/// True if `word` (any case) is a reserved keyword of the grammar. The SQL
/// fuzzer's query generator uses this to keep generated identifiers legal.
bool IsReservedKeyword(const std::string& word);

}  // namespace dbspinner
