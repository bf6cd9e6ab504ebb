#ifndef LEARNEDSQLGEN_SQL_PARSER_H_
#define LEARNEDSQLGEN_SQL_PARSER_H_

#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "sql/ast.h"

namespace lsg {

/// Parses SQL text (the dialect produced by RenderSql) back into a
/// QueryAst, resolving table/column names against the catalog. Supports
/// the full generated grammar: SELECT with FK JOIN ... ON chains, WHERE
/// (literals, LIKE, IN/scalar/EXISTS subqueries, AND/OR), GROUP BY,
/// HAVING, ORDER BY, and INSERT / UPDATE / DELETE. A QueryAst keeps only
/// the FROM table list, so each JOIN's ON must name the FK edge that
/// Catalog::JoinIntoChain picks for it (either side first) or be ON TRUE;
/// any other ON is InvalidArgument.
///
/// Useful for ingesting externally supplied queries or templates into the
/// engine/estimator, and for render↔parse round-trip testing.
StatusOr<QueryAst> ParseSql(const std::string& sql, const Catalog& catalog);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_SQL_PARSER_H_
