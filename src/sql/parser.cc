#include "sql/parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"

namespace lsg {
namespace {

enum class LexKind { kIdent, kNumber, kString, kPunct, kEnd };

struct Lexeme {
  LexKind kind = LexKind::kEnd;
  std::string text;   ///< ident (upper-cased copy in `upper`), punct, string
  std::string upper;  ///< for idents/keywords
  double number = 0;
  bool is_int = false;
  size_t pos = 0;
};

/// Hand-rolled lexer for the rendered dialect.
class Lexer {
 public:
  static StatusOr<std::vector<Lexeme>> Tokenize(const std::string& s) {
    std::vector<Lexeme> out;
    size_t i = 0;
    while (i < s.size()) {
      char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Lexeme lx;
      lx.pos = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) ||
                s[j] == '_')) {
          ++j;
        }
        lx.kind = LexKind::kIdent;
        lx.text = s.substr(i, j - i);
        lx.upper = ToUpper(lx.text);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && i + 1 < s.size() &&
                  (std::isdigit(static_cast<unsigned char>(s[i + 1])) ||
                   s[i + 1] == '.'))) {
        size_t j = i + 1;
        bool is_int = true;
        while (j < s.size()) {
          char d = s[j];
          if (std::isdigit(static_cast<unsigned char>(d))) {
            ++j;
          } else if (d == '.' || d == 'e' || d == 'E' ||
                     ((d == '+' || d == '-') &&
                      (s[j - 1] == 'e' || s[j - 1] == 'E'))) {
            is_int = false;
            ++j;
          } else {
            break;
          }
        }
        lx.kind = LexKind::kNumber;
        lx.text = s.substr(i, j - i);
        lx.number = std::strtod(lx.text.c_str(), nullptr);
        lx.is_int = is_int;
        i = j;
      } else if (c == '\'') {
        // SQL string literal; '' escapes a quote.
        std::string val;
        size_t j = i + 1;
        bool closed = false;
        while (j < s.size()) {
          if (s[j] == '\'') {
            if (j + 1 < s.size() && s[j + 1] == '\'') {
              val += '\'';
              j += 2;
              continue;
            }
            closed = true;
            ++j;
            break;
          }
          val += s[j];
          ++j;
        }
        if (!closed) {
          return Status::InvalidArgument(
              StrFormat("unterminated string at %zu", i));
        }
        lx.kind = LexKind::kString;
        lx.text = std::move(val);
        i = j;
      } else {
        // Punctuation / operators (longest match first).
        static const char* kTwo[] = {"<=", ">=", "<>"};
        lx.kind = LexKind::kPunct;
        lx.text = std::string(1, c);
        for (const char* two : kTwo) {
          if (s.compare(i, 2, two) == 0) {
            lx.text = two;
            break;
          }
        }
        i += lx.text.size();
      }
      out.push_back(std::move(lx));
    }
    Lexeme end;
    end.kind = LexKind::kEnd;
    end.pos = s.size();
    out.push_back(std::move(end));
    return out;
  }
};

class Parser {
 public:
  Parser(std::vector<Lexeme> lex, const Catalog* catalog)
      : lex_(std::move(lex)), catalog_(catalog) {}

  StatusOr<QueryAst> Parse() {
    QueryAst ast;
    if (AcceptKw("SELECT")) {
      --i_;  // ParseSelect expects to consume SELECT itself
      auto sel = ParseSelect();
      if (!sel.ok()) return sel.status();
      ast.type = QueryType::kSelect;
      ast.select = std::make_unique<SelectQuery>(std::move(sel).value());
    } else if (AcceptKw("INSERT")) {
      LSG_RETURN_IF_ERROR(ExpectKw("INTO"));
      LSG_ASSIGN_OR_RETURN(int table, ExpectTable());
      ast.type = QueryType::kInsert;
      ast.insert = std::make_unique<InsertQuery>();
      ast.insert->table_idx = table;
      if (AcceptKw("VALUES")) {
        LSG_RETURN_IF_ERROR(ExpectPunct("("));
        while (true) {
          LSG_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
          ast.insert->values.push_back(std::move(v));
          if (!AcceptPunct(",")) break;
        }
        LSG_RETURN_IF_ERROR(ExpectPunct(")"));
      } else {
        auto sel = ParseSelect();
        if (!sel.ok()) return sel.status();
        ast.insert->source =
            std::make_unique<SelectQuery>(std::move(sel).value());
      }
    } else if (AcceptKw("UPDATE")) {
      LSG_ASSIGN_OR_RETURN(int table, ExpectTable());
      ast.type = QueryType::kUpdate;
      ast.update = std::make_unique<UpdateQuery>();
      ast.update->table_idx = table;
      LSG_RETURN_IF_ERROR(ExpectKw("SET"));
      // Bare column name scoped to the target table.
      if (Cur().kind != LexKind::kIdent) return Err("expected column");
      int col = catalog_->table(table).FindColumn(Cur().text);
      if (col < 0) return Err("unknown column " + Cur().text);
      ++i_;
      ast.update->set_column = {table, col};
      LSG_RETURN_IF_ERROR(ExpectPunct("="));
      LSG_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
      ast.update->set_value = std::move(v);
      if (AcceptKw("WHERE")) {
        LSG_RETURN_IF_ERROR(ParseWhere(&ast.update->where));
      }
    } else if (AcceptKw("DELETE")) {
      LSG_RETURN_IF_ERROR(ExpectKw("FROM"));
      LSG_ASSIGN_OR_RETURN(int table, ExpectTable());
      ast.type = QueryType::kDelete;
      ast.del = std::make_unique<DeleteQuery>();
      ast.del->table_idx = table;
      if (AcceptKw("WHERE")) {
        LSG_RETURN_IF_ERROR(ParseWhere(&ast.del->where));
      }
    } else {
      return Err("expected SELECT/INSERT/UPDATE/DELETE");
    }
    if (Cur().kind != LexKind::kEnd) return Err("trailing tokens");
    return ast;
  }

 private:
  const Lexeme& Cur() const { return lex_[i_]; }

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("parse error at %zu: %s", Cur().pos, msg.c_str()));
  }

  bool AcceptKw(const char* kw) {
    if (Cur().kind == LexKind::kIdent && Cur().upper == kw) {
      ++i_;
      return true;
    }
    return false;
  }

  Status ExpectKw(const char* kw) {
    if (!AcceptKw(kw)) return Err(StrFormat("expected %s", kw));
    return Status::Ok();
  }

  bool AcceptPunct(const char* p) {
    if (Cur().kind == LexKind::kPunct && Cur().text == p) {
      ++i_;
      return true;
    }
    return false;
  }

  Status ExpectPunct(const char* p) {
    if (!AcceptPunct(p)) return Err(StrFormat("expected '%s'", p));
    return Status::Ok();
  }

  StatusOr<int> ExpectTable() {
    if (Cur().kind != LexKind::kIdent) return Err("expected table name");
    int t = catalog_->FindTable(Cur().text);
    if (t < 0) return Err("unknown table " + Cur().text);
    ++i_;
    return t;
  }

  /// "Table.column" -> resolved ColumnRef.
  StatusOr<ColumnRef> ExpectQualifiedColumn() {
    if (Cur().kind != LexKind::kIdent) return Err("expected Table.column");
    std::string table = Cur().text;
    ++i_;
    LSG_RETURN_IF_ERROR(ExpectPunct("."));
    if (Cur().kind != LexKind::kIdent) return Err("expected column name");
    std::string column = Cur().text;
    ++i_;
    int t = catalog_->FindTable(table);
    if (t < 0) return Err("unknown table " + table);
    int c = catalog_->table(t).FindColumn(column);
    if (c < 0) return Err("unknown column " + table + "." + column);
    return ColumnRef{t, c};
  }

  /// OK if `a = b`, in either orientation, is the FK edge that joins the
  /// last of `tables` into the chain (Catalog::JoinIntoChain).
  Status ExpectChainJoin(const std::vector<int>& tables, const ColumnRef& a,
                         const ColumnRef& b) const {
    const size_t pos = tables.size() - 1;
    const auto join = catalog_->JoinIntoChain(tables, pos);
    const std::string& name = catalog_->table(tables[pos]).name();
    if (!join) return Err("no FK edge joins " + name + " into the chain");
    const ColumnRef probe{tables[join->probe_pos], join->probe_col};
    const ColumnRef build{tables[pos], join->build_col};
    if ((a == probe && b == build) || (a == build && b == probe)) {
      return Status::Ok();
    }
    const ForeignKey& fk = *join->fk;
    return Err("JOIN " + name + " must be ON " + fk.from_table + "." +
               fk.from_column + " = " + fk.to_table + "." + fk.to_column);
  }

  StatusOr<Value> ExpectLiteral() {
    if (Cur().kind == LexKind::kNumber) {
      Value v = Cur().is_int ? Value(static_cast<int64_t>(Cur().number))
                             : Value(Cur().number);
      ++i_;
      return v;
    }
    if (Cur().kind == LexKind::kString) {
      Value v{Cur().text};
      ++i_;
      return v;
    }
    if (AcceptKw("NULL")) return Value::Null();
    return Err("expected literal");
  }

  StatusOr<AggFunc> AcceptAgg() {
    static const std::pair<const char*, AggFunc> kAggs[] = {
        {"MAX", AggFunc::kMax},     {"MIN", AggFunc::kMin},
        {"SUM", AggFunc::kSum},     {"AVG", AggFunc::kAvg},
        {"COUNT", AggFunc::kCount},
    };
    for (const auto& [kw, agg] : kAggs) {
      if (Cur().kind == LexKind::kIdent && Cur().upper == kw &&
          lex_[i_ + 1].kind == LexKind::kPunct && lex_[i_ + 1].text == "(") {
        ++i_;
        return agg;
      }
    }
    return AggFunc::kNone;
  }

  StatusOr<CompareOp> ExpectOperator() {
    if (Cur().kind != LexKind::kPunct) return Err("expected operator");
    static const std::pair<const char*, CompareOp> kOps[] = {
        {"<=", CompareOp::kLe}, {">=", CompareOp::kGe}, {"<>", CompareOp::kNe},
        {"<", CompareOp::kLt},  {">", CompareOp::kGt},  {"=", CompareOp::kEq},
    };
    for (const auto& [txt, op] : kOps) {
      if (Cur().text == txt) {
        ++i_;
        return op;
      }
    }
    return Err("unknown operator " + Cur().text);
  }

  StatusOr<SelectQuery> ParseSelect() {
    SelectQuery q;
    LSG_RETURN_IF_ERROR(ExpectKw("SELECT"));
    while (true) {
      LSG_ASSIGN_OR_RETURN(AggFunc agg, AcceptAgg());
      SelectItem item;
      item.agg = agg;
      if (agg != AggFunc::kNone) {
        LSG_RETURN_IF_ERROR(ExpectPunct("("));
        LSG_ASSIGN_OR_RETURN(item.column, ExpectQualifiedColumn());
        LSG_RETURN_IF_ERROR(ExpectPunct(")"));
      } else {
        LSG_ASSIGN_OR_RETURN(item.column, ExpectQualifiedColumn());
      }
      q.items.push_back(item);
      if (!AcceptPunct(",")) break;
    }
    LSG_RETURN_IF_ERROR(ExpectKw("FROM"));
    LSG_ASSIGN_OR_RETURN(int anchor, ExpectTable());
    q.tables.push_back(anchor);
    while (AcceptKw("JOIN")) {
      LSG_ASSIGN_OR_RETURN(int t, ExpectTable());
      q.tables.push_back(t);
      LSG_RETURN_IF_ERROR(ExpectKw("ON"));
      if (AcceptKw("TRUE")) continue;  // cross-join fallback form
      // "T.a = T.b": the AST keeps no ON, and the engines join over the
      // chain's FK edge, so the text must name that edge.
      LSG_ASSIGN_OR_RETURN(ColumnRef lhs, ExpectQualifiedColumn());
      LSG_RETURN_IF_ERROR(ExpectPunct("="));
      LSG_ASSIGN_OR_RETURN(ColumnRef rhs, ExpectQualifiedColumn());
      LSG_RETURN_IF_ERROR(ExpectChainJoin(q.tables, lhs, rhs));
    }
    if (AcceptKw("WHERE")) LSG_RETURN_IF_ERROR(ParseWhere(&q.where));
    if (AcceptKw("GROUP")) {
      LSG_RETURN_IF_ERROR(ExpectKw("BY"));
      while (true) {
        LSG_ASSIGN_OR_RETURN(ColumnRef c, ExpectQualifiedColumn());
        q.group_by.push_back(c);
        if (!AcceptPunct(",")) break;
      }
    }
    if (AcceptKw("HAVING")) {
      HavingClause h;
      LSG_ASSIGN_OR_RETURN(AggFunc agg, AcceptAgg());
      if (agg == AggFunc::kNone) return Err("expected aggregate in HAVING");
      h.agg = agg;
      LSG_RETURN_IF_ERROR(ExpectPunct("("));
      LSG_ASSIGN_OR_RETURN(h.column, ExpectQualifiedColumn());
      LSG_RETURN_IF_ERROR(ExpectPunct(")"));
      LSG_ASSIGN_OR_RETURN(h.op, ExpectOperator());
      LSG_ASSIGN_OR_RETURN(h.value, ExpectLiteral());
      q.having = std::move(h);
    }
    if (AcceptKw("ORDER")) {
      LSG_RETURN_IF_ERROR(ExpectKw("BY"));
      while (true) {
        LSG_ASSIGN_OR_RETURN(ColumnRef c, ExpectQualifiedColumn());
        q.order_by.push_back(c);
        if (!AcceptPunct(",")) break;
      }
    }
    return q;
  }

  Status ParseWhere(WhereClause* where) {
    while (true) {
      LSG_RETURN_IF_ERROR(ParsePredicate(where));
      if (AcceptKw("AND")) {
        where->connectors.push_back(BoolConn::kAnd);
      } else if (AcceptKw("OR")) {
        where->connectors.push_back(BoolConn::kOr);
      } else {
        break;
      }
    }
    return Status::Ok();
  }

  Status ParsePredicate(WhereClause* where) {
    Predicate p;
    if (AcceptKw("NOT")) {
      LSG_RETURN_IF_ERROR(ExpectKw("EXISTS"));
      p.kind = PredicateKind::kExistsSub;
      p.negated = true;
      LSG_RETURN_IF_ERROR(ParseParenSubquery(&p));
      where->predicates.push_back(std::move(p));
      return Status::Ok();
    }
    if (AcceptKw("EXISTS")) {
      p.kind = PredicateKind::kExistsSub;
      LSG_RETURN_IF_ERROR(ParseParenSubquery(&p));
      where->predicates.push_back(std::move(p));
      return Status::Ok();
    }
    LSG_ASSIGN_OR_RETURN(p.column, ExpectQualifiedColumn());
    if (AcceptKw("IN")) {
      p.kind = PredicateKind::kInSub;
      LSG_RETURN_IF_ERROR(ParseParenSubquery(&p));
    } else if (AcceptKw("LIKE")) {
      p.kind = PredicateKind::kLike;
      if (Cur().kind != LexKind::kString) return Err("expected LIKE pattern");
      p.value = Value(Cur().text);
      ++i_;
    } else {
      LSG_ASSIGN_OR_RETURN(p.op, ExpectOperator());
      if (Cur().kind == LexKind::kPunct && Cur().text == "(") {
        p.kind = PredicateKind::kScalarSub;
        LSG_RETURN_IF_ERROR(ParseParenSubquery(&p));
      } else {
        p.kind = PredicateKind::kValue;
        LSG_ASSIGN_OR_RETURN(p.value, ExpectLiteral());
      }
    }
    where->predicates.push_back(std::move(p));
    return Status::Ok();
  }

  Status ParseParenSubquery(Predicate* p) {
    LSG_RETURN_IF_ERROR(ExpectPunct("("));
    auto sel = ParseSelect();
    if (!sel.ok()) return sel.status();
    p->subquery = std::make_unique<SelectQuery>(std::move(sel).value());
    LSG_RETURN_IF_ERROR(ExpectPunct(")"));
    return Status::Ok();
  }

  std::vector<Lexeme> lex_;
  const Catalog* catalog_;
  size_t i_ = 0;
};

}  // namespace

StatusOr<QueryAst> ParseSql(const std::string& sql, const Catalog& catalog) {
  auto lex = Lexer::Tokenize(sql);
  if (!lex.ok()) return lex.status();
  Parser parser(std::move(lex).value(), &catalog);
  return parser.Parse();
}

}  // namespace lsg
