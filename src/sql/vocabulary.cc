#include "sql/vocabulary.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace lsg {
namespace {

/// Categorical columns enumerate all distinct values up to this cap.
constexpr size_t kMaxCategoricalValues = 64;

}  // namespace

int Vocabulary::AddToken(Token t) {
  t.id = static_cast<int>(tokens_.size());
  tokens_.push_back(std::move(t));
  return tokens_.back().id;
}

StatusOr<Vocabulary> Vocabulary::Build(const Database& db,
                                       const VocabularyOptions& options) {
  if (db.num_tables() == 0) {
    return Status::InvalidArgument("vocabulary needs a non-empty database");
  }
  Vocabulary v;
  Rng rng(options.seed);

  // 1. Reserved words.
  v.keyword_ids_.resize(static_cast<int>(Keyword::kNumKeywords), -1);
  for (int k = 0; k < static_cast<int>(Keyword::kNumKeywords); ++k) {
    Token t;
    t.kind = TokenKind::kKeyword;
    t.keyword = static_cast<Keyword>(k);
    t.text = KeywordText(t.keyword);
    v.keyword_ids_[k] = v.AddToken(std::move(t));
  }

  // 2. Operators.
  v.operator_ids_.resize(static_cast<int>(CompareOp::kNumOps), -1);
  for (int o = 0; o < static_cast<int>(CompareOp::kNumOps); ++o) {
    Token t;
    t.kind = TokenKind::kOperator;
    t.op = static_cast<CompareOp>(o);
    t.text = CompareOpText(t.op);
    v.operator_ids_[o] = v.AddToken(std::move(t));
  }

  // 3. Schema metadata: tables then columns.
  const Catalog& cat = db.catalog();
  v.table_ids_.resize(cat.num_tables(), -1);
  v.column_ids_.resize(cat.num_tables());
  v.value_ids_.resize(cat.num_tables());
  v.pattern_ids_.resize(cat.num_tables());
  for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
    const TableSchema& ts = cat.table(ti);
    Token t;
    t.kind = TokenKind::kTable;
    t.table_idx = static_cast<int>(ti);
    t.text = ts.name();
    v.table_ids_[ti] = v.AddToken(std::move(t));
    v.column_ids_[ti].resize(ts.num_columns(), -1);
    v.value_ids_[ti].resize(ts.num_columns());
    v.pattern_ids_[ti].resize(ts.num_columns());
    for (size_t ci = 0; ci < ts.num_columns(); ++ci) {
      Token c;
      c.kind = TokenKind::kColumn;
      c.column = ColumnRef{static_cast<int>(ti), static_cast<int>(ci)};
      c.text = ts.name() + "." + ts.column(ci).name;
      v.column_ids_[ti][ci] = v.AddToken(std::move(c));
    }
  }

  // 4. Cell values, sampled per column (paper §4.1).
  for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
    const Table* table = db.FindTable(cat.table(ti).name());
    LSG_CHECK(table != nullptr);
    for (size_t ci = 0; ci < cat.table(ti).num_columns(); ++ci) {
      const ColumnSchema& cs = cat.table(ti).column(ci);
      std::vector<Value> distinct = table->column(ci).DistinctValues();
      if (distinct.empty()) continue;
      size_t want;
      if (cs.type == DataType::kCategorical) {
        want = std::min(distinct.size(), kMaxCategoricalValues);
      } else if (options.sample_ratio > 0.0) {
        want = static_cast<size_t>(
            std::ceil(options.sample_ratio * static_cast<double>(distinct.size())));
        want = std::max<size_t>(1, std::min(want, distinct.size()));
      } else {
        want = std::min<size_t>(distinct.size(),
                                static_cast<size_t>(options.values_per_column));
      }
      std::vector<size_t> pick;
      if (want == distinct.size()) {
        pick.resize(want);
        for (size_t i = 0; i < want; ++i) pick[i] = i;
      } else {
        pick = rng.SampleWithoutReplacement(distinct.size(), want);
        std::sort(pick.begin(), pick.end());
      }
      for (size_t idx : pick) {
        Token t;
        t.kind = TokenKind::kValue;
        t.value = distinct[idx];
        t.value_column_table = static_cast<int>(ti);
        t.value_column_idx = static_cast<int>(ci);
        t.text = t.value.ToSqlLiteral();
        int id = v.AddToken(std::move(t));
        v.value_ids_[ti][ci].push_back(id);
        ++v.num_value_tokens_;
      }

      // LIKE patterns: '%<substring>%' sampled from the picked strings
      // (the paper's suggested mechanism for supporting LIKE, §5).
      if (!IsNumeric(cs.type) && options.patterns_per_string_column > 0) {
        std::vector<std::string> patterns;
        for (int attempt = 0;
             attempt < options.patterns_per_string_column * 4 &&
             static_cast<int>(patterns.size()) <
                 options.patterns_per_string_column;
             ++attempt) {
          const Value& src = distinct[rng.Uniform(distinct.size())];
          const std::string& s = src.as_string();
          if (s.empty()) continue;
          size_t len = std::min<size_t>(s.size(), 2 + rng.Uniform(3));
          size_t start = rng.Uniform(s.size() - len + 1);
          std::string pattern = "%" + s.substr(start, len) + "%";
          if (std::find(patterns.begin(), patterns.end(), pattern) !=
              patterns.end()) {
            continue;
          }
          patterns.push_back(pattern);
          Token t;
          t.kind = TokenKind::kValue;
          t.value = Value(pattern);
          t.value_column_table = static_cast<int>(ti);
          t.value_column_idx = static_cast<int>(ci);
          t.is_pattern = true;
          t.text = t.value.ToSqlLiteral();
          int id = v.AddToken(std::move(t));
          v.pattern_ids_[ti][ci].push_back(id);
          ++v.num_value_tokens_;
        }
      }
    }
  }

  // 5. EOF.
  {
    Token t;
    t.kind = TokenKind::kEof;
    t.text = "<EOF>";
    v.eof_id_ = v.AddToken(std::move(t));
  }

  LSG_LOG(Info) << "vocabulary built: |A|=" << v.size()
                << " (values=" << v.num_value_tokens_ << ")";
  return v;
}

int Vocabulary::column_token_id(int table_idx, int column_idx) const {
  LSG_DCHECK(table_idx >= 0 &&
             table_idx < static_cast<int>(column_ids_.size()));
  LSG_DCHECK(column_idx >= 0 &&
             column_idx < static_cast<int>(column_ids_[table_idx].size()));
  return column_ids_[table_idx][column_idx];
}

const std::vector<int>& Vocabulary::value_token_ids(int table_idx,
                                                    int column_idx) const {
  return value_ids_[table_idx][column_idx];
}

const std::vector<int>& Vocabulary::pattern_token_ids(int table_idx,
                                                      int column_idx) const {
  return pattern_ids_[table_idx][column_idx];
}

}  // namespace lsg
