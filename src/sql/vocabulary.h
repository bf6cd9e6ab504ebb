#ifndef LEARNEDSQLGEN_SQL_VOCABULARY_H_
#define LEARNEDSQLGEN_SQL_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "sql/token.h"
#include "storage/table.h"

namespace lsg {

/// Controls how the action space is built from a database.
struct VocabularyOptions {
  /// Number of values sampled per numerical/string attribute (paper k=100).
  /// Ignored when sample_ratio > 0.
  int values_per_column = 100;

  /// If > 0, sample ceil(ratio * ndv) values per column instead of a fixed
  /// k (the Figure 12 η sweep).
  double sample_ratio = 0.0;

  /// LIKE patterns sampled per string/categorical column: substrings of
  /// sampled cell values wrapped in '%' (paper §5 future work; 0 disables).
  int patterns_per_string_column = 6;

  /// Seed for value sampling; fixed for reproducibility.
  uint64_t seed = 42;

  bool operator==(const VocabularyOptions&) const = default;
};

/// The fixed action space A for one database (paper §4.1): every keyword,
/// table name, column name, sampled cell value, operator, plus EOF, each
/// mapped to a dense id usable as a one-hot index.
class Vocabulary {
 public:
  /// Builds the action space for `db`.
  static StatusOr<Vocabulary> Build(const Database& db,
                                    const VocabularyOptions& options);

  /// Total number of actions |A| (the one-hot dimension).
  int size() const { return static_cast<int>(tokens_.size()); }

  const Token& token(int id) const { return tokens_[id]; }

  /// Ids of fixed singleton tokens.
  int eof_id() const { return eof_id_; }
  int keyword_id(Keyword kw) const { return keyword_ids_[static_cast<int>(kw)]; }
  int operator_id(CompareOp op) const {
    return operator_ids_[static_cast<int>(op)];
  }

  /// Id of the table token for catalog table `table_idx`.
  int table_token_id(int table_idx) const { return table_ids_[table_idx]; }

  /// Id of the column token for (table_idx, column_idx).
  int column_token_id(int table_idx, int column_idx) const;

  /// Ids of the sampled value tokens belonging to a column.
  const std::vector<int>& value_token_ids(int table_idx,
                                          int column_idx) const;

  /// Ids of the sampled LIKE-pattern tokens belonging to a string column
  /// (empty for numeric columns or when pattern sampling is disabled).
  const std::vector<int>& pattern_token_ids(int table_idx,
                                            int column_idx) const;

  /// Number of tables / columns the vocabulary covers.
  int num_tables() const { return static_cast<int>(table_ids_.size()); }
  int num_columns(int table_idx) const {
    return static_cast<int>(column_ids_[table_idx].size());
  }

  /// Sum of value tokens across all columns (diagnostics).
  int num_value_tokens() const { return num_value_tokens_; }

 private:
  Vocabulary() = default;

  int AddToken(Token t);

  std::vector<Token> tokens_;
  std::vector<int> keyword_ids_;
  std::vector<int> operator_ids_;
  std::vector<int> table_ids_;
  std::vector<std::vector<int>> column_ids_;           // [table][column]
  std::vector<std::vector<std::vector<int>>> value_ids_;  // [table][column][i]
  std::vector<std::vector<std::vector<int>>> pattern_ids_;
  int eof_id_ = -1;
  int num_value_tokens_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_SQL_VOCABULARY_H_
