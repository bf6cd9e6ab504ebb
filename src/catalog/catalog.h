#ifndef LEARNEDSQLGEN_CATALOG_CATALOG_H_
#define LEARNEDSQLGEN_CATALOG_CATALOG_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"

namespace lsg {

/// How a FROM chain's table joins into the tables before it: equality of
/// column `build_col` of the joined table and column `probe_col` of the
/// table at chain position `probe_pos`, over the declared edge `fk`.
struct ChainJoin {
  size_t probe_pos = 0;
  int probe_col = -1;
  int build_col = -1;
  const ForeignKey* fk = nullptr;  ///< valid until the next AddForeignKey
};

/// Schema-level catalog: table schemas plus the PK-FK join graph.
/// The data itself lives in storage::Table / Database.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table schema. Returns AlreadyExists on duplicate names.
  Status AddTable(TableSchema schema);

  /// Registers a PK-FK edge. Both endpoints must exist and be comparable.
  Status AddForeignKey(ForeignKey fk);

  size_t num_tables() const { return tables_.size(); }
  const TableSchema& table(size_t i) const { return tables_[i]; }
  const std::vector<TableSchema>& tables() const { return tables_; }

  /// Index of the table with the given name, or -1.
  int FindTable(const std::string& name) const;

  /// All registered FK edges.
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// True if some FK edge connects the two tables (either direction).
  bool AreJoinable(int a, int b) const;

  /// The one join rule of a FROM chain, which fixes what a query means
  /// (a query keeps only its table list): `tables[pos]` joins over the
  /// first declared FK edge, in either direction, to the first of
  /// `tables[0, pos)` that has one. nullopt if none has.
  std::optional<ChainJoin> JoinIntoChain(const std::vector<int>& tables,
                                         size_t pos) const;

 private:
  /// A foreign key's endpoints as table and column indices.
  struct FkIndex {
    int from_table, from_col, to_table, to_col;
  };

  std::vector<TableSchema> tables_;
  std::vector<ForeignKey> foreign_keys_;
  std::vector<FkIndex> fk_index_;  ///< parallel to foreign_keys_
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CATALOG_CATALOG_H_
