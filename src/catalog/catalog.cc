#include "catalog/catalog.h"

namespace lsg {

Status Catalog::AddTable(TableSchema schema) {
  if (FindTable(schema.name()) >= 0) {
    return Status::AlreadyExists("table " + schema.name() + " already exists");
  }
  tables_.push_back(std::move(schema));
  return Status::Ok();
}

Status Catalog::AddForeignKey(ForeignKey fk) {
  int from = FindTable(fk.from_table);
  int to = FindTable(fk.to_table);
  if (from < 0 || to < 0) {
    return Status::NotFound("foreign key references unknown table: " +
                            fk.from_table + " -> " + fk.to_table);
  }
  int from_col = tables_[from].FindColumn(fk.from_column);
  int to_col = tables_[to].FindColumn(fk.to_column);
  if (from_col < 0 || to_col < 0) {
    return Status::NotFound("foreign key references unknown column: " +
                            fk.from_table + "." + fk.from_column + " -> " +
                            fk.to_table + "." + fk.to_column);
  }
  DataType a = tables_[from].column(from_col).type;
  DataType b = tables_[to].column(to_col).type;
  if (!AreComparable(a, b)) {
    return Status::InvalidArgument(
        "foreign key joins incomparable types: " + fk.from_table + "." +
        fk.from_column + " -> " + fk.to_table + "." + fk.to_column);
  }
  foreign_keys_.push_back(std::move(fk));
  fk_index_.push_back({from, from_col, to, to_col});
  return Status::Ok();
}

int Catalog::FindTable(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name() == name) return static_cast<int>(i);
  }
  return -1;
}

bool Catalog::AreJoinable(int a, int b) const {
  for (const FkIndex& e : fk_index_) {
    if ((e.from_table == a && e.to_table == b) ||
        (e.from_table == b && e.to_table == a)) {
      return true;
    }
  }
  return false;
}

std::optional<ChainJoin> Catalog::JoinIntoChain(const std::vector<int>& tables,
                                                size_t pos) const {
  const int t = tables[pos];
  for (size_t j = 0; j < pos; ++j) {
    for (size_t k = 0; k < fk_index_.size(); ++k) {
      const FkIndex& e = fk_index_[k];
      if (e.from_table == t && e.to_table == tables[j]) {
        return ChainJoin{j, e.to_col, e.from_col, &foreign_keys_[k]};
      }
      if (e.to_table == t && e.from_table == tables[j]) {
        return ChainJoin{j, e.from_col, e.to_col, &foreign_keys_[k]};
      }
    }
  }
  return std::nullopt;
}

}  // namespace lsg
