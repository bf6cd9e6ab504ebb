#include "vexec/vectorized_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "exec/expression.h"
#include "obs/metrics_registry.h"
#include "vexec/hash_table.h"

namespace lsg {
namespace vexec {

namespace {

/// Applies `op` to a three-way comparison sign (CompareValues semantics).
inline bool OpHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kNumOps:
      break;
  }
  return false;
}

inline int Sign3(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }
inline int Sign3(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// Canonical 64-bit image of a DOUBLE group-key cell. The reference
/// engine's string key (GroupKeyOf -> FormatDouble) is injective up to
/// `==`, except that a NaN prints only its sign ("nan" / "-nan"): so -0.0
/// joins +0.0, and all NaNs of one sign are one group.
uint64_t CanonicalDoubleBits(double d) {
  if (d == 0.0) {
    d = 0.0;
  } else if (std::isnan(d)) {
    d = std::copysign(std::numeric_limits<double>::quiet_NaN(), d);
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Tuples bucketed by GROUP BY key: group g's tuples are
/// members[start[g] .. start[g + 1]), ascending; groups are numbered in
/// first-appearance (tuple) order.
struct Grouping {
  std::vector<uint32_t> start;
  std::vector<uint32_t> members;

  size_t num_groups() const { return start.size() - 1; }
};

/// SplitMix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One GROUP BY column resolved against the chain: its backing arrays
/// and the chain's row ids for its table.
struct KeyColumn {
  const Column* col;
  const uint32_t* rows;

  bool Valid(uint32_t r) const { return col->all_valid() || !col->IsNull(r); }

  /// Hints the cache that tuple t's cell is about to be read.
  void Prefetch(size_t t) const {
    const uint32_t r = rows[t];
    switch (col->type()) {
      case DataType::kInt64:
        __builtin_prefetch(col->ints().data() + r);
        break;
      case DataType::kDouble:
        __builtin_prefetch(col->doubles().data() + r);
        break;
      case DataType::kString:
      case DataType::kCategorical:
        __builtin_prefetch(col->strings().data() + r);
        break;
    }
  }

  /// 64-bit image of tuple t's cell, equal for cells of one GroupKeyOf
  /// class (Same).
  uint64_t CellHash(size_t t) const {
    const uint32_t r = rows[t];
    if (!Valid(r)) return 0x6a09e667f3bcc909ull;
    switch (col->type()) {
      case DataType::kInt64:
        return static_cast<uint64_t>(col->ints()[r]);
      case DataType::kDouble:
        return CanonicalDoubleBits(col->doubles()[r]);
      case DataType::kString:
      case DataType::kCategorical:
        return std::hash<std::string>{}(col->strings()[r]);
    }
    return 0;
  }

  /// True when tuples t and u fall in the same GroupKeyOf class on this
  /// column: both NULL, or equal INT64s / canonical DOUBLEs / strings.
  bool Same(size_t t, size_t u) const {
    const uint32_t a = rows[t], b = rows[u];
    const bool va = Valid(a), vb = Valid(b);
    if (va != vb) return false;
    if (!va) return true;
    switch (col->type()) {
      case DataType::kInt64:
        return col->ints()[a] == col->ints()[b];
      case DataType::kDouble:
        return CanonicalDoubleBits(col->doubles()[a]) ==
               CanonicalDoubleBits(col->doubles()[b]);
      case DataType::kString:
      case DataType::kCategorical:
        return col->strings()[a] == col->strings()[b];
    }
    return false;
  }
};

/// Typed GROUP BY over the Column backing arrays, in two passes. Pass one
/// hashes every tuple's key column by column (tight loops over the row id
/// arrays). Pass two finds each tuple's group in an open-addressing table
/// of (hash, group) slots, prefetching a few tuples ahead, and rechecks a
/// hash match cell by cell against the group's first tuple with
/// KeyColumn::Same — the GroupKeyOf classes, so both engines induce the
/// same partition. A key column whose table is not in the chain is
/// NULL for every tuple, so it never splits a group and is left out.
Grouping GroupTuples(const Database& db, const TupleSetV& ts,
                     const std::vector<ColumnRef>& group_by) {
  std::vector<KeyColumn> keys;
  for (const ColumnRef& c : group_by) {
    const size_t pos = ts.ChainPos(c.table_idx);
    if (pos == ts.tables.size()) continue;
    keys.push_back({&db.tables()[c.table_idx].column(c.column_idx),
                    ts.cols[pos].data()});
  }

  // Prefetch distance for the random cell and slot reads, as in the join
  // probe: far enough ahead to hide a miss, near enough to stay cached.
  constexpr size_t kPrefetchDist = 16;
  std::vector<uint64_t> hash(ts.count, 0x9e3779b97f4a7c15ull);
  for (const KeyColumn& k : keys) {
    for (size_t t = 0; t < ts.count; ++t) {
      if (t + kPrefetchDist < ts.count) k.Prefetch(t + kPrefetchDist);
      hash[t] = Mix64(hash[t] ^ k.CellHash(t));
    }
  }

  struct Slot {
    uint64_t hash;
    int64_t group;  // -1 = empty
  };
  std::vector<Slot> slots(1024, Slot{0, -1});
  size_t mask = slots.size() - 1;
  std::vector<uint32_t> first;  // per group: its first tuple
  std::vector<uint32_t> group_of(ts.count);
  for (size_t t = 0; t < ts.count; ++t) {
    if (t + kPrefetchDist < ts.count) {
      __builtin_prefetch(slots.data() + (hash[t + kPrefetchDist] & mask));
      for (const KeyColumn& k : keys) k.Prefetch(t + kPrefetchDist);
    }
    const uint64_t h = hash[t];
    size_t s = h & mask;
    int64_t g;
    while ((g = slots[s].group) >= 0 &&
           (slots[s].hash != h ||
            !std::all_of(keys.begin(), keys.end(), [&](const KeyColumn& k) {
              return k.Same(t, first[g]);
            }))) {
      s = (s + 1) & mask;
    }
    if (g < 0) {  // first appearance: open a new group
      g = static_cast<int64_t>(first.size());
      first.push_back(static_cast<uint32_t>(t));
      slots[s] = Slot{h, g};
      if (first.size() * 2 > slots.size()) {  // keep load below 1/2
        std::vector<Slot> old(slots.size() * 2, Slot{0, -1});
        old.swap(slots);
        mask = slots.size() - 1;
        for (const Slot& o : old) {
          if (o.group < 0) continue;
          size_t j = o.hash & mask;
          while (slots[j].group >= 0) j = (j + 1) & mask;
          slots[j] = o;
        }
      }
    }
    group_of[t] = static_cast<uint32_t>(g);
  }

  // Counting sort by group id: stable, so each group keeps tuple order.
  const size_t num_groups = first.size();
  Grouping out;
  out.start.assign(num_groups + 1, 0);
  for (size_t t = 0; t < ts.count; ++t) ++out.start[group_of[t] + 1];
  for (size_t g = 0; g < num_groups; ++g) {
    out.start[g + 1] += out.start[g];
  }
  out.members.resize(ts.count);
  std::vector<uint32_t> fill(out.start.begin(), out.start.end() - 1);
  for (size_t t = 0; t < ts.count; ++t) {
    out.members[fill[group_of[t]]++] = static_cast<uint32_t>(t);
  }
  return out;
}

}  // namespace

InjectBug ParseInjectBug(const std::string& name) {
  if (name == "hash-collision") return InjectBug::kHashCollision;
  if (name == "sel-vector-off-by-one") return InjectBug::kSelVectorOffByOne;
  return InjectBug::kNone;
}

VectorizedEngine::VectorizedEngine(const Database* db, VexecOptions opts)
    : db_(db), opts_(opts) {
  LSG_CHECK(db != nullptr);
}

Value VectorizedEngine::TupleValue(const TupleSetV& ts, size_t tuple,
                                   const ColumnRef& col) const {
  const size_t pos = ts.ChainPos(col.table_idx);
  if (pos == ts.tables.size()) return Value::Null();  // FSM prevents this
  return db_->tables()[col.table_idx].GetValue(ts.cols[pos][tuple],
                                               col.column_idx);
}

StatusOr<TupleSetV> VectorizedEngine::BuildJoin(const SelectQuery& q,
                                                ExecStats* stats) const {
  if (q.tables.empty()) {
    return Status::InvalidArgument("SELECT without FROM tables");
  }
  const Catalog& cat = db_->catalog();
  TupleSetV ts;
  ts.tables.push_back(q.tables[0]);
  const Table& base = db_->tables()[q.tables[0]];
  ts.count = base.num_rows();
  ts.cols.emplace_back(ts.count);
  for (size_t r = 0; r < ts.count; ++r) {
    ts.cols[0][r] = static_cast<uint32_t>(r);
  }
  stats->rows_scanned += static_cast<double>(ts.count);

  for (size_t i = 1; i < q.tables.size(); ++i) {
    const int new_ti = q.tables[i];
    const Table& new_table = db_->tables()[new_ti];
    stats->rows_scanned += static_cast<double>(new_table.num_rows());

    // FK edge selection — must mirror the reference Executor exactly
    // (chain tables in order, first JoinEdges entry wins) so both engines
    // join on the same columns. Enforced by the differential tests.
    int probe_table = -1, probe_col = -1, build_col = -1;
    for (size_t j = 0; j < ts.tables.size() && probe_table < 0; ++j) {
      for (const ForeignKey& fk :
           cat.JoinEdges(cat.table(ts.tables[j]).name(),
                         cat.table(new_ti).name())) {
        const bool new_is_from = fk.from_table == cat.table(new_ti).name();
        const std::string& new_col_name =
            new_is_from ? fk.from_column : fk.to_column;
        const std::string& old_col_name =
            new_is_from ? fk.to_column : fk.from_column;
        probe_table = ts.tables[j];
        probe_col = cat.table(ts.tables[j]).FindColumn(old_col_name);
        build_col = cat.table(new_ti).FindColumn(new_col_name);
        break;
      }
    }
    if (probe_table < 0) {
      return Status::InvalidArgument(
          "no FK edge joins " + cat.table(new_ti).name() + " into the chain");
    }

    const size_t stride = ts.tables.size();
    const size_t probe_pos = ts.ChainPos(probe_table);
    const Column& build_column = new_table.column(build_col);
    const Column& probe_column =
        db_->tables()[probe_table].column(probe_col);
    const std::vector<uint32_t>& probe_rows = ts.cols[probe_pos];

    stats->rows_probed += static_cast<double>(ts.count);
    const uint64_t cap = opts_.max_intermediate_tuples;
    const bool skip_recheck = opts_.inject == InjectBug::kHashCollision;
    // Matches append straight into the output columns (the new table's rows
    // in the last slot), in tuple order; the cap is checked on the running
    // total, so a rejected join stops at cap + 1 like the reference.
    std::vector<std::vector<uint32_t>> out(stride + 1);
    for (auto& c : out) c.reserve(std::min<uint64_t>(ts.count, cap));
    uint64_t total = 0;

    if (build_column.type() == DataType::kInt64 &&
        probe_column.type() == DataType::kInt64) {
      // Typed path: open-addressing INT64 table, typed probe keys.
      // Prefetch distance: far enough ahead to hide a memory round-trip
      // behind ~16 probes' work, near enough that the line is still
      // resident when the probe arrives.
      constexpr size_t kPrefetchDist = 16;
      const std::vector<int64_t>& build_keys = build_column.ints();
      const std::vector<bool>& build_valid = build_column.validity();
      const bool build_all_valid = build_column.all_valid();
      const size_t build_rows = new_table.num_rows();
      // Key-range scan: sequential-PK build sides (every FK edge in the
      // bundled datasets) get the dense direct-address mode — no hashing,
      // no collisions, one bounded-index load per probe. The injected
      // hash-collision bug lives in the sparse probe path, so mutation
      // runs pin that mode to keep the defect reachable.
      int64_t min_key = 0, max_key = -1;
      bool have_key = false;
      for (size_t r = 0; r < build_rows; ++r) {
        if (!build_all_valid && !build_valid[r]) continue;
        const int64_t k = build_keys[r];
        if (!have_key) {
          min_key = max_key = k;
          have_key = true;
        } else {
          min_key = std::min(min_key, k);
          max_key = std::max(max_key, k);
        }
      }
      const bool use_dense =
          have_key &&
          Int64JoinHashTable::DenseRangeUsable(min_key, max_key, build_rows) &&
          opts_.inject != InjectBug::kHashCollision;
      Int64JoinHashTable ht =
          use_dense ? Int64JoinHashTable(min_key, max_key, build_rows)
                    : Int64JoinHashTable(build_rows);
      for (size_t r = 0; r < build_rows; ++r) {
        if (r + kPrefetchDist < build_rows &&
            (build_all_valid || build_valid[r + kPrefetchDist])) {
          ht.Prefetch(build_keys[r + kPrefetchDist]);
        }
        if (!build_all_valid && !build_valid[r]) continue;
        ht.Insert(build_keys[r], static_cast<uint32_t>(r));
      }
      const std::vector<int64_t>& probe_keys = probe_column.ints();
      const std::vector<bool>& probe_valid = probe_column.validity();
      const bool probe_all_valid = probe_column.all_valid();
      for (size_t t = 0; t < ts.count; ++t) {
        if (t + kPrefetchDist < ts.count) {
          const uint32_t ahead = probe_rows[t + kPrefetchDist];
          if (probe_all_valid || probe_valid[ahead]) {
            ht.Prefetch(probe_keys[ahead]);
          }
        }
        const uint32_t prow = probe_rows[t];
        if (!probe_all_valid && !probe_valid[prow]) continue;
        for (int32_t e = ht.Find(probe_keys[prow], skip_recheck); e >= 0;
             e = ht.Next(e)) {
          if (++total > cap) {
            return Status::OutOfRange("join intermediate exceeds limit");
          }
          for (size_t j = 0; j < stride; ++j) out[j].push_back(ts.cols[j][t]);
          out[stride].push_back(ht.Row(e));
        }
      }
    } else {
      // Generic path: exactly the reference engine's Value-keyed build.
      std::unordered_map<Value, std::vector<uint32_t>, ValueHash> hash;
      hash.reserve(new_table.num_rows());
      for (size_t r = 0; r < new_table.num_rows(); ++r) {
        Value v = new_table.GetValue(r, build_col);
        if (v.is_null()) continue;
        hash[v].push_back(static_cast<uint32_t>(r));
      }
      for (size_t t = 0; t < ts.count; ++t) {
        Value v = probe_column.GetValue(probe_rows[t]);
        if (v.is_null()) continue;
        auto it = hash.find(v);
        if (it == hash.end()) continue;
        for (uint32_t r : it->second) {
          if (++total > cap) {
            return Status::OutOfRange("join intermediate exceeds limit");
          }
          for (size_t j = 0; j < stride; ++j) out[j].push_back(ts.cols[j][t]);
          out[stride].push_back(r);
        }
      }
    }

    ts.tables.push_back(new_ti);
    ts.cols = std::move(out);
    ts.count = static_cast<size_t>(total);
    stats->rows_joined += static_cast<double>(total);
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("vexec.join_rows")
          .Add(total);
    }
  }
  return ts;
}

void VectorizedEngine::CompareKernel(const TupleSetV& ts, size_t pos,
                                     int column_idx, CompareOp op,
                                     const Value& constant,
                                     Mask* out) const {
  if (constant.is_null()) return;  // NULL comparand: everything false
  const Column& col = db_->tables()[ts.tables[pos]].column(column_idx);
  const std::vector<uint32_t>& rows = ts.cols[pos];
  const std::vector<bool>& valid = col.validity();
  const bool all_valid = col.all_valid();
  const bool col_is_string = col.type() == DataType::kString ||
                             col.type() == DataType::kCategorical;

  // Mixed type ranks (string column vs numeric constant or vice versa):
  // Value::Compare returns the rank difference, constant across all
  // non-NULL rows — evaluate the operator once.
  if (col_is_string != constant.is_string()) {
    const bool hit = OpHolds(op, col_is_string ? 1 : -1);
    if (!hit) return;
    for (size_t t = 0; t < ts.count; ++t) {
      (*out)[t] = (all_valid || valid[rows[t]]) ? 1 : 0;
    }
    return;
  }

  switch (col.type()) {
    case DataType::kInt64: {
      const std::vector<int64_t>& data = col.ints();
      if (constant.is_int()) {
        const int64_t k = constant.as_int();
        for (size_t t = 0; t < ts.count; ++t) {
          const uint32_t r = rows[t];
          (*out)[t] =
              ((all_valid || valid[r]) && OpHolds(op, Sign3(data[r], k)))
                  ? 1
                  : 0;
        }
      } else {
        const double k = constant.as_double();
        for (size_t t = 0; t < ts.count; ++t) {
          const uint32_t r = rows[t];
          (*out)[t] = ((all_valid || valid[r]) &&
                       OpHolds(op, Sign3(static_cast<double>(data[r]), k)))
                          ? 1
                          : 0;
        }
      }
      return;
    }
    case DataType::kDouble: {
      const std::vector<double>& data = col.doubles();
      const double k = constant.AsNumber();
      for (size_t t = 0; t < ts.count; ++t) {
        const uint32_t r = rows[t];
        (*out)[t] =
            ((all_valid || valid[r]) && OpHolds(op, Sign3(data[r], k)))
                ? 1
                : 0;
      }
      return;
    }
    case DataType::kString:
    case DataType::kCategorical: {
      const std::vector<std::string>& data = col.strings();
      const std::string& k = constant.as_string();
      for (size_t t = 0; t < ts.count; ++t) {
        const uint32_t r = rows[t];
        (*out)[t] =
            ((all_valid || valid[r]) && OpHolds(op, data[r].compare(k)))
                ? 1
                : 0;
      }
      return;
    }
  }
}

Status VectorizedEngine::EvalPredicate(const Predicate& p,
                                       const TupleSetV& ts, Mask* out,
                                       ExecStats* stats) const {
  out->assign(ts.count, 0);
  switch (p.kind) {
    case PredicateKind::kValue: {
      const size_t pos = ts.ChainPos(p.column.table_idx);
      if (pos == ts.tables.size()) return Status::Ok();  // out of scope
      CompareKernel(ts, pos, p.column.column_idx, p.op, p.value, out);
      return Status::Ok();
    }
    case PredicateKind::kScalarSub: {
      auto sub = RunSelect(*p.subquery, /*materialize=*/true);
      if (!sub.ok()) return sub.status();
      stats->Add(sub->stats);
      if (sub->cardinality != 1 || sub->first_column.empty()) {
        return Status::Ok();  // non-scalar subquery result: predicate false
      }
      const Value& scalar = sub->first_column[0];
      const size_t pos = ts.ChainPos(p.column.table_idx);
      if (pos == ts.tables.size()) return Status::Ok();
      CompareKernel(ts, pos, p.column.column_idx, p.op, scalar, out);
      return Status::Ok();
    }
    case PredicateKind::kInSub: {
      auto sub = RunSelect(*p.subquery, /*materialize=*/true);
      if (!sub.ok()) return sub.status();
      stats->Add(sub->stats);
      // Same Value-keyed membership set as the reference engine so the
      // (int, double) equality/hash quirks are shared, not reinvented.
      std::unordered_set<Value, ValueHash> members(sub->first_column.begin(),
                                                   sub->first_column.end());
      for (size_t t = 0; t < ts.count; ++t) {
        Value v = TupleValue(ts, t, p.column);
        if (v.is_null()) continue;
        (*out)[t] = members.count(v) > 0 ? 1 : 0;
      }
      return Status::Ok();
    }
    case PredicateKind::kExistsSub: {
      auto sub = RunSelect(*p.subquery, /*materialize=*/false);
      if (!sub.ok()) return sub.status();
      stats->Add(sub->stats);
      bool exists = sub->cardinality > 0;
      if (p.negated) exists = !exists;
      out->assign(ts.count, exists ? 1 : 0);
      return Status::Ok();
    }
    case PredicateKind::kLike: {
      if (!p.value.is_string()) return Status::Ok();
      const size_t pos = ts.ChainPos(p.column.table_idx);
      if (pos == ts.tables.size()) return Status::Ok();
      const Column& col =
          db_->tables()[ts.tables[pos]].column(p.column.column_idx);
      if (col.type() != DataType::kString &&
          col.type() != DataType::kCategorical) {
        return Status::Ok();  // non-string values never LIKE-match
      }
      const std::string& pattern = p.value.as_string();
      const std::vector<std::string>& data = col.strings();
      const std::vector<bool>& valid = col.validity();
      const bool all_valid = col.all_valid();
      const std::vector<uint32_t>& rows = ts.cols[pos];
      for (size_t t = 0; t < ts.count; ++t) {
        const uint32_t r = rows[t];
        if (!all_valid && !valid[r]) continue;
        (*out)[t] = LikeMatch(data[r], pattern) ? 1 : 0;
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown predicate kind");
}

Status VectorizedEngine::ApplyWhere(const WhereClause& where, TupleSetV* ts,
                                    ExecStats* stats) const {
  if (where.empty()) return Status::Ok();
  std::vector<Mask> results(where.predicates.size());
  for (size_t i = 0; i < where.predicates.size(); ++i) {
    LSG_RETURN_IF_ERROR(
        EvalPredicate(where.predicates[i], *ts, &results[i], stats));
  }

  // One pass, batch by batch in tuple order: combine the masks and compact
  // the survivors in place (the write index never passes the read index),
  // matching the reference filter loop's order.
  const bool drop_last = opts_.inject == InjectBug::kSelVectorOffByOne;
  const size_t stride = ts->tables.size();
  std::vector<bool> local(results.size());
  size_t w = 0;
  for (size_t begin = 0; begin < ts->count; begin += kBatchSize) {
    const size_t end = std::min(begin + kBatchSize, ts->count);
    // Injected bug: the batch loop bound excludes the final tuple.
    const size_t bug_end = drop_last ? end - 1 : end;
    for (size_t t = begin; t < bug_end; ++t) {
      for (size_t i = 0; i < results.size(); ++i) {
        local[i] = results[i][t] != 0;
      }
      if (!CombinePredicates(local, where.connectors)) continue;
      for (size_t j = 0; j < stride; ++j) ts->cols[j][w] = ts->cols[j][t];
      ++w;
    }
  }
  for (std::vector<uint32_t>& c : ts->cols) c.resize(w);
  ts->count = w;
  return Status::Ok();
}

StatusOr<SelectResult> VectorizedEngine::ExecuteSelect(
    const SelectQuery& q, bool materialize_first_column) const {
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("vexec.select_ns")
          : nullptr);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter("vexec.select_queries").Inc();
  }
  return RunSelect(q, materialize_first_column);
}

StatusOr<SelectResult> VectorizedEngine::RunSelect(
    const SelectQuery& q, bool materialize_first_column) const {
  SelectResult result;
  LSG_ASSIGN_OR_RETURN(TupleSetV ts, BuildJoin(q, &result.stats));
  LSG_RETURN_IF_ERROR(ApplyWhere(q.where, &ts, &result.stats));

  // Sequential finalizer, tuple order = reference order, shared aggregate
  // helpers: every double accumulation below is bitwise-identical to the
  // reference engine's.
  const bool has_agg = q.HasAggregate();

  if (q.group_by.empty()) {
    if (!has_agg) {
      result.cardinality = ts.count;
      if (materialize_first_column && !q.items.empty()) {
        result.first_column.reserve(ts.count);
        for (size_t t = 0; t < ts.count; ++t) {
          result.first_column.push_back(TupleValue(ts, t, q.items[0].column));
        }
      }
    } else {
      result.cardinality = 1;
      if (materialize_first_column && !q.items.empty()) {
        std::vector<Value> col;
        col.reserve(ts.count);
        for (size_t t = 0; t < ts.count; ++t) {
          col.push_back(TupleValue(ts, t, q.items[0].column));
        }
        result.first_column.push_back(AggregateValues(q.items[0].agg, col));
      }
    }
    result.stats.rows_output += static_cast<double>(result.cardinality);
    return result;
  }

  const Grouping groups = GroupTuples(*db_, ts, q.group_by);
  uint64_t passing = 0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    const uint32_t* rows = groups.members.data() + groups.start[g];
    const size_t n = groups.start[g + 1] - groups.start[g];
    bool pass = true;
    if (q.having.has_value()) {
      std::vector<Value> col;
      col.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        col.push_back(TupleValue(ts, rows[i], q.having->column));
      }
      Value agg = AggregateValues(q.having->agg, col);
      pass = CompareValues(agg, q.having->op, q.having->value);
    }
    if (!pass) continue;
    ++passing;
    if (materialize_first_column && !q.items.empty()) {
      const SelectItem& item = q.items[0];
      if (item.agg == AggFunc::kNone) {
        result.first_column.push_back(TupleValue(ts, rows[0], item.column));
      } else {
        std::vector<Value> col;
        col.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          col.push_back(TupleValue(ts, rows[i], item.column));
        }
        result.first_column.push_back(AggregateValues(item.agg, col));
      }
    }
  }
  result.cardinality = passing;
  result.stats.rows_output += static_cast<double>(passing);
  return result;
}

StatusOr<std::vector<bool>> VectorizedEngine::MatchRows(
    int table_idx, const WhereClause& where) const {
  if (table_idx < 0 || static_cast<size_t>(table_idx) >= db_->num_tables()) {
    return Status::InvalidArgument("MatchRows: table index out of range");
  }
  const size_t n = db_->tables()[table_idx].num_rows();
  std::vector<bool> match(n, true);
  if (where.empty()) return match;

  TupleSetV ts;
  ts.tables = {table_idx};
  ts.count = n;
  ts.cols.emplace_back(n);
  for (size_t r = 0; r < n; ++r) ts.cols[0][r] = static_cast<uint32_t>(r);

  ExecStats stats;
  std::vector<Mask> results(where.predicates.size());
  for (size_t i = 0; i < where.predicates.size(); ++i) {
    LSG_RETURN_IF_ERROR(
        EvalPredicate(where.predicates[i], ts, &results[i], &stats));
  }
  std::vector<bool> per_pred(where.predicates.size());
  for (size_t t = 0; t < n; ++t) {
    for (size_t i = 0; i < results.size(); ++i) {
      per_pred[i] = results[i][t] != 0;
    }
    match[t] = CombinePredicates(per_pred, where.connectors);
  }
  return match;
}

StatusOr<uint64_t> VectorizedEngine::Cardinality(const QueryAst& ast) const {
  switch (ast.type) {
    case QueryType::kSelect: {
      if (ast.select == nullptr) {
        return Status::InvalidArgument("empty SELECT ast");
      }
      auto r = ExecuteSelect(*ast.select, /*materialize=*/false);
      if (!r.ok()) return r.status();
      return r->cardinality;
    }
    case QueryType::kInsert: {
      if (ast.insert == nullptr) {
        return Status::InvalidArgument("empty INSERT ast");
      }
      if (ast.insert->source != nullptr) {
        auto r = ExecuteSelect(*ast.insert->source, /*materialize=*/false);
        if (!r.ok()) return r.status();
        return r->cardinality;
      }
      return static_cast<uint64_t>(1);
    }
    case QueryType::kUpdate: {
      if (ast.update == nullptr) {
        return Status::InvalidArgument("empty UPDATE ast");
      }
      SelectQuery probe;
      probe.tables = {ast.update->table_idx};
      ExecStats stats;
      LSG_ASSIGN_OR_RETURN(TupleSetV ts, BuildJoin(probe, &stats));
      LSG_RETURN_IF_ERROR(ApplyWhere(ast.update->where, &ts, &stats));
      return static_cast<uint64_t>(ts.count);
    }
    case QueryType::kDelete: {
      if (ast.del == nullptr) {
        return Status::InvalidArgument("empty DELETE ast");
      }
      SelectQuery probe;
      probe.tables = {ast.del->table_idx};
      ExecStats stats;
      LSG_ASSIGN_OR_RETURN(TupleSetV ts, BuildJoin(probe, &stats));
      LSG_RETURN_IF_ERROR(ApplyWhere(ast.del->where, &ts, &stats));
      return static_cast<uint64_t>(ts.count);
    }
  }
  return Status::Internal("unknown query type");
}

}  // namespace vexec
}  // namespace lsg
