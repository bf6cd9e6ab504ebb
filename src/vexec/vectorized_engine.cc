#include "vexec/vectorized_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// Prefetch distance of the random-access loops (join build and probe,
/// grouping): far enough ahead to hide a memory round-trip behind ~16
/// iterations' work, near enough that the line is still resident when
/// the access arrives.
constexpr size_t kPrefetchDist = 16;

/// Canonical 64-bit image of a DOUBLE group-key cell. The printed key the
/// reference evaluator groups by (GroupKeyOf -> FormatDouble) is injective
/// up to `==`, except that a NaN prints only its sign ("nan" / "-nan"): so -0.0
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

  /// Folds each of the first `count` tuples' cells into hash[t], through a
  /// 64-bit image that is equal for cells of one GroupKeyOf class (Same).
  /// One typed loop per column type.
  void MixInto(uint64_t* hash, size_t count) const {
    auto mix = [&](const auto& data, auto image) {
      for (size_t t = 0; t < count; ++t) {
        if (t + kPrefetchDist < count) {
          __builtin_prefetch(data.data() + rows[t + kPrefetchDist]);
        }
        const uint32_t r = rows[t];
        hash[t] = Mix64(hash[t] ^
                        (Valid(r) ? static_cast<uint64_t>(image(data[r]))
                                  : 0x6a09e667f3bcc909ull));
      }
    };
    switch (col->type()) {
      case DataType::kInt64:
        mix(col->ints(), [](int64_t v) { return v; });
        return;
      case DataType::kDouble:
        mix(col->doubles(), CanonicalDoubleBits);
        return;
      case DataType::kString:
      case DataType::kCategorical:
        mix(col->strings(), std::hash<std::string>{});
        return;
    }
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

/// Typed GROUP BY over the Column backing arrays, in two passes: writes
/// each tuple's group to group_of (groups numbered in first-appearance,
/// i.e. tuple, order) and returns the number of groups. Pass one hashes
/// every tuple's key column by column (tight loops over the row id
/// arrays). Pass two finds each tuple's group in an open-addressing table
/// of (hash, group) slots, prefetching a few tuples ahead, and rechecks a
/// hash match cell by cell against the group's first tuple with
/// KeyColumn::Same — the GroupKeyOf classes, so both engines induce the
/// same partition. A key column whose table is not in the chain is
/// NULL for every tuple, so it never splits a group and is left out.
size_t AssignGroups(const Database& db, const TupleSetV& ts,
                    const std::vector<ColumnRef>& group_by,
                    std::vector<uint32_t>* group_of) {
  std::vector<KeyColumn> keys;
  for (const ColumnRef& c : group_by) {
    const size_t pos = ts.ChainPos(c.table_idx);
    if (pos == ts.tables.size()) continue;
    keys.push_back({&db.tables()[c.table_idx].column(c.column_idx),
                    ts.cols[pos].data()});
  }

  std::vector<uint64_t> hash(ts.count, 0x9e3779b97f4a7c15ull);
  for (const KeyColumn& k : keys) k.MixInto(hash.data(), ts.count);

  struct Slot {
    uint64_t hash;
    int64_t group;  // -1 = empty
  };
  // Sized for one group per tuple (load below 1/2) up to 64K slots, so
  // that a table of mostly distinct keys does not grow slot by slot.
  size_t num_slots = 1024;
  while (num_slots < 2 * ts.count && num_slots < (size_t{1} << 16)) {
    num_slots <<= 1;
  }
  std::vector<Slot> slots(num_slots, Slot{0, -1});
  size_t mask = slots.size() - 1;
  std::vector<uint32_t> first;  // per group: its first tuple
  group_of->resize(ts.count);
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
    (*group_of)[t] = static_cast<uint32_t>(g);
  }
  return first.size();
}

/// AssignGroups, then each group's tuples bucketed by a counting sort:
/// stable, so each group keeps tuple order.
Grouping GroupTuples(const Database& db, const TupleSetV& ts,
                     const std::vector<ColumnRef>& group_by) {
  std::vector<uint32_t> group_of;
  const size_t num_groups = AssignGroups(db, ts, group_by, &group_of);
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

/// The WHERE filter loop of both paths: walks tuples [0, count) batch by
/// batch in order and calls keep(t) for each tuple whose predicate
/// results (masks[i][t], 0 or 1; at least one mask) hold when combined by
/// `connectors`. The
/// combination is CombinePredicates' rule (AND-runs first, then OR them
/// together) applied column-wise over the batch. The build path's
/// compaction and the count path's per-table filters both run here.
template <typename Keep>
void ForEachKept(const std::vector<const Mask*>& masks,
                 const std::vector<BoolConn>& connectors, size_t count,
                 Keep&& keep) {
  Mask or_acc(kBatchSize), and_acc(kBatchSize);
  for (size_t begin = 0; begin < count; begin += kBatchSize) {
    const size_t len = std::min(kBatchSize, count - begin);
    std::fill_n(or_acc.begin(), len, 0);
    std::copy_n(masks[0]->begin() + begin, len, and_acc.begin());
    for (size_t i = 0; i < connectors.size(); ++i) {
      const uint8_t* m = masks[i + 1]->data() + begin;
      if (connectors[i] == BoolConn::kAnd) {
        for (size_t t = 0; t < len; ++t) and_acc[t] &= m[t];
      } else {
        for (size_t t = 0; t < len; ++t) {
          or_acc[t] |= and_acc[t];
          and_acc[t] = m[t];
        }
      }
    }
    for (size_t t = 0; t < len; ++t) {
      if (or_acc[t] | and_acc[t]) keep(begin + t);
    }
  }
}

/// Every row of one table, as a one-table working set.
TupleSetV AllRows(int table_idx, size_t rows) {
  TupleSetV ts;
  ts.tables = {table_idx};
  ts.count = rows;
  ts.cols.emplace_back(rows);
  for (size_t r = 0; r < rows; ++r) ts.cols[0][r] = static_cast<uint32_t>(r);
  return ts;
}

/// The join hash table over an INT64 build column, its rows inserted in
/// ascending order (the reference's nested-loop order). A key-range scan
/// comes first: sequential-PK build sides (every FK edge in the bundled
/// datasets) get the dense direct-address mode — no hashing, no
/// collisions, one bounded-index load per probe. `keys`, when given,
/// receives each row's key class: its chain head, or -1 for NULL.
Int64JoinHashTable BuildInt64Table(const Column& col,
                                   std::vector<int32_t>* keys) {
  const std::vector<int64_t>& build_keys = col.ints();
  const std::vector<bool>& valid = col.validity();
  const bool all_valid = col.all_valid();
  const size_t rows = col.size();
  int64_t min_key = 0, max_key = -1;
  bool have_key = false;
  for (size_t r = 0; r < rows; ++r) {
    if (!all_valid && !valid[r]) continue;
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
      have_key && Int64JoinHashTable::DenseRangeUsable(min_key, max_key, rows);
  Int64JoinHashTable ht = use_dense
                              ? Int64JoinHashTable(min_key, max_key, rows)
                              : Int64JoinHashTable(rows);
  if (keys != nullptr) keys->assign(rows, -1);
  for (size_t r = 0; r < rows; ++r) {
    if (r + kPrefetchDist < rows && (all_valid || valid[r + kPrefetchDist])) {
      ht.Prefetch(build_keys[r + kPrefetchDist]);
    }
    if (!all_valid && !valid[r]) continue;
    const int32_t head = ht.Insert(build_keys[r], static_cast<uint32_t>(r));
    if (keys != nullptr) (*keys)[r] = head;
  }
  return ht;
}

/// Each row's key class on the probe side of a join: the chain head its
/// INT64 key finds in `ht` (-1: NULL or no match).
std::vector<int32_t> ProbeKeys(const Int64JoinHashTable& ht,
                               const Column& col) {
  const std::vector<int64_t>& keys = col.ints();
  const std::vector<bool>& valid = col.validity();
  const bool all_valid = col.all_valid();
  const size_t rows = col.size();
  std::vector<int32_t> out(rows, -1);
  for (size_t r = 0; r < rows; ++r) {
    if (r + kPrefetchDist < rows && (all_valid || valid[r + kPrefetchDist])) {
      ht.Prefetch(keys[r + kPrefetchDist]);
    }
    if (!all_valid && !valid[r]) continue;
    out[r] = ht.Find(keys[r]);
  }
  return out;
}

/// Saturating arithmetic for the count path's tuple counts: a count past
/// UINT64_MAX pins there, above every join cap short of UINT64_MAX, and a
/// product of nonzero factors never falls to 0.
inline uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t s;
  return __builtin_add_overflow(a, b, &s) ? UINT64_MAX : s;
}
inline uint64_t SatMul(uint64_t a, uint64_t b) {
  uint64_t p;
  return __builtin_mul_overflow(a, b, &p) ? UINT64_MAX : p;
}
uint64_t SatSum(const std::vector<uint64_t>& v) {
  uint64_t s = 0;
  for (uint64_t x : v) s = SatAdd(s, x);
  return s;
}

/// A FROM chain as the tree the count path sums over. Chain position
/// i >= 1 hangs off position parent[i], the probe table of its FK edge; a
/// row of i and a row of parent[i] join iff their key classes are equal
/// and non-negative. Per-position vectors are indexed by chain position
/// (entry 0 of the per-edge ones is unused).
struct CountTree {
  std::vector<size_t> rows;                      ///< table rows
  std::vector<size_t> parent;                    ///< the edge's probe side
  std::vector<std::vector<int32_t>> key;         ///< class of each row of i
  std::vector<std::vector<int32_t>> parent_key;  ///< ... of parent[i]
  std::vector<size_t> num_keys;                  ///< classes of edge i

  /// Per row r of position v: the number of tuples of the join of chain
  /// positions [0, n) that contain r, each weighted by the product of its
  /// rows' `base` weights (an empty base is all ones). The tree is rooted
  /// at v and summed bottom-up, one message per edge (Yannakakis-style
  /// counting); `from` is the neighbour the recursion came from.
  std::vector<uint64_t> Weights(size_t v, size_t n,
                                const std::vector<std::vector<uint64_t>>& base,
                                size_t from = SIZE_MAX) const {
    std::vector<uint64_t> w =
        base[v].empty() ? std::vector<uint64_t>(rows[v], 1) : base[v];
    std::vector<uint64_t> sums;
    for (size_t u = 0; u < n; ++u) {
      const bool u_is_child = u > 0 && parent[u] == v;
      if (u == from || !(u_is_child || (v > 0 && parent[v] == u))) continue;
      const std::vector<uint64_t> wu = Weights(u, n, base, v);
      const size_t e = u_is_child ? u : v;  // the edge's child position
      const std::vector<int32_t>& from_keys =
          u_is_child ? key[e] : parent_key[e];
      const std::vector<int32_t>& to_keys =
          u_is_child ? parent_key[e] : key[e];
      sums.assign(num_keys[e], 0);
      for (size_t s = 0; s < wu.size(); ++s) {
        const int32_t k = from_keys[s];
        if (k >= 0) sums[k] = SatAdd(sums[k], wu[s]);
      }
      for (size_t r = 0; r < w.size(); ++r) {
        w[r] = to_keys[r] >= 0 ? SatMul(w[r], sums[to_keys[r]]) : 0;
      }
    }
    return w;
  }
};

/// The count path's row filters: 0/1 weights per row of each chain
/// position the WHERE touches (empty = all ones), from the predicates'
/// masks — masks[i] is over the rows of position owner[i], or one
/// element for a constant (owner[i] = rows.size()). Each touched table
/// combines its own predicates and the constants, by the WHERE's
/// connectors when it is the only one, else by AND; with only constants,
/// the first table carries them.
std::vector<std::vector<uint64_t>> RowFilters(
    const WhereClause& where, const std::vector<size_t>& owner,
    const std::vector<Mask>& masks, const std::vector<size_t>& rows) {
  const size_t n = rows.size();
  std::vector<size_t> filtered;
  for (size_t pos : owner) {
    if (pos < n &&
        std::find(filtered.begin(), filtered.end(), pos) == filtered.end()) {
      filtered.push_back(pos);
    }
  }
  if (filtered.empty() && !owner.empty()) filtered.push_back(0);
  std::vector<std::vector<uint64_t>> base(n);
  for (size_t pos : filtered) {
    std::vector<const Mask*> own;
    std::vector<Mask> constants;
    constants.reserve(owner.size());
    for (size_t i = 0; i < owner.size(); ++i) {
      if (owner[i] == pos) {
        own.push_back(&masks[i]);
      } else if (owner[i] == n) {
        constants.emplace_back(rows[pos], masks[i][0]);
        own.push_back(&constants.back());
      }
    }
    const std::vector<BoolConn> connectors =
        filtered.size() == 1
            ? where.connectors
            : std::vector<BoolConn>(own.size() - 1, BoolConn::kAnd);
    base[pos].assign(rows[pos], 0);
    ForEachKept(own, connectors, rows[pos],
                [&](size_t r) { base[pos][r] = 1; });
  }
  return base;
}

}  // namespace

/// A count-path query (see RunSelect): its shape, the chain's FK edges
/// (edges[i - 1] joins chain position i) and, per WHERE predicate, the
/// chain position of its column — tables.size() for a constant: EXISTS,
/// or a column outside the chain.
struct VectorizedEngine::CountPlan {
  enum class Shape {
    kRows,    ///< no GROUP BY, no aggregate: the filtered join's size
    kOneRow,  ///< an aggregate without GROUP BY: one row
    kGroups,  ///< GROUP BY on one chain table, no HAVING
  };
  Shape shape = Shape::kRows;
  std::vector<ChainJoin> edges;
  std::vector<size_t> owner;
  size_t group_pos = 0;  ///< kGroups: the key table's chain position
};

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
  TupleSetV ts = AllRows(q.tables[0], db_->tables()[q.tables[0]].num_rows());
  stats->rows_scanned += static_cast<double>(ts.count);

  for (size_t i = 1; i < q.tables.size(); ++i) {
    const int new_ti = q.tables[i];
    const Table& new_table = db_->tables()[new_ti];
    stats->rows_scanned += static_cast<double>(new_table.num_rows());

    // q.tables, not ts.tables: ts has not joined tables[i] yet.
    const auto edge = cat.JoinIntoChain(q.tables, i);
    if (!edge) {
      return Status::InvalidArgument("no FK edge joins " +
                                     cat.table(new_ti).name() +
                                     " into the chain");
    }
    const size_t stride = ts.tables.size();
    const Column& build_column = new_table.column(edge->build_col);
    const Column& probe_column =
        db_->tables()[ts.tables[edge->probe_pos]].column(edge->probe_col);
    const std::vector<uint32_t>& probe_rows = ts.cols[edge->probe_pos];

    stats->rows_probed += static_cast<double>(ts.count);
    const uint64_t cap = opts_.max_intermediate_tuples;
    // Matches append straight into the output columns (the new table's rows
    // in the last slot), in tuple order; the cap is checked on the running
    // total, so a rejected join stops at cap + 1 like the reference.
    std::vector<std::vector<uint32_t>> out(stride + 1);
    for (auto& c : out) c.reserve(std::min<uint64_t>(ts.count, cap));
    uint64_t total = 0;

    if (build_column.type() == DataType::kInt64 &&
        probe_column.type() == DataType::kInt64) {
      // Typed path: open-addressing INT64 table, typed probe keys.
      const Int64JoinHashTable ht = BuildInt64Table(build_column, nullptr);
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
        for (int32_t e = ht.Find(probe_keys[prow]); e >= 0; e = ht.Next(e)) {
          if (++total > cap) {
            return Status::OutOfRange("join intermediate exceeds limit");
          }
          for (size_t j = 0; j < stride; ++j) out[j].push_back(ts.cols[j][t]);
          out[stride].push_back(ht.Row(e));
        }
      }
    } else {
      // Generic path: a Value-keyed build, rows chained ascending.
      std::unordered_map<Value, std::vector<uint32_t>, ValueHash> hash;
      hash.reserve(new_table.num_rows());
      for (size_t r = 0; r < new_table.num_rows(); ++r) {
        Value v = new_table.GetValue(r, edge->build_col);
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
      // A Value-keyed membership set (Value equality and ValueHash).
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
  std::vector<const Mask*> masks;
  for (size_t i = 0; i < where.predicates.size(); ++i) {
    LSG_RETURN_IF_ERROR(
        EvalPredicate(where.predicates[i], *ts, &results[i], stats));
    masks.push_back(&results[i]);
  }

  // Compact the survivors in place (the write index never passes the read
  // index), matching the reference filter loop's order.
  const size_t stride = ts->tables.size();
  size_t w = 0;
  ForEachKept(masks, where.connectors, ts->count, [&](size_t t) {
    for (size_t j = 0; j < stride; ++j) ts->cols[j][w] = ts->cols[j][t];
    ++w;
  });
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

bool VectorizedEngine::PlanCount(const SelectQuery& q, CountPlan* plan) const {
  const std::vector<int>& tables = q.tables;
  const size_t n = tables.size();
  if (n == 0) return false;
  for (size_t i = 1; i < n; ++i) {  // a repeated table: build
    if (std::find(tables.begin(), tables.begin() + i, tables[i]) !=
        tables.begin() + i) {
      return false;
    }
  }
  auto chain_pos = [&](int table_idx) {
    return static_cast<size_t>(
        std::find(tables.begin(), tables.end(), table_idx) - tables.begin());
  };

  if (q.group_by.empty()) {
    plan->shape = q.HasAggregate() ? CountPlan::Shape::kOneRow
                                   : CountPlan::Shape::kRows;
  } else {
    if (q.having.has_value()) return false;
    const int key_table = q.group_by[0].table_idx;
    plan->group_pos = chain_pos(key_table);
    if (plan->group_pos == n) return false;
    for (const ColumnRef& c : q.group_by) {
      if (c.table_idx != key_table) return false;
    }
    plan->shape = CountPlan::Shape::kGroups;
  }
  // The WHERE must be AND-only or touch at most one chain table, so that
  // it factors into one row filter per table. An aggregate's WHERE is all
  // constants: it runs only for its subqueries' stats and errors.
  plan->owner.clear();
  size_t touched = n;
  bool several = false;
  for (const Predicate& p : q.where.predicates) {
    const size_t pos = p.kind == PredicateKind::kExistsSub ||
                               plan->shape == CountPlan::Shape::kOneRow
                           ? n
                           : chain_pos(p.column.table_idx);
    plan->owner.push_back(pos);
    if (pos == n) continue;
    if (touched != n && touched != pos) several = true;
    touched = pos;
  }
  if (several && !std::all_of(q.where.connectors.begin(),
                              q.where.connectors.end(), [](BoolConn c) {
                                return c == BoolConn::kAnd;
                              })) {
    return false;
  }

  // Every edge must join INT64 columns: the count path counts through the
  // Int64JoinHashTable. A missing edge builds too, and fails there.
  const Catalog& cat = db_->catalog();
  plan->edges.clear();
  for (size_t i = 1; i < n; ++i) {
    const auto edge = cat.JoinIntoChain(tables, i);
    if (!edge ||
        db_->tables()[tables[i]].column(edge->build_col).type() !=
            DataType::kInt64 ||
        db_->tables()[tables[edge->probe_pos]].column(edge->probe_col).type() !=
            DataType::kInt64) {
      return false;
    }
    plan->edges.push_back(*edge);
  }
  return true;
}

StatusOr<SelectResult> VectorizedEngine::CountSelect(
    const SelectQuery& q, const CountPlan& plan) const {
  SelectResult result;
  ExecStats& stats = result.stats;
  const size_t n = q.tables.size();

  // The join stages: each one's unfiltered size gives the meters and the
  // cap decision, as the build path's running total does.
  CountTree tree;
  tree.rows.push_back(db_->tables()[q.tables[0]].num_rows());
  tree.parent.push_back(0);
  tree.key.emplace_back();
  tree.parent_key.emplace_back();
  tree.num_keys.push_back(0);
  stats.rows_scanned += static_cast<double>(tree.rows[0]);
  const std::vector<std::vector<uint64_t>> unfiltered(n);
  uint64_t size = tree.rows[0];
  for (size_t i = 1; i < n; ++i) {
    const ChainJoin& edge = plan.edges[i - 1];
    const Table& new_table = db_->tables()[q.tables[i]];
    tree.rows.push_back(new_table.num_rows());
    stats.rows_scanned += static_cast<double>(tree.rows[i]);
    tree.parent.push_back(edge.probe_pos);
    tree.key.emplace_back();
    const Int64JoinHashTable ht =
        BuildInt64Table(new_table.column(edge.build_col), &tree.key.back());
    tree.parent_key.push_back(ProbeKeys(
        ht, db_->tables()[q.tables[edge.probe_pos]].column(edge.probe_col)));
    tree.num_keys.push_back(ht.num_entries());

    stats.rows_probed += static_cast<double>(size);
    size = SatSum(tree.Weights(0, i + 1, unfiltered));
    if (size > opts_.max_intermediate_tuples) {
      return Status::OutOfRange("join intermediate exceeds limit");
    }
    stats.rows_joined += static_cast<double>(size);
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global().GetCounter("vexec.join_rows").Add(size);
    }
  }

  // The WHERE, in predicate order: each predicate runs once, over its own
  // table's rows, or — a constant — over one tuple that sees no table.
  const std::vector<Predicate>& preds = q.where.predicates;
  std::vector<Mask> masks(preds.size());
  std::vector<TupleSetV> scans(n);
  TupleSetV no_table;
  no_table.count = 1;
  for (size_t i = 0; i < preds.size(); ++i) {
    const size_t pos = plan.owner[i];
    if (pos < n && scans[pos].tables.empty()) {
      scans[pos] = AllRows(q.tables[pos], tree.rows[pos]);
    }
    LSG_RETURN_IF_ERROR(EvalPredicate(
        preds[i], pos < n ? scans[pos] : no_table, &masks[i], &stats));
  }

  switch (plan.shape) {
    case CountPlan::Shape::kOneRow:
      result.cardinality = 1;
      break;
    case CountPlan::Shape::kRows:
      result.cardinality =
          preds.empty()
              ? size
              : SatSum(tree.Weights(
                    0, n, RowFilters(q.where, plan.owner, masks, tree.rows)));
      break;
    case CountPlan::Shape::kGroups: {
      // The groups are the key classes of the key table's rows that take
      // part in at least one surviving tuple.
      const std::vector<uint64_t> w = tree.Weights(
          plan.group_pos, n,
          RowFilters(q.where, plan.owner, masks, tree.rows));
      TupleSetV live;
      live.tables = {q.tables[plan.group_pos]};
      live.cols.emplace_back();
      for (size_t r = 0; r < w.size(); ++r) {
        if (w[r] > 0) live.cols[0].push_back(static_cast<uint32_t>(r));
      }
      live.count = live.cols[0].size();
      std::vector<uint32_t> group_of;
      result.cardinality = AssignGroups(*db_, live, q.group_by, &group_of);
      break;
    }
  }
  stats.rows_output += static_cast<double>(result.cardinality);
  return result;
}

StatusOr<SelectResult> VectorizedEngine::RunSelect(
    const SelectQuery& q, bool materialize_first_column) const {
  if (!materialize_first_column) {
    CountPlan plan;
    if (PlanCount(q, &plan)) return CountSelect(q, plan);
  }
  SelectResult result;
  LSG_ASSIGN_OR_RETURN(TupleSetV ts, BuildJoin(q, &result.stats));
  LSG_RETURN_IF_ERROR(ApplyWhere(q.where, &ts, &result.stats));

  // Sequential finalizer, tuple order = reference order, aggregates as a
  // left fold in tuple order: every double accumulation below is
  // bitwise-identical to the reference evaluator's.
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
  TupleSetV ts = AllRows(table_idx, n);
  ExecStats stats;
  LSG_RETURN_IF_ERROR(ApplyWhere(where, &ts, &stats));
  std::vector<bool> match(n, false);
  for (uint32_t r : ts.cols[0]) match[r] = true;
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
