#include "fsm/compiled_fsm.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <tuple>
#include <unordered_map>

#include "analysis/state_key.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace lsg {

namespace {

constexpr char kMagic[8] = {'L', 'S', 'G', 'C', 'F', 'S', '1', '\n'};

uint64_t HashBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  // FNV-1a over the bytes, SplitMix64-finalised by the caller's chaining.
  uint64_t x = 1469598103934665603ull ^ h;
  for (size_t i = 0; i < n; ++i) {
    x ^= p[i];
    x *= 1099511628211ull;
  }
  return SplitMix64(x);
}

uint64_t HashU64(uint64_t h, uint64_t v) { return SplitMix64(h ^ SplitMix64(v)); }

uint64_t HashStr(uint64_t h, const std::string& s) {
  return HashBytes(HashU64(h, s.size()), s.data(), s.size());
}

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}
void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof v); }
void AppendI32(std::string* out, int32_t v) { AppendRaw(out, &v, sizeof v); }

/// Bounds-checked sequential reader over a loaded payload.
class Reader {
 public:
  Reader(const char* data, size_t n) : data_(data), size_(n) {}
  bool Raw(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof *v); }
  bool U64(uint64_t* v) { return Raw(v, sizeof *v); }
  bool I32(int32_t* v) { return Raw(v, sizeof *v); }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

uint64_t CompiledFsmFingerprint(const Database& db, const Vocabulary& vocab,
                                const QueryProfile& profile) {
  uint64_t h = 0x6c73672d6366736dull;  // "lsg-cfsm"
  const Catalog& cat = db.catalog();
  h = HashU64(h, cat.num_tables());
  for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
    const TableSchema& ts = cat.table(ti);
    h = HashStr(h, ts.name());
    h = HashU64(h, ts.num_columns());
    for (size_t ci = 0; ci < ts.num_columns(); ++ci) {
      const ColumnSchema& c = ts.column(ci);
      h = HashStr(h, c.name);
      h = HashU64(h, static_cast<uint64_t>(c.type));
      h = HashU64(h, (c.is_primary_key ? 2u : 0u) | (c.nullable ? 1u : 0u));
    }
  }
  h = HashU64(h, cat.foreign_keys().size());
  for (const ForeignKey& fk : cat.foreign_keys()) {
    h = HashStr(h, fk.from_table);
    h = HashStr(h, fk.from_column);
    h = HashStr(h, fk.to_table);
    h = HashStr(h, fk.to_column);
  }
  h = HashU64(h, vocab.size());
  for (int id = 0; id < vocab.size(); ++id) {
    const Token& t = vocab.token(id);
    h = HashU64(h, static_cast<uint64_t>(t.kind));
    h = HashU64(h, static_cast<uint64_t>(t.keyword));
    h = HashU64(h, static_cast<uint64_t>(t.op));
    h = HashU64(h, static_cast<uint64_t>(t.table_idx) << 32 |
                       static_cast<uint32_t>(t.column.table_idx));
    h = HashU64(h, static_cast<uint64_t>(t.column.column_idx) << 32 |
                       static_cast<uint32_t>(t.value_column_table));
    h = HashU64(h, static_cast<uint64_t>(t.value_column_idx) << 1 |
                       (t.is_pattern ? 1 : 0));
    h = HashStr(h, t.text);
  }
  // Every mask-relevant profile knob EXCEPT max_tokens: the table is
  // budget-free (three regime masks per state; the threshold that picks a
  // regime is evaluated at runtime), so one artifact serves every budget.
  const uint64_t flags =
      (profile.allow_select ? 1ull : 0) | (profile.allow_insert ? 1ull : 0) << 1 |
      (profile.allow_update ? 1ull : 0) << 2 |
      (profile.allow_delete ? 1ull : 0) << 3 |
      (profile.allow_join ? 1ull : 0) << 4 |
      (profile.allow_aggregate ? 1ull : 0) << 5 |
      (profile.allow_group_by ? 1ull : 0) << 6 |
      (profile.allow_nested ? 1ull : 0) << 7 |
      (profile.allow_exists ? 1ull : 0) << 8 |
      (profile.allow_insert_select ? 1ull : 0) << 9 |
      (profile.allow_like ? 1ull : 0) << 10 |
      (profile.allow_order_by ? 1ull : 0) << 11 |
      (profile.require_nested ? 1ull : 0) << 12 |
      (profile.inject_agg_type_gap ? 1ull : 0) << 13 |
      (profile.inject_join_edge_gap ? 1ull : 0) << 14;
  h = HashU64(h, flags);
  h = HashU64(h, static_cast<uint64_t>(profile.max_joins) << 32 |
                     static_cast<uint32_t>(profile.max_predicates));
  h = HashU64(h, static_cast<uint64_t>(profile.max_select_items) << 32 |
                     static_cast<uint32_t>(profile.max_nesting_depth));
  return h;
}

std::string CompiledFsmStats::ToString() const {
  return StrFormat(
      "states=%u edges=%llu classes=%d mask_pool=%u class_mask_pool=%u "
      "vocab=%d bytes=%llu compile_ms=%llu",
      num_states, static_cast<unsigned long long>(num_edges), num_classes,
      mask_pool_entries, class_mask_pool_entries, vocab_size,
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(compile_millis));
}

CompiledFsmStats CompiledFsmTable::stats() const {
  CompiledFsmStats s;
  s.num_states = num_states();
  s.num_edges = edge_target_.size();
  s.mask_pool_entries = static_cast<uint32_t>(mask_pool_.size());
  s.class_mask_pool_entries = static_cast<uint32_t>(class_mask_pool_.size());
  s.num_classes = num_classes_;
  s.vocab_size = vocab_size_;
  s.compile_millis = compile_millis_;
  uint64_t b = class_of_.size() * sizeof(int32_t) +
               mask_pool_.size() * static_cast<uint64_t>(vocab_size_) +
               mask_width_.size() * sizeof(int32_t) +
               mask_id_.size() * sizeof(uint32_t) +
               class_mask_id_.size() * sizeof(uint32_t) +
               edge_base_.size() * sizeof(uint64_t) +
               edge_target_.size() * sizeof(uint32_t);
  for (const ClassMask& cm : class_mask_pool_) {
    b += cm.words.size() * sizeof(uint64_t) + cm.rank.size() * sizeof(uint32_t);
  }
  s.bytes = b;
  return s;
}

void CompiledFsmTable::RecomputeDerived() {
  mask_width_.assign(mask_pool_.size(), 0);
  for (size_t i = 0; i < mask_pool_.size(); ++i) {
    int w = 0;
    for (uint8_t m : mask_pool_[i]) w += m != 0 ? 1 : 0;
    mask_width_[i] = w;
  }
  for (ClassMask& cm : class_mask_pool_) {
    cm.rank.assign(cm.words.size(), 0);
    uint32_t total = 0;
    for (size_t w = 0; w < cm.words.size(); ++w) {
      cm.rank[w] = total;
      total += static_cast<uint32_t>(__builtin_popcountll(cm.words[w]));
    }
  }
}

void CompiledFsmTable::CorruptMaskBit(uint64_t salt) {
  std::vector<uint8_t>& mask =
      mask_pool_[mask_id_[start_state_ * kNumBudgetRegimes +
                          static_cast<int>(BudgetRegime::kLoose)]];
  std::vector<int> set;
  for (int i = 0; i < static_cast<int>(mask.size()); ++i) {
    if (mask[i] != 0) set.push_back(i);
  }
  LSG_CHECK(!set.empty());
  mask[set[salt % set.size()]] = 0;
  RecomputeDerived();
}

void CompiledFsmTable::CorruptTransitionSwap(uint64_t salt) {
  std::vector<uint32_t> candidates;  // states with two distinct-target edges
  const uint32_t n = num_states();
  for (uint32_t s = 0; s < n && candidates.size() < 8; ++s) {
    const uint64_t lo = edge_base_[s];
    const uint64_t hi = s + 1 < n ? edge_base_[s + 1] : edge_target_.size();
    for (uint64_t e = lo + 1; e < hi; ++e) {
      if (edge_target_[e] != edge_target_[lo]) {
        candidates.push_back(s);
        break;
      }
    }
  }
  LSG_CHECK(!candidates.empty());
  // Stay near the root so random episodes cross the swapped edge quickly.
  const uint32_t s = candidates[salt % std::min<size_t>(candidates.size(), 4)];
  const uint64_t lo = edge_base_[s];
  const uint64_t hi = s + 1 < n ? edge_base_[s + 1] : edge_target_.size();
  for (uint64_t e = lo + 1; e < hi; ++e) {
    if (edge_target_[e] != edge_target_[lo]) {
      std::swap(edge_target_[lo], edge_target_[e]);
      return;
    }
  }
}

StatusOr<CompiledFsmTable> CompileFsm(const Database& db,
                                      const Vocabulary& vocab,
                                      const QueryProfile& profile,
                                      const CompileFsmOptions& options) {
  Stopwatch sw;
  CompiledFsmTable t;
  t.vocab_size_ = vocab.size();
  t.fingerprint_ = CompiledFsmFingerprint(db, vocab, profile);

  // --- token equivalence classes -------------------------------------
  // All value/pattern literals of one column step to the same structural
  // state (the key records the pending column, never the literal), mirror
  // of the analyzer's RepresentativeActions; everything else is a
  // singleton class.
  t.class_of_.assign(vocab.size(), -1);
  std::map<std::tuple<int, int, bool>, int> value_class;
  int num_classes = 0;
  for (int id = 0; id < vocab.size(); ++id) {
    const Token& tok = vocab.token(id);
    if (tok.kind == TokenKind::kValue) {
      auto [it, inserted] = value_class.try_emplace(
          std::make_tuple(tok.value_column_table, tok.value_column_idx,
                          tok.is_pattern),
          num_classes);
      if (inserted) ++num_classes;
      t.class_of_[id] = it->second;
    } else {
      t.class_of_[id] = num_classes++;
    }
  }
  t.num_classes_ = num_classes;
  const int num_words = (num_classes + 63) / 64;

  // --- structural-state BFS ------------------------------------------
  struct Rec {
    int32_t parent;  // -1 for the start state
    int32_t action;  // token stepped from the parent
  };
  std::vector<Rec> recs;
  std::unordered_map<std::string, uint32_t> intern;
  int32_t accept = -1;

  auto prefix_of = [&](uint32_t s) {
    std::vector<int> actions;
    for (int32_t cur = static_cast<int32_t>(s); recs[cur].parent >= 0;
         cur = recs[cur].parent) {
      actions.push_back(recs[cur].action);
    }
    std::reverse(actions.begin(), actions.end());
    return actions;
  };
  auto replay = [&](const std::vector<int>& actions) {
    GenerationFsm fsm(&db, &vocab, profile);
    for (int a : actions) LSG_CHECK_OK(fsm.Step(a));
    return fsm;
  };
  auto intern_state = [&](const std::string& key, int32_t parent,
                          int32_t action) {
    auto [it, inserted] =
        intern.try_emplace(key, static_cast<uint32_t>(recs.size()));
    if (inserted) {
      recs.push_back(Rec{parent, action});
      if (key == "DONE") accept = static_cast<int32_t>(it->second);
    }
    return it->second;
  };

  {
    GenerationFsm start(&db, &vocab, profile);
    intern_state(StructuralStateKey(start.builder(), profile), -1, -1);
  }

  // Mask-pool / class-mask-pool interning keyed on raw bytes.
  std::unordered_map<std::string, uint32_t> mask_pool_index;
  std::unordered_map<std::string, uint32_t> class_mask_index;
  auto intern_mask = [&](const std::vector<uint8_t>& mask) {
    std::string key(reinterpret_cast<const char*>(mask.data()), mask.size());
    auto [it, inserted] =
        mask_pool_index.try_emplace(std::move(key),
                                    static_cast<uint32_t>(t.mask_pool_.size()));
    if (inserted) t.mask_pool_.push_back(mask);
    return it->second;
  };
  auto intern_class_mask = [&](const std::vector<uint64_t>& words) {
    std::string key(reinterpret_cast<const char*>(words.data()),
                    words.size() * sizeof(uint64_t));
    auto [it, inserted] = class_mask_index.try_emplace(
        std::move(key), static_cast<uint32_t>(t.class_mask_pool_.size()));
    if (inserted) {
      t.class_mask_pool_.push_back(CompiledFsmTable::ClassMask{words, {}});
    }
    return it->second;
  };

  const std::vector<uint8_t> zero_mask(vocab.size(), 0);
  const std::vector<uint64_t> zero_words(num_words, 0);
  std::vector<int> class_member(num_classes);  // per-state scratch
  std::vector<uint64_t> words(num_words);

  for (uint32_t s = 0; s < recs.size(); ++s) {
    if (static_cast<int>(recs.size()) > options.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "compiled FSM exceeds max_states=%d", options.max_states));
    }
    if (options.max_millis > 0 && (s & 0xff) == 0 &&
        sw.ElapsedMillis() > options.max_millis) {
      return Status::ResourceExhausted(StrFormat(
          "compiled FSM exceeds max_millis=%d at %zu states",
          options.max_millis, recs.size()));
    }

    if (static_cast<int32_t>(s) == accept) {
      // Terminal: empty masks, no transitions.
      const uint32_t zm = intern_mask(zero_mask);
      for (int r = 0; r < kNumBudgetRegimes; ++r) t.mask_id_.push_back(zm);
      t.class_mask_id_.push_back(intern_class_mask(zero_words));
      t.edge_base_.push_back(t.edge_target_.size());
      continue;
    }

    const std::vector<int> prefix = prefix_of(s);
    GenerationFsm fsm = replay(prefix);

    // The three regime masks out of a single replayed witness: the masks
    // read the token count only through the overridable budget booleans.
    std::fill(words.begin(), words.end(), 0);
    for (int r = 0; r < kNumBudgetRegimes; ++r) {
      fsm.OverrideBudgetRegime(static_cast<BudgetRegime>(r));
      const std::vector<uint8_t>& mask = fsm.ValidActions();
      t.mask_id_.push_back(intern_mask(mask));
      for (int id = 0; id < vocab.size(); ++id) {
        if (mask[id] == 0) continue;
        const int cls = t.class_of_[id];
        words[static_cast<uint32_t>(cls) >> 6] |= 1ull << (cls & 63);
        class_member[cls] = id;
      }
    }
    fsm.OverrideBudgetRegime(BudgetRegime::kAuto);

    // Expand one edge per legal class, ascending so ranks line up with the
    // edge array. The union over regimes matters: under require_nested the
    // tight masks open completions the loose ones forbid.
    t.class_mask_id_.push_back(intern_class_mask(words));
    t.edge_base_.push_back(t.edge_target_.size());
    for (int w = 0; w < num_words; ++w) {
      uint64_t bits = words[w];
      while (bits != 0) {
        const int cls = w * 64 + __builtin_ctzll(bits);
        bits &= bits - 1;
        GenerationFsm child = replay(prefix);
        LSG_CHECK_OK(child.Step(class_member[cls]));
        const std::string key =
            child.done() ? "DONE"
                         : StructuralStateKey(child.builder(), profile);
        t.edge_target_.push_back(
            intern_state(key, static_cast<int32_t>(s), class_member[cls]));
      }
    }
  }

  if (accept < 0) {
    return Status::Internal("compiled FSM never reached the accept state");
  }
  t.start_state_ = 0;
  t.accept_state_ = static_cast<uint32_t>(accept);
  t.RecomputeDerived();
  t.compile_millis_ = static_cast<uint64_t>(sw.ElapsedMillis());
  return t;
}

// --- serialisation ---------------------------------------------------

Status CompiledFsmTable::Save(const std::string& path) const {
  std::string payload;
  payload.reserve(1 << 20);
  AppendU64(&payload, fingerprint_);
  AppendI32(&payload, vocab_size_);
  AppendI32(&payload, num_classes_);
  AppendU32(&payload, num_states());
  AppendU32(&payload, start_state_);
  AppendU32(&payload, accept_state_);
  AppendU64(&payload, compile_millis_);
  for (int32_t c : class_of_) AppendI32(&payload, c);
  AppendU32(&payload, static_cast<uint32_t>(mask_pool_.size()));
  for (const std::vector<uint8_t>& m : mask_pool_) {
    AppendRaw(&payload, m.data(), m.size());
  }
  for (uint32_t id : mask_id_) AppendU32(&payload, id);
  AppendU32(&payload, static_cast<uint32_t>(class_mask_pool_.size()));
  for (const ClassMask& cm : class_mask_pool_) {
    AppendRaw(&payload, cm.words.data(), cm.words.size() * sizeof(uint64_t));
  }
  for (uint32_t id : class_mask_id_) AppendU32(&payload, id);
  for (uint64_t b : edge_base_) AppendU64(&payload, b);
  AppendU64(&payload, edge_target_.size());
  for (uint32_t e : edge_target_) AppendU32(&payload, e);

  std::string blob;
  blob.reserve(payload.size() + 32);
  AppendRaw(&blob, kMagic, sizeof kMagic);
  AppendU64(&blob, payload.size());
  blob += payload;
  AppendU64(&blob, HashBytes(0, payload.data(), payload.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open for write: " + path);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) return Status::Internal("short write: " + path);
  return Status::Ok();
}

StatusOr<CompiledFsmTable> CompiledFsmTable::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (blob.size() < sizeof kMagic + 16 ||
      std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
    return Status::InvalidArgument("bad compiled-FSM header: " + path);
  }
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, blob.data() + sizeof kMagic, 8);
  if (payload_size != blob.size() - sizeof kMagic - 16) {
    return Status::InvalidArgument("bad compiled-FSM size: " + path);
  }
  const char* payload = blob.data() + sizeof kMagic + 8;
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, payload + payload_size, 8);
  if (stored_sum != HashBytes(0, payload, payload_size)) {
    return Status::InvalidArgument("compiled-FSM checksum mismatch: " +
                                   path);
  }

  Reader r(payload, payload_size);
  CompiledFsmTable t;
  uint32_t num_states = 0, pool = 0, cpool = 0;
  uint64_t num_edges = 0;
  bool ok = r.U64(&t.fingerprint_) && r.I32(&t.vocab_size_) &&
            r.I32(&t.num_classes_) && r.U32(&num_states) &&
            r.U32(&t.start_state_) && r.U32(&t.accept_state_) &&
            r.U64(&t.compile_millis_);
  if (!ok || t.vocab_size_ <= 0 || t.num_classes_ <= 0 || num_states == 0 ||
      t.start_state_ >= num_states || t.accept_state_ >= num_states) {
    return Status::InvalidArgument("truncated compiled FSM: " + path);
  }
  const int num_words = (t.num_classes_ + 63) / 64;
  t.class_of_.resize(t.vocab_size_);
  ok = r.Raw(t.class_of_.data(), t.class_of_.size() * sizeof(int32_t)) &&
       r.U32(&pool);
  if (ok) {
    t.mask_pool_.resize(pool);
    for (std::vector<uint8_t>& m : t.mask_pool_) {
      m.resize(t.vocab_size_);
      ok = ok && r.Raw(m.data(), m.size());
    }
    t.mask_id_.resize(static_cast<size_t>(num_states) * kNumBudgetRegimes);
    ok = ok && r.Raw(t.mask_id_.data(), t.mask_id_.size() * sizeof(uint32_t));
    ok = ok && r.U32(&cpool);
  }
  if (ok) {
    t.class_mask_pool_.resize(cpool);
    for (ClassMask& cm : t.class_mask_pool_) {
      cm.words.resize(num_words);
      ok = ok && r.Raw(cm.words.data(), cm.words.size() * sizeof(uint64_t));
    }
    t.class_mask_id_.resize(num_states);
    ok = ok && r.Raw(t.class_mask_id_.data(),
                     t.class_mask_id_.size() * sizeof(uint32_t));
    t.edge_base_.resize(num_states);
    ok = ok &&
         r.Raw(t.edge_base_.data(), t.edge_base_.size() * sizeof(uint64_t));
    ok = ok && r.U64(&num_edges);
  }
  if (ok) {
    t.edge_target_.resize(num_edges);
    ok = ok && r.Raw(t.edge_target_.data(), num_edges * sizeof(uint32_t));
  }
  if (!ok || !r.AtEnd()) {
    return Status::InvalidArgument("truncated compiled FSM: " + path);
  }
  for (uint32_t id : t.mask_id_) {
    if (id >= t.mask_pool_.size()) {
      return Status::InvalidArgument("bad mask id in: " + path);
    }
  }
  for (uint32_t id : t.class_mask_id_) {
    if (id >= t.class_mask_pool_.size()) {
      return Status::InvalidArgument("bad class-mask id in: " + path);
    }
  }
  for (uint32_t e : t.edge_target_) {
    if (e >= num_states) {
      return Status::InvalidArgument("bad edge target in: " + path);
    }
  }
  t.RecomputeDerived();
  return t;
}

StatusOr<CompiledFsmTable> BuildOrLoadCompiledFsm(
    const Database& db, const Vocabulary& vocab, const QueryProfile& profile,
    const CompileFsmOptions& options, const std::string& cache_dir) {
  const uint64_t fp = CompiledFsmFingerprint(db, vocab, profile);
  char name[32];
  std::snprintf(name, sizeof name, "cfsm-%016llx.bin",
                static_cast<unsigned long long>(fp));
  const std::string path = cache_dir + "/" + name;
  if (std::filesystem::exists(path)) {
    StatusOr<CompiledFsmTable> loaded = CompiledFsmTable::Load(path);
    if (loaded.ok() && loaded->fingerprint() == fp) return loaded;
    LSG_LOG(Warning) << "stale/corrupt compiled-FSM artifact " << path
                     << " ("
                     << (loaded.ok() ? "fingerprint mismatch"
                                     : loaded.status().ToString())
                     << "); recompiling";
  }
  LSG_ASSIGN_OR_RETURN(CompiledFsmTable table,
                       CompileFsm(db, vocab, profile, options));
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  Status saved = table.Save(path);
  if (!saved.ok()) {
    LSG_LOG(Warning) << "cannot cache compiled FSM at " << path << ": "
                     << saved.ToString();
  }
  return table;
}

}  // namespace lsg
