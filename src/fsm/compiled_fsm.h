#ifndef LEARNEDSQLGEN_FSM_COMPILED_FSM_H_
#define LEARNEDSQLGEN_FSM_COMPILED_FSM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fsm/generation_fsm.h"

namespace lsg {

/// Compile-time resource caps. The structural state graph of a (database,
/// vocabulary, profile) triple can be huge for wide schemas under permissive
/// profiles (the analyzer needs region summaries to tame JOB); the compiler
/// refuses past these caps and the caller falls back to the interpreted FSM.
struct CompileFsmOptions {
  /// Abort with ResourceExhausted past this many structural states.
  int max_states = 200000;
  /// Abort past this wall-clock budget; 0 = unlimited. Implicit compiles on
  /// the training/serving path keep this small so an uncompilable dataset
  /// costs a bounded one-time probe instead of a multi-second stall.
  int max_millis = 3000;
};

/// Size/shape report of a compiled table (lsglint --compile, tests).
struct CompiledFsmStats {
  uint32_t num_states = 0;
  uint64_t num_edges = 0;        ///< class-granular transitions
  uint32_t mask_pool_entries = 0;
  uint32_t class_mask_pool_entries = 0;
  int num_classes = 0;           ///< token equivalence classes
  int vocab_size = 0;
  uint64_t bytes = 0;            ///< approximate resident size
  uint64_t compile_millis = 0;

  std::string ToString() const;
};

/// A per-(database, vocabulary, profile) flat structure-of-arrays artifact
/// replacing hot-path mask derivation with indexed lookups.
///
/// States are the budget-free structural abstract states (analysis/
/// StructuralStateKey) discovered by BFS from the empty query, densely
/// numbered in discovery order (0 = start). Because masks read the token
/// count only through the two budget booleans, each state stores three mask
/// ids — one per BudgetRegime — into a deduplicated pool of vocab-sized
/// 0/1 byte masks (returned by reference from GenerationFsm::ValidActions,
/// same representation as the interpreted mask). Mask widths are
/// precomputed per pool entry so telemetry costs one load.
///
/// Transitions are class-granular: all value/pattern tokens of one column
/// provably lead to the same structural state (the key never records which
/// literal was chosen, only its column — the same equivalence the
/// analyzer's RepresentativeActions exploits), so tokens map through a
/// global `class_of` array onto ~|schema| classes. Each state stores a
/// bitset over classes with per-word prefix popcounts; the successor is
/// `edge_target[edge_base[state] + rank(class)]` — O(1) via popcount.
/// Edges are compiled for the union of the three regime masks (under
/// require_nested the tight mask is not a subset of the loose one), so a
/// mask-legal token always has an edge; stepping any *other* token yields
/// kNoState and the FSM falls back to interpretation.
///
/// Immutable after compilation/loading — safe to share read-only across
/// service workers without synchronisation (fsm_tsan covers this).
class CompiledFsmTable {
 public:
  static constexpr uint32_t kNoState = 0xffffffffu;

  /// Mask of `state` under budget regime `regime` (a BudgetRegime value,
  /// not kAuto). One byte per vocabulary token, != 0 iff valid.
  const std::vector<uint8_t>& Mask(uint32_t state, int regime) const {
    return mask_pool_[mask_id_[state * kNumBudgetRegimes + regime]];
  }

  /// Number of set entries in Mask(state, regime).
  int MaskWidth(uint32_t state, int regime) const {
    return mask_width_[mask_id_[state * kNumBudgetRegimes + regime]];
  }

  /// Successor of `state` on `token_id`, or kNoState if the token leaves
  /// the compiled graph (never happens for mask-legal tokens).
  uint32_t Next(uint32_t state, int token_id) const {
    const int cls = class_of_[token_id];
    const ClassMask& cm = class_mask_pool_[class_mask_id_[state]];
    const uint32_t word = static_cast<uint32_t>(cls) >> 6;
    const uint64_t bit = 1ull << (cls & 63);
    if ((cm.words[word] & bit) == 0) return kNoState;
    const uint32_t rank =
        cm.rank[word] +
        static_cast<uint32_t>(__builtin_popcountll(cm.words[word] & (bit - 1)));
    return edge_target_[edge_base_[state] + rank];
  }

  uint32_t start_state() const { return start_state_; }
  /// The unique terminal ("DONE") state; EOF edges land here.
  uint32_t accept_state() const { return accept_state_; }
  uint32_t num_states() const { return static_cast<uint32_t>(class_mask_id_.size()); }
  int vocab_size() const { return vocab_size_; }
  /// Identity of the (catalog, vocabulary, profile) the table was compiled
  /// for; see CompiledFsmFingerprint.
  uint64_t fingerprint() const { return fingerprint_; }

  CompiledFsmStats stats() const;

  /// Serialises the table to a binary artifact (magic header + payload +
  /// checksum). The format is host-endian: artifacts are a local cache, not
  /// an interchange format.
  Status Save(const std::string& path) const;

  /// Loads a table saved by Save(). Rejects wrong magic/version, truncated
  /// or oversized payloads, and checksum mismatches.
  static StatusOr<CompiledFsmTable> Load(const std::string& path);

  /// --- mutation-testing hooks (lsgfuzz --inject-bug, tests) ---
  /// Flips one set mask byte of the start state's loose-regime mask entry
  /// (salt picks which), so the very first differential mask comparison of
  /// any episode must observe it. Corrupts this table in place.
  void CorruptMaskBit(uint64_t salt);
  /// Swaps the targets of two edges (with distinct targets) of the first
  /// state that has two such edges — near the root, so random episodes hit
  /// the swapped transition almost immediately.
  void CorruptTransitionSwap(uint64_t salt);

 private:
  friend StatusOr<CompiledFsmTable> CompileFsm(const Database&,
                                               const Vocabulary&,
                                               const QueryProfile&,
                                               const CompileFsmOptions&);

  /// Class bitset of one state: fixed per-table word count, plus the
  /// prefix popcount of all preceding words for O(1) rank.
  struct ClassMask {
    std::vector<uint64_t> words;
    std::vector<uint32_t> rank;
  };

  void RecomputeDerived();  ///< widths + ranks after build/load

  int vocab_size_ = 0;
  int num_classes_ = 0;
  uint64_t fingerprint_ = 0;
  uint32_t start_state_ = 0;
  uint32_t accept_state_ = 0;
  uint64_t compile_millis_ = 0;

  std::vector<int32_t> class_of_;            // [vocab] token -> class
  std::vector<std::vector<uint8_t>> mask_pool_;
  std::vector<int32_t> mask_width_;          // [pool] derived
  std::vector<uint32_t> mask_id_;            // [state * 3 + regime]
  std::vector<ClassMask> class_mask_pool_;
  std::vector<uint32_t> class_mask_id_;      // [state]
  std::vector<uint64_t> edge_base_;          // [state]
  std::vector<uint32_t> edge_target_;        // [sum of state degrees]
};

/// Stable identity of a compilation input: catalog schemas + join graph,
/// vocabulary tokens, and every mask-relevant profile knob. Disk artifacts
/// carry it; attach/load paths verify it.
uint64_t CompiledFsmFingerprint(const Database& db, const Vocabulary& vocab,
                                const QueryProfile& profile);

/// Walks the structural state graph with an interpreted GenerationFsm —
/// same BFS/state-interning/witness-replay idiom as FsmAnalyzer, but
/// emitting the flat artifact instead of lint findings. Returns
/// ResourceExhausted when a cap of `options` is hit.
StatusOr<CompiledFsmTable> CompileFsm(const Database& db,
                                      const Vocabulary& vocab,
                                      const QueryProfile& profile,
                                      const CompileFsmOptions& options);

/// CompileFsm with a disk cache: looks for a fingerprint-named artifact
/// under `cache_dir` (created on demand), compiles and saves on miss.
/// Stale/corrupt/foreign artifacts are recompiled, not trusted.
StatusOr<CompiledFsmTable> BuildOrLoadCompiledFsm(
    const Database& db, const Vocabulary& vocab, const QueryProfile& profile,
    const CompileFsmOptions& options, const std::string& cache_dir);

/// A GenerationFsm born with a compiled table attached: the drop-in
/// "indexed lookups only" implementation of the stepping API.
class CompiledGenerationFsm : public GenerationFsm {
 public:
  /// `table` must match (db, vocab, profile) and outlive the FSM.
  CompiledGenerationFsm(const Database* db, const Vocabulary* vocab,
                        QueryProfile profile, const CompiledFsmTable* table)
      : GenerationFsm(db, vocab, profile) {
    AttachCompiledTable(table);
  }
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FSM_COMPILED_FSM_H_
