#include "analysis/fsm_analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "analysis/state_key.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace lsg {

namespace {

/// Cap on stored violation examples; the counter keeps the true total.
constexpr int kMaxStoredViolations = 100;
/// Cap on recorded example prefixes per dead / stuck defect class.
constexpr int kMaxExamples = 5;

void AppendDefectsJson(const char* name, const std::vector<FsmDefect>& list,
                       std::string* out) {
  *out += StrFormat("\"%s\":[", name);
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += "{\"kind\":\"";
    obs::JsonEscapeTo(list[i].kind, out);
    *out += "\",\"phase\":\"";
    obs::JsonEscapeTo(list[i].phase, out);
    *out += "\",\"detail\":\"";
    obs::JsonEscapeTo(list[i].detail, out);
    *out += "\",\"prefix\":\"";
    obs::JsonEscapeTo(list[i].prefix, out);
    *out += "\"}";
  }
  out->push_back(']');
}

bool StringLike(DataType t) {
  return t == DataType::kString || t == DataType::kCategorical;
}

/// Region-based exploration engine.
///
/// A "region" is a sub-graph whose masks read only a summarizable slice of
/// the surrounding context, explored once under a canonical parent and
/// spliced into every other parent as summary edges. Two region kinds:
///
///  - Subquery frames: the masks inside a pushed frame read nothing from
///    the parent except (purpose, outer lhs / pinned table, depth) and the
///    remaining token slack — verified against every mask read-site in
///    generation_fsm.cc. A frame summary records one completion witness
///    per distinct post-pop abstract state.
///  - Top-level WHERE clauses: the where machinery (kWherePred through
///    kAfterPredicate) reads the scope set, the item mix counts, the query
///    type and its own predicate state, but never the plain-item
///    identities that dominate the top-frame key. A clause summary records
///    one witness per distinct (interior state, exit action) pair, so
///    every distinct post-exit state of every parent is still reached.
///
/// Both remove a parent-context multiplier that otherwise puts the bigger
/// catalogs out of reach (job_like: 3.4M states naive, ~100k summarized).
class Explorer {
 public:
  Explorer(const Database* db, const Vocabulary* vocab,
           const QueryProfile& profile, const AnalyzerOptions& options,
           SqlLinter* linter, FsmAnalysisReport* report)
      : db_(db),
        vocab_(vocab),
        profile_(profile),
        options_(options),
        linter_(linter),
        report_(report),
        // Under the unbounded regime slack is clamped constant
        // (state_key.cc), so regions are shared across entry points; a
        // small exact budget instead leaks the parent's token count into
        // the region, so every summary key also carries the entry slack.
        slack_keyed_(profile.max_tokens < 1024) {}

  void Run() {
    std::vector<int> empty;
    ExploreRegion(empty, 1, RegionMode::kMain, nullptr, nullptr);
    report_->exhausted = !aborted_;
    report_->num_summaries =
        static_cast<int>(summaries_.size() + clause_summaries_.size());
  }

 private:
  enum class RegionMode { kMain, kFrame, kClauseWhere, kClauseHaving };

  /// Abstract-state record; the prefix is reconstructed by walking parents.
  /// A summary edge contributes its entry action plus the witness tokens.
  struct StateRec {
    int parent = -1;
    int action = -1;
    int witness = -1;  ///< index into witnesses_, or -1 for a plain edge
    uint32_t prefix_len = 0;
  };
  /// One witness (tokens after '(' through the popping ')') per distinct
  /// post-exit abstract state; empty iff the frame can never pop. Several
  /// witnesses only arise under the budget regime, where exits of
  /// different lengths leave the parent with different remaining slack.
  struct Summary {
    std::vector<int> exit_witnesses;
  };
  /// (purpose, lhs table / pinned table, lhs column, frame depth, entry
  /// slack). Entry slack is 0 under the unbounded regime so regions are
  /// shared across entry points; under an exact budget it keys the region
  /// to the remaining token allowance, which its masks can observe.
  using SummaryKey = std::tuple<int, int, int, int, int>;
  /// Every way a clause region can be left, one witness per distinct
  /// post-exit abstract state (computed under the canonical parent; the
  /// parent part of the key is constant within a region, so two exits with
  /// equal canonical post-keys carry identical mask-relevant state and
  /// land on equal post-keys under every other parent too). Witness tokens
  /// run from just after the clause keyword through the exit action.
  struct ClauseSummary {
    std::vector<int> exit_witnesses;
  };

  /// The WHERE-clause interior: phases whose masks read the scope set, the
  /// item-mix counts, the query type and the predicate state, but never
  /// the plain-item identities (see the mask read-sites around
  /// kAfterPredicate in generation_fsm.cc: GROUP BY / ORDER BY / EOF exits
  /// are gated on ItemMix and can_order_by, both count-based).
  static bool InWhereClause(BuildPhase p) {
    return p == BuildPhase::kWherePred || p == BuildPhase::kAfterNot ||
           p == BuildPhase::kExistsOpen || p == BuildPhase::kWhereOp ||
           p == BuildPhase::kWhereRhs || p == BuildPhase::kWhereLikeRhs ||
           p == BuildPhase::kInOpen || p == BuildPhase::kAfterPredicate;
  }

  /// The HAVING interior: agg / column / operator / value selection reads
  /// only the scope set and its own partial predicate.
  static bool InHavingClause(BuildPhase p) {
    return p == BuildPhase::kHavingAgg || p == BuildPhase::kHavingColumn ||
           p == BuildPhase::kHavingOp || p == BuildPhase::kHavingValue;
  }

  static bool InClause(RegionMode mode, BuildPhase p) {
    return mode == RegionMode::kClauseWhere ? InWhereClause(p)
                                            : InHavingClause(p);
  }

  /// Everything a clause interior can observe from its context. Subquery
  /// wheres read their purpose (close gating) and depth (deeper pushes),
  /// but not the outer lhs — that is only consulted at kFromTable /
  /// kSelectItem — so IN-subqueries with different lhs share a region.
  std::string ClauseKey(const AstBuilder& builder, RegionMode mode) const {
    const BuildFrame& f = builder.frame();
    std::string k = mode == RegionMode::kClauseWhere ? "W" : "H";
    k += std::to_string(static_cast<int>(builder.ast().type));
    k.push_back('p');
    k += std::to_string(static_cast<int>(f.purpose));
    k.push_back('d');
    k += std::to_string(builder.frames().size());
    k.push_back(':');
    std::vector<int> scope = f.scope_tables;
    std::sort(scope.begin(), scope.end());
    for (int t : scope) {
      k += std::to_string(t);
      k.push_back(',');
    }
    if (mode == RegionMode::kClauseWhere) {
      int n_plain = 0;
      int n_agg = 0;
      if (f.query != nullptr) {
        for (const SelectItem& it : f.query->items) {
          (it.agg == AggFunc::kNone ? n_plain : n_agg) += 1;
        }
      }
      k.push_back(':');
      k += std::to_string(n_plain);
      k.push_back('/');
      k += std::to_string(n_agg);
    }
    if (slack_keyed_) {
      k.push_back('t');
      k += std::to_string(builder.tokens().size());
    }
    return k;
  }

  GenerationFsm Replay(const std::vector<int>& actions) {
    GenerationFsm fsm(db_, vocab_, profile_);
    for (int a : actions) {
      Status st = fsm.Step(a);
      LSG_CHECK(st.ok());  // every recorded edge was once offered + stepped
    }
    return fsm;
  }

  std::string PrefixText(const std::vector<int>& prefix) const {
    std::string out;
    for (int id : prefix) {
      if (!out.empty()) out.push_back(' ');
      out += vocab_->token(id).text;
    }
    return out;
  }

  void AddDefect(std::vector<FsmDefect>* out, const char* kind,
                 BuildPhase phase, std::string detail,
                 const std::vector<int>& prefix) {
    if (static_cast<int>(out->size()) >= kMaxStoredViolations) return;
    FsmDefect d;
    d.kind = kind;
    d.phase = BuildPhaseName(phase);
    d.detail = std::move(detail);
    d.prefix = PrefixText(prefix);
    out->push_back(std::move(d));
  }

  std::vector<int> RepresentativeActions(const std::vector<uint8_t>& mask) {
    std::vector<int> reps;
    // Value tokens are grouped per owning column: masks never read literal
    // contents, so one representative covers the whole class (the per-token
    // semantic checks in CheckMask still see every member).
    std::set<std::tuple<int, int, bool>> value_classes;
    for (int id = 0; id < static_cast<int>(mask.size()); ++id) {
      if (mask[id] == 0) continue;
      const Token& t = vocab_->token(id);
      if (t.kind == TokenKind::kValue) {
        auto cls = std::make_tuple(t.value_column_table, t.value_column_idx,
                                   t.is_pattern);
        if (!value_classes.insert(cls).second) continue;
      }
      reps.push_back(id);
    }
    return reps;
  }

  void CheckMask(const GenerationFsm& fsm, const std::vector<uint8_t>& mask,
                 const std::vector<int>& prefix);

  const Summary& GetSummary(const SummaryKey& key,
                            const std::vector<int>& entry_prefix) {
    auto it = summaries_.find(key);
    if (it != summaries_.end()) return it->second;
    Summary sum;
    // Depth strictly increases across nested GetSummary calls, so the
    // recursion is bounded by max_nesting_depth and cannot revisit key.
    ExploreRegion(entry_prefix, static_cast<size_t>(std::get<3>(key)),
                  RegionMode::kFrame, &sum, nullptr);
    return summaries_.emplace(key, sum).first->second;
  }

  const ClauseSummary& GetClauseSummary(
      const std::string& key, RegionMode mode, size_t depth,
      const std::vector<int>& entry_prefix) {
    auto it = clause_summaries_.find(key);
    if (it != clause_summaries_.end()) return it->second;
    ClauseSummary sum;
    ExploreRegion(entry_prefix, depth, mode, nullptr, &sum);
    return clause_summaries_.emplace(key, sum).first->second;
  }

  void ExploreRegion(const std::vector<int>& entry_prefix,
                     size_t region_depth, RegionMode mode, Summary* out,
                     ClauseSummary* clause_out);

  const Database* db_;
  const Vocabulary* vocab_;
  const QueryProfile& profile_;
  const AnalyzerOptions& options_;
  SqlLinter* linter_;
  FsmAnalysisReport* report_;
  const bool slack_keyed_;

  bool aborted_ = false;
  long long total_states_ = 0;
  std::map<SummaryKey, Summary> summaries_;
  std::map<std::string, ClauseSummary> clause_summaries_;
  std::vector<std::vector<int>> witnesses_;
};

void Explorer::ExploreRegion(const std::vector<int>& entry_prefix,
                             size_t region_depth, RegionMode mode,
                             Summary* out, ClauseSummary* clause_out) {
  std::vector<StateRec> states;
  std::unordered_map<std::string, int> ids;
  std::vector<std::pair<int, int>> edges;
  std::vector<uint8_t> is_stuck;
  std::vector<uint8_t> can_exit;
  std::set<std::string> exits_seen;  // post-exit keys already witnessed
  int accept_id = -1;                // main region's DONE node

  auto intern = [&](std::string key, int parent, int action, int witness,
                    uint32_t plen, bool* inserted_out) {
    auto [it, inserted] =
        ids.emplace(std::move(key), static_cast<int>(states.size()));
    if (inserted) {
      StateRec rec;
      rec.parent = parent;
      rec.action = action;
      rec.witness = witness;
      rec.prefix_len = plen;
      states.push_back(rec);
      is_stuck.push_back(0);
      can_exit.push_back(0);
      if (++total_states_ > options_.max_states) aborted_ = true;
    }
    if (inserted_out != nullptr) *inserted_out = inserted;
    return it->second;
  };

  auto prefix_of = [&](int state_id) {
    std::vector<int> actions(states[state_id].prefix_len);
    size_t end = actions.size();
    for (int s = state_id; states[s].parent >= 0; s = states[s].parent) {
      const StateRec& r = states[s];
      if (r.witness >= 0) {
        const std::vector<int>& w = witnesses_[r.witness];
        for (size_t i = w.size(); i > 0; --i) actions[--end] = w[i - 1];
      }
      actions[--end] = r.action;
    }
    LSG_CHECK(end == entry_prefix.size());
    std::copy(entry_prefix.begin(), entry_prefix.end(), actions.begin());
    return actions;
  };

  {
    GenerationFsm root = Replay(entry_prefix);
    StateRec rec;
    rec.prefix_len = static_cast<uint32_t>(entry_prefix.size());
    std::string key = AbstractStateKey(root.builder(), profile_);
    ids.emplace(std::move(key), 0);
    states.push_back(rec);
    is_stuck.push_back(0);
    can_exit.push_back(0);
    ++total_states_;
  }

  for (int s = 0; s < static_cast<int>(states.size()) && !aborted_; ++s) {
    if (s == accept_id) continue;
    const std::vector<int> prefix = prefix_of(s);
    report_->max_prefix_tokens =
        std::max(report_->max_prefix_tokens, static_cast<int>(prefix.size()));
    GenerationFsm fsm = Replay(prefix);
    const std::vector<uint8_t>& mask = fsm.ValidActions().bytes;

    bool any = false;
    for (int id = 0; id < static_cast<int>(mask.size()); ++id) {
      if (mask[id] != 0) {
        report_->offered[id] = 1;
        any = true;
      }
    }
    if (!any) {
      // No legal action mid-episode: the generator is wedged here.
      ++report_->num_stuck;
      is_stuck[s] = 1;
      if (static_cast<int>(report_->stuck_examples.size()) < kMaxExamples) {
        AddDefect(&report_->stuck_examples, "stuck-state",
                  fsm.builder().phase(), "empty action mask mid-episode",
                  prefix);
      }
      continue;
    }

    CheckMask(fsm, mask, prefix);

    for (int a : RepresentativeActions(mask)) {
      GenerationFsm next = Replay(prefix);
      Status st = next.Step(a);
      if (!st.ok()) {
        ++report_->num_violations;
        AddDefect(&report_->violations, "mask-offers-illegal-token",
                  fsm.builder().phase(),
                  "builder rejected offered token " + vocab_->token(a).text +
                      ": " + st.message(),
                  prefix);
        continue;
      }
      const size_t next_depth = next.builder().frames().size();

      if (mode == RegionMode::kFrame && !next.done() &&
          next_depth < region_depth) {
        // ')' popped this region's frame: a completion of the region, one
        // witness per distinct post-exit abstract state (the parent part
        // of the key is constant within a region, so the dedup transfers
        // to every other parent; see ClauseSummary).
        can_exit[s] = 1;
        if (out != nullptr &&
            exits_seen.insert(AbstractStateKey(next.builder(), profile_))
                .second) {
          std::vector<int> w(prefix.begin() + entry_prefix.size(),
                             prefix.end());
          w.push_back(a);
          out->exit_witnesses.push_back(static_cast<int>(witnesses_.size()));
          witnesses_.push_back(std::move(w));
        }
        continue;
      }

      if (!next.done() && next_depth > region_depth) {
        // '(' pushed a subquery frame: splice its summary instead of
        // exploring the product with this parent context.
        const BuildFrame& nf = next.builder().frame();
        int ka = -1;
        int kb = -1;
        if (nf.purpose == FramePurpose::kInSub) {
          ka = nf.outer_lhs.table_idx;
          kb = nf.outer_lhs.column_idx;
        } else if (nf.purpose == FramePurpose::kInsertSource) {
          ka = nf.pinned_table;
        }
        std::vector<int> entry = prefix;
        entry.push_back(a);
        const int slack =
            slack_keyed_ ? profile_.max_tokens - static_cast<int>(entry.size())
                         : 0;
        SummaryKey skey{static_cast<int>(nf.purpose), ka, kb,
                        static_cast<int>(next_depth), slack};
        const Summary& sum = GetSummary(skey, entry);
        if (aborted_) break;
        // An empty summary means the subtree cannot pop; its region
        // already reported every interior state as dead, so no parent
        // edge is added.
        for (int w : sum.exit_witnesses) {
          const std::vector<int>& wt = witnesses_[w];
          std::vector<int> full = entry;
          full.insert(full.end(), wt.begin(), wt.end());
          GenerationFsm post = Replay(full);
          LSG_CHECK(post.builder().frames().size() == region_depth &&
                    !post.done());
          int id = intern(AbstractStateKey(post.builder(), profile_), s, a,
                          w, static_cast<uint32_t>(full.size()), nullptr);
          edges.emplace_back(s, id);
        }
        continue;
      }

      if ((mode == RegionMode::kClauseWhere ||
           mode == RegionMode::kClauseHaving) &&
          (next.done() || next_depth != region_depth ||
           !InClause(mode, next.builder().phase()))) {
        // This action leaves the clause interior: record one witness per
        // distinct post-exit abstract state so a parent can reconstruct
        // every distinct continuation.
        can_exit[s] = 1;
        if (clause_out != nullptr &&
            exits_seen.insert(AbstractStateKey(next.builder(), profile_))
                .second) {
          std::vector<int> w(prefix.begin() + entry_prefix.size(),
                             prefix.end());
          w.push_back(a);
          clause_out->exit_witnesses.push_back(
              static_cast<int>(witnesses_.size()));
          witnesses_.push_back(std::move(w));
        }
        continue;
      }

      RegionMode clause_mode = RegionMode::kMain;  // kMain = no clause
      if ((mode == RegionMode::kMain || mode == RegionMode::kFrame) &&
          !next.done() && next_depth == region_depth) {
        const BuildPhase np = next.builder().phase();
        const BuildPhase cp = fsm.builder().phase();
        if (InWhereClause(np) && !InWhereClause(cp)) {
          clause_mode = RegionMode::kClauseWhere;
        } else if (InHavingClause(np) && !InHavingClause(cp)) {
          clause_mode = RegionMode::kClauseHaving;
        }
      }
      if (clause_mode != RegionMode::kMain) {
        // Clause entered in this region's frame: splice the clause
        // summary's exits instead of re-walking its machinery under every
        // plain-item / having-column / subquery-lhs context.
        std::vector<int> entry = prefix;
        entry.push_back(a);
        const std::string ck = ClauseKey(next.builder(), clause_mode);
        const ClauseSummary& cs =
            GetClauseSummary(ck, clause_mode, region_depth, entry);
        if (aborted_) break;
        for (int w : cs.exit_witnesses) {
          const std::vector<int>& wt = witnesses_[w];
          std::vector<int> full = entry;
          full.insert(full.end(), wt.begin(), wt.end());
          GenerationFsm post = Replay(full);
          if (!post.done() &&
              post.builder().frames().size() < region_depth) {
            // A subquery frame's WHERE always exits by closing the frame,
            // so the spliced exit doubles as this region's completion.
            can_exit[s] = 1;
            if (out != nullptr &&
                exits_seen
                    .insert(AbstractStateKey(post.builder(), profile_))
                    .second) {
              std::vector<int> fw(full.begin() + entry_prefix.size(),
                                  full.end());
              out->exit_witnesses.push_back(
                  static_cast<int>(witnesses_.size()));
              witnesses_.push_back(std::move(fw));
            }
            continue;
          }
          bool inserted = false;
          int id = intern(AbstractStateKey(post.builder(), profile_), s, a,
                          w, static_cast<uint32_t>(full.size()), &inserted);
          if (inserted && post.done()) accept_id = id;
          edges.emplace_back(s, id);
          if (post.done()) {
            ++report_->num_accepting_edges;
            for (const LintIssue& issue : linter_->Lint(post.builder().ast())) {
              ++report_->num_violations;
              AddDefect(&report_->violations, LintRuleName(issue.rule),
                        BuildPhase::kDone, issue.message, full);
            }
          }
        }
        continue;
      }

      bool inserted = false;
      int id = intern(AbstractStateKey(next.builder(), profile_), s, a, -1,
                      static_cast<uint32_t>(prefix.size()) + 1, &inserted);
      if (inserted && next.done()) accept_id = id;
      edges.emplace_back(s, id);
      if (next.done()) {
        ++report_->num_accepting_edges;
        for (const LintIssue& issue : linter_->Lint(next.builder().ast())) {
          ++report_->num_violations;
          std::vector<int> witness = prefix;
          witness.push_back(a);
          AddDefect(&report_->violations, LintRuleName(issue.rule),
                    BuildPhase::kDone, issue.message, witness);
        }
      }
    }
  }

  report_->num_states += static_cast<int>(states.size());
  report_->num_edges += static_cast<int>(edges.size());
  if (aborted_) return;

  // Reverse fixpoint: a state is live iff some successor is, seeded by the
  // accepting DONE node (main region) or the popping exits (subquery
  // region). Stuck states have no out-edges and are counted separately.
  std::vector<uint8_t> live = can_exit;
  if (accept_id >= 0) live[accept_id] = 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      if (live[it->second] != 0 && live[it->first] == 0) {
        live[it->first] = 1;
        changed = true;
      }
    }
  }
  for (int s = 0; s < static_cast<int>(states.size()); ++s) {
    if (s == accept_id || is_stuck[s] != 0 || live[s] != 0) continue;
    ++report_->num_dead;
    if (static_cast<int>(report_->dead_examples.size()) < kMaxExamples) {
      const std::vector<int> prefix = prefix_of(s);
      GenerationFsm fsm = Replay(prefix);
      const char* why = "no path from here reaches an accepting EOF";
      if (mode == RegionMode::kFrame) {
        why = "no path from here closes the subquery";
      } else if (mode == RegionMode::kClauseWhere ||
                 mode == RegionMode::kClauseHaving) {
        why = "no path from here leaves the clause";
      }
      AddDefect(&report_->dead_examples, "dead-state", fsm.builder().phase(),
                why, prefix);
    }
  }
}

void Explorer::CheckMask(const GenerationFsm& fsm,
                         const std::vector<uint8_t>& mask,
                         const std::vector<int>& prefix) {
  const BuildFrame& f = fsm.builder().frame();
  const Catalog& cat = db_->catalog();
  auto flag = [&](const char* kind, std::string detail) {
    ++report_->num_violations;
    AddDefect(&report_->violations, kind, f.phase, std::move(detail),
              prefix);
  };
  auto in_scope = [&](int table_idx) {
    return std::find(f.scope_tables.begin(), f.scope_tables.end(),
                     table_idx) != f.scope_tables.end();
  };
  auto type_of = [&](const ColumnRef& c) {
    return cat.table(c.table_idx).column(c.column_idx).type;
  };
  auto check_scope_column = [&](const Token& t) {
    if (!in_scope(t.column.table_idx)) {
      flag(LintRuleName(LintRule::kColumnOutOfScope),
           "offered column " + t.text + " outside frame scope");
      return false;
    }
    return true;
  };
  auto owner_of = [](const Token& t) {
    return ColumnRef{t.value_column_table, t.value_column_idx};
  };

  for (int id = 0; id < static_cast<int>(mask.size()); ++id) {
    if (mask[id] == 0) continue;
    const Token& t = vocab_->token(id);
    switch (f.phase) {
      case BuildPhase::kFromTable:
        if (t.kind == TokenKind::kTable &&
            f.purpose == FramePurpose::kInSub) {
          // IN-subquery FROM tables must hold a column comparable to the
          // outer lhs, or the inner projection is doomed to mismatch.
          DataType lhs = type_of(f.outer_lhs);
          bool ok = false;
          const TableSchema& ts = cat.table(t.table_idx);
          for (size_t ci = 0; ci < ts.num_columns() && !ok; ++ci) {
            ok = SqlLinter::TypesComparable(lhs, ts.column(ci).type);
          }
          if (!ok) {
            flag(LintRuleName(LintRule::kSubqueryTypeMismatch),
                 "IN subquery offered table " + t.text +
                     " with no column comparable to the outer lhs");
          }
        }
        break;

      case BuildPhase::kJoinTable:
        if (t.kind == TokenKind::kTable) {
          if (in_scope(t.table_idx)) {
            flag(LintRuleName(LintRule::kJoinNotPkFk),
                 "JOIN offered already-joined table " + t.text);
            break;
          }
          bool edge = false;
          for (int prev : f.scope_tables) {
            if (linter_->HasForeignKeyEdge(prev, t.table_idx)) {
              edge = true;
              break;
            }
          }
          if (!edge) {
            flag(LintRuleName(LintRule::kJoinNotPkFk),
                 "JOIN offered table " + t.text +
                     " with no PK-FK edge to the chain");
          }
        }
        break;

      case BuildPhase::kSelectItem:
        if (t.kind == TokenKind::kColumn) {
          if (check_scope_column(t) &&
              f.purpose == FramePurpose::kInSub &&
              !SqlLinter::TypesComparable(type_of(f.outer_lhs),
                                          type_of(t.column))) {
            flag(LintRuleName(LintRule::kSubqueryTypeMismatch),
                 "IN subquery offered projection column " + t.text +
                     " not comparable to the outer lhs");
          }
        }
        break;

      case BuildPhase::kAfterSelectItem:
      case BuildPhase::kWherePred:
      case BuildPhase::kGroupByColumn:
      case BuildPhase::kAfterGroupBy:
      case BuildPhase::kOrderByColumn:
      case BuildPhase::kAfterOrderBy:
        if (t.kind == TokenKind::kColumn) check_scope_column(t);
        break;

      case BuildPhase::kAggColumn:
        if (t.kind == TokenKind::kColumn && check_scope_column(t) &&
            !SqlLinter::AggregateAllowed(f.pending_agg, type_of(t.column))) {
          flag(LintRuleName(LintRule::kAggregateTypeMismatch),
               StrFormat("%s offered over non-numeric column %s",
                         AggFuncName(f.pending_agg), t.text.c_str()));
        }
        break;

      case BuildPhase::kWhereOp: {
        DataType lhs = type_of(f.pending_column);
        if (t.kind == TokenKind::kOperator &&
            !SqlLinter::OperatorAllowed(t.op, lhs)) {
          flag(LintRuleName(LintRule::kOperatorTypeMismatch),
               StrFormat("operator %s offered for %s lhs", t.text.c_str(),
                         DataTypeName(lhs)));
        }
        if (t.kind == TokenKind::kKeyword && t.keyword == Keyword::kLike &&
            !StringLike(lhs)) {
          flag(LintRuleName(LintRule::kLikeOnNonString),
               "LIKE offered for non-string lhs");
        }
        break;
      }

      case BuildPhase::kWhereRhs: {
        DataType lhs = type_of(f.pending_column);
        if (t.kind == TokenKind::kValue) {
          if (!(owner_of(t) == f.pending_column)) {
            flag(LintRuleName(LintRule::kValueTypeMismatch),
                 "rhs literal " + t.text + " not sampled from the lhs column");
          } else if (!SqlLinter::ValueCompatible(t.value, lhs)) {
            flag(LintRuleName(LintRule::kValueTypeMismatch),
                 "rhs literal " + t.text + " incompatible with lhs type");
          }
        }
        if (t.kind == TokenKind::kKeyword &&
            t.keyword == Keyword::kOpenParen && !IsNumeric(lhs)) {
          flag(LintRuleName(LintRule::kSubqueryTypeMismatch),
               "scalar subquery offered for non-numeric lhs");
        }
        break;
      }

      case BuildPhase::kWhereLikeRhs:
        if (t.kind == TokenKind::kValue &&
            (!t.is_pattern || !(owner_of(t) == f.pending_column) ||
             !t.value.is_string())) {
          flag(LintRuleName(LintRule::kLikeOnNonString),
               "non-pattern literal " + t.text + " offered after LIKE");
        }
        break;

      case BuildPhase::kHavingColumn:
        // Any of the five aggregates may be pending, so the column must
        // support the strictest (SUM), i.e. be numeric.
        if (t.kind == TokenKind::kColumn && check_scope_column(t) &&
            !SqlLinter::AggregateAllowed(AggFunc::kSum, type_of(t.column))) {
          flag(LintRuleName(LintRule::kAggregateTypeMismatch),
               "HAVING offered non-numeric column " + t.text);
        }
        break;

      case BuildPhase::kHavingValue: {
        const SelectQuery* q = f.query;
        if (t.kind == TokenKind::kValue && q != nullptr &&
            q->having.has_value()) {
          if (!(owner_of(t) == q->having->column) || !t.value.is_numeric()) {
            flag(LintRuleName(LintRule::kValueTypeMismatch),
                 "HAVING rhs literal " + t.text +
                     " not numeric or not from the aggregated column");
          }
        }
        break;
      }

      case BuildPhase::kInsertValue:
        if (t.kind == TokenKind::kValue) {
          const InsertQuery* ins = fsm.builder().ast().insert.get();
          const int next = static_cast<int>(ins->values.size());
          if (t.value_column_table != ins->table_idx ||
              t.value_column_idx != next) {
            flag(LintRuleName(LintRule::kInsertArity),
                 "INSERT offered literal " + t.text +
                     " for the wrong column position");
          } else if (!SqlLinter::ValueCompatible(
                         t.value,
                         cat.table(ins->table_idx).column(next).type)) {
            flag(LintRuleName(LintRule::kValueTypeMismatch),
                 "INSERT literal " + t.text + " incompatible with column");
          }
        }
        break;

      case BuildPhase::kUpdateSetColumn:
        if (t.kind == TokenKind::kColumn) {
          const UpdateQuery* upd = fsm.builder().ast().update.get();
          if (t.column.table_idx != upd->table_idx) {
            flag(LintRuleName(LintRule::kColumnOutOfScope),
                 "UPDATE SET offered column " + t.text +
                     " outside the target table");
          } else if (cat.table(upd->table_idx)
                         .column(t.column.column_idx)
                         .is_primary_key) {
            flag(LintRuleName(LintRule::kUpdatePrimaryKey),
                 "UPDATE SET offered primary-key column " + t.text);
          }
        }
        break;

      case BuildPhase::kUpdateSetValue:
        if (t.kind == TokenKind::kValue) {
          const UpdateQuery* upd = fsm.builder().ast().update.get();
          if (!(owner_of(t) == upd->set_column) ||
              !SqlLinter::ValueCompatible(t.value,
                                          type_of(upd->set_column))) {
            flag(LintRuleName(LintRule::kValueTypeMismatch),
                 "UPDATE SET literal " + t.text + " incompatible with column");
          }
        }
        break;

      default:
        break;
    }
  }
}

}  // namespace

std::vector<int> FsmAnalysisReport::NeverOfferedTokens() const {
  std::vector<int> out;
  for (size_t id = 0; id < offered.size(); ++id) {
    if (offered[id] == 0) out.push_back(static_cast<int>(id));
  }
  return out;
}

std::string FsmAnalysisReport::Summary(const Vocabulary* vocab) const {
  std::string s = StrFormat(
      "profile=%s states=%d edges=%d accepting=%d summaries=%d exhausted=%s\n"
      "dead=%d stuck=%d violations=%d max-prefix=%d never-offered=%zu\n",
      profile_name.empty() ? "?" : profile_name.c_str(), num_states,
      num_edges, num_accepting_edges, num_summaries,
      exhausted ? "yes" : "NO", num_dead, num_stuck, num_violations,
      max_prefix_tokens, NeverOfferedTokens().size());
  auto dump = [&s](const char* label, const std::vector<FsmDefect>& list) {
    for (const FsmDefect& d : list) {
      s += StrFormat("  %s %s at %s: %s\n    prefix: %s\n", label,
                     d.kind.c_str(), d.phase.c_str(), d.detail.c_str(),
                     d.prefix.c_str());
    }
  };
  dump("[violation]", violations);
  dump("[dead]", dead_examples);
  dump("[stuck]", stuck_examples);
  if (vocab != nullptr) {
    std::vector<int> never = NeverOfferedTokens();
    for (size_t i = 0; i < never.size() && i < 16; ++i) {
      s += StrFormat("  [never-offered] id=%d %s\n", never[i],
                     vocab->token(never[i]).text.c_str());
    }
    if (never.size() > 16) {
      s += StrFormat("  [never-offered] ... %zu more\n", never.size() - 16);
    }
  }
  return s;
}

std::string FsmAnalysisReport::ToJson() const {
  std::string out = "{\"profile\":\"";
  obs::JsonEscapeTo(profile_name, &out);
  out += StrFormat(
      "\",\"exhausted\":%s,\"states\":%d,\"edges\":%d,"
      "\"accepting_edges\":%d,\"summaries\":%d,\"dead\":%d,\"stuck\":%d,"
      "\"violations\":%d,\"max_prefix_tokens\":%d,\"never_offered\":%zu,",
      exhausted ? "true" : "false", num_states, num_edges,
      num_accepting_edges, num_summaries, num_dead, num_stuck,
      num_violations, max_prefix_tokens, NeverOfferedTokens().size());
  AppendDefectsJson("violation_examples", violations, &out);
  out.push_back(',');
  AppendDefectsJson("dead_examples", dead_examples, &out);
  out.push_back(',');
  AppendDefectsJson("stuck_examples", stuck_examples, &out);
  out.push_back('}');
  return out;
}

FsmAnalyzer::FsmAnalyzer(const Database* db, const Vocabulary* vocab,
                         AnalyzerOptions options)
    : db_(db),
      vocab_(vocab),
      options_(options),
      profile_(options.profile),
      linter_(&db->catalog()) {
  LSG_CHECK(db != nullptr && vocab != nullptr);
  profile_.max_joins = std::min(profile_.max_joins, 2);
  profile_.max_select_items = std::min(profile_.max_select_items, 2);
  profile_.max_predicates = std::min(profile_.max_predicates, 2);
  profile_.max_tokens =
      options_.budget_tokens > 0 ? options_.budget_tokens : 4096;
}

StatusOr<FsmAnalysisReport> FsmAnalyzer::Analyze() {
  FsmAnalysisReport report;
  report.offered.assign(vocab_->size(), 0);
  Explorer explorer(db_, vocab_, profile_, options_, &linter_, &report);
  explorer.Run();
  return report;
}

}  // namespace lsg
