#include "fuzz/oracle.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/batch_decoder.h"
#include "core/environment.h"
#include "rl/policy_network.h"
#include "rl/policy_gradient_trainer.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace lsg {

namespace {

bool AstHasWhere(const QueryAst& ast) {
  switch (ast.type) {
    case QueryType::kSelect:
      return ast.select != nullptr && !ast.select->where.empty();
    case QueryType::kInsert:
      return ast.insert != nullptr && ast.insert->source != nullptr &&
             !ast.insert->source->where.empty();
    case QueryType::kUpdate:
      return ast.update != nullptr && !ast.update->where.empty();
    case QueryType::kDelete:
      return ast.del != nullptr && !ast.del->where.empty();
  }
  return false;
}

/// Cross product of the top-level joined tables — a hard ceiling no sane
/// cardinality estimate can exceed (WHERE/GROUP BY only shrink it).
double CrossProductRows(const QueryAst& ast, const Database& db) {
  const SelectQuery* q = nullptr;
  switch (ast.type) {
    case QueryType::kSelect:
      q = ast.select.get();
      break;
    case QueryType::kInsert:
      if (ast.insert->source == nullptr) return 1.0;
      q = ast.insert->source.get();
      break;
    case QueryType::kUpdate:
      return static_cast<double>(
          db.tables()[ast.update->table_idx].num_rows());
    case QueryType::kDelete:
      return static_cast<double>(db.tables()[ast.del->table_idx].num_rows());
  }
  double prod = 1.0;
  for (int t : q->tables) {
    prod *= std::max<double>(1.0, static_cast<double>(
        db.tables()[t].num_rows()));
  }
  return prod;
}

/// Index of the first differing byte, for fixpoint failure messages.
size_t FirstDiff(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

bool TablesEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      Value va = a.GetValue(r, c);
      Value vb = b.GetValue(r, c);
      if (va.is_null() != vb.is_null()) return false;
      if (!va.is_null() && va.Compare(vb) != 0) return false;
    }
  }
  return true;
}

int DmlTableIndex(const QueryAst& ast) {
  switch (ast.type) {
    case QueryType::kInsert:
      return ast.insert->table_idx;
    case QueryType::kUpdate:
      return ast.update->table_idx;
    case QueryType::kDelete:
      return ast.del->table_idx;
    case QueryType::kSelect:
      break;
  }
  return -1;
}

}  // namespace

DifferentialOracle::DifferentialOracle(Database* db, OracleOptions options)
    : db_(db),
      options_(options),
      stats_(DatabaseStats::Collect(*db)),
      estimator_(db, &stats_),
      cost_model_(&estimator_),
      exec_(db),
      dml_(db),
      reference_(db, options.max_reference_work),
      vexec_(db, vexec::VexecOptions{.inject = options.inject_vexec_bug}),
      linter_(&db->catalog()) {}

std::optional<OracleViolation> DifferentialOracle::Check(const QueryAst& ast) {
  ++checked_;
  const std::string sql = RenderSql(ast, db_->catalog());

  // 0. Static lint: every FSM-generated query must satisfy the AST-level
  // semantic rules. The linter re-derives the rule set from the catalog
  // alone (never from fsm/semantic_rules.cc), so it catches masking gaps
  // the dynamic oracles below would execute right through.
  if (options_.check_lint) {
    std::vector<LintIssue> issues = linter_.Lint(ast);
    if (!issues.empty()) {
      return OracleViolation{
          "lint", std::string(LintRuleName(issues[0].rule)) + ": " +
                      issues[0].message + " sql=" + sql};
    }
  }

  // 1. The optimized executor must accept every FSM-generated query. Join
  // blowups past the intermediate-tuple cap are resource exhaustion, not
  // bugs: skip the episode.
  auto fast = exec_.Cardinality(ast);
  if (!fast.ok()) {
    if (fast.status().code() == StatusCode::kOutOfRange) {
      ++skipped_;
      return std::nullopt;
    }
    return OracleViolation{
        "executor-error",
        fast.status().ToString() + " sql=" + sql};
  }
  uint64_t fast_card = *fast;
  if (options_.inject_card_offset != 0 && AstHasWhere(ast)) {
    int64_t shifted =
        static_cast<int64_t>(fast_card) + options_.inject_card_offset;
    fast_card = shifted < 0 ? 0 : static_cast<uint64_t>(shifted);
  }

  // 2. Differential cardinality: optimized executor vs. naive reference.
  if (options_.check_reference) {
    auto ref = reference_.EvalAst(ast);
    if (!ref.ok()) {
      if (ref.status().code() == StatusCode::kOutOfRange) {
        ++skipped_;
      } else {
        return OracleViolation{
            "reference-error", ref.status().ToString() + " sql=" + sql};
      }
    } else if (*ref != fast_card) {
      return OracleViolation{
          "exec-vs-ref",
          StrFormat("executor=%llu reference=%llu sql=",
                    static_cast<unsigned long long>(fast_card),
                    static_cast<unsigned long long>(*ref)) + sql};
    }
  }

  // 2b. Lockstep vectorized engine: vexec must reproduce the reference
  // executor bitwise — same cardinality (compared against the *uninjected*
  // executor result so this check stays independent of the exec-vs-ref
  // mutation hooks) and, for UPDATE/DELETE, the exact per-row match
  // vector. OutOfRange means both engines hit their (shared) join cap.
  if (options_.check_vexec) {
    if (ast.type == QueryType::kSelect && ast.select != nullptr) {
      // SELECTs compare the fully materialized first column position by
      // position, not just the cardinality — a corrupted join that matches
      // the *wrong* rows with the right multiplicity is invisible to counts
      // alone — and the ExecStats work meters.
      auto rv = vexec_.ExecuteSelect(*ast.select, true);
      auto rr = exec_.ExecuteSelect(*ast.select, true);
      if (!rv.ok() || !rr.ok()) {
        const Status& bad = !rv.ok() ? rv.status() : rr.status();
        if (bad.code() == StatusCode::kOutOfRange) {
          ++skipped_;
        } else {
          return OracleViolation{
              "vexec", "vectorized engine error: " + bad.ToString() +
                           " sql=" + sql};
        }
      } else if (rv->cardinality != rr->cardinality) {
        return OracleViolation{
            "vexec",
            StrFormat("vectorized=%llu reference=%llu sql=",
                      static_cast<unsigned long long>(rv->cardinality),
                      static_cast<unsigned long long>(rr->cardinality)) +
                sql};
      } else if (rv->first_column.size() != rr->first_column.size()) {
        return OracleViolation{
            "vexec",
            StrFormat("first column has %zu rows vectorized, %zu reference "
                      "sql=",
                      rv->first_column.size(), rr->first_column.size()) +
                sql};
      } else if (rv->stats.rows_scanned != rr->stats.rows_scanned ||
                 rv->stats.rows_joined != rr->stats.rows_joined ||
                 rv->stats.rows_probed != rr->stats.rows_probed ||
                 rv->stats.rows_output != rr->stats.rows_output) {
        // CostModel::TrueCost prices cost-constraint feedback from these.
        return OracleViolation{
            "vexec",
            StrFormat("exec stats diverged (scanned/joined/probed/output): "
                      "vectorized=%.17g/%.17g/%.17g/%.17g "
                      "reference=%.17g/%.17g/%.17g/%.17g sql=",
                      rv->stats.rows_scanned, rv->stats.rows_joined,
                      rv->stats.rows_probed, rv->stats.rows_output,
                      rr->stats.rows_scanned, rr->stats.rows_joined,
                      rr->stats.rows_probed, rr->stats.rows_output) +
                sql};
      } else {
        for (size_t i = 0; i < rr->first_column.size(); ++i) {
          const Value& a = rv->first_column[i];
          const Value& b = rr->first_column[i];
          if (a.is_null() != b.is_null() ||
              (!a.is_null() && a.Compare(b) != 0)) {
            return OracleViolation{
                "vexec",
                StrFormat("first column diverged at row %zu: "
                          "vectorized=%s reference=%s sql=",
                          i, a.ToSqlLiteral().c_str(),
                          b.ToSqlLiteral().c_str()) + sql};
          }
        }
      }
    } else {
      auto vcard = vexec_.Cardinality(ast);
      if (!vcard.ok()) {
        if (vcard.status().code() == StatusCode::kOutOfRange) {
          ++skipped_;
        } else {
          return OracleViolation{
              "vexec", "vectorized engine error: " +
                           vcard.status().ToString() + " sql=" + sql};
        }
      } else if (*vcard != *fast) {
        return OracleViolation{
            "vexec",
            StrFormat("vectorized=%llu reference=%llu sql=",
                      static_cast<unsigned long long>(*vcard),
                      static_cast<unsigned long long>(*fast)) + sql};
      }
    }
    if (ast.type == QueryType::kUpdate || ast.type == QueryType::kDelete) {
      const int t = ast.type == QueryType::kUpdate ? ast.update->table_idx
                                                   : ast.del->table_idx;
      const WhereClause& w = ast.type == QueryType::kUpdate
                                 ? ast.update->where
                                 : ast.del->where;
      auto mv = vexec_.MatchRows(t, w);
      auto mr = exec_.MatchRows(t, w);
      if (!mv.ok() || !mr.ok()) {
        const Status& bad = !mv.ok() ? mv.status() : mr.status();
        if (bad.code() == StatusCode::kOutOfRange) {
          ++skipped_;
        } else {
          return OracleViolation{
              "vexec", "MatchRows error: " + bad.ToString() + " sql=" + sql};
        }
      } else if (*mv != *mr) {
        size_t diff = 0;
        while (diff < mv->size() && diff < mr->size() &&
               (*mv)[diff] == (*mr)[diff]) {
          ++diff;
        }
        return OracleViolation{
            "vexec",
            StrFormat("match vector diverged at row %zu "
                      "(vectorized=%d reference=%d) sql=",
                      diff,
                      diff < mv->size() ? ((*mv)[diff] ? 1 : 0) : -1,
                      diff < mr->size() ? ((*mr)[diff] ? 1 : 0) : -1) + sql};
      }
    }
  }

  // 3. Round trip: Render(Parse(Render(q))) must equal Render(q) byte for
  // byte, and the reparsed AST must execute to the same cardinality.
  if (options_.check_roundtrip) {
    std::string rendered = sql;
    if (options_.inject_render_space) {
      size_t sp = rendered.find(' ');
      if (sp != std::string::npos) rendered.insert(sp, " ");
    }
    auto parsed = ParseSql(rendered, db_->catalog());
    if (!parsed.ok()) {
      return OracleViolation{
          "reparse-error", parsed.status().ToString() + " sql=" + rendered};
    }
    std::string again = RenderSql(*parsed, db_->catalog());
    if (again != rendered) {
      return OracleViolation{
          "render-fixpoint",
          StrFormat("first diff at byte %zu: ", FirstDiff(again, rendered)) +
              "rendered=" + rendered + " reparsed=" + again};
    }
    auto re = exec_.Cardinality(*parsed);
    if (!re.ok()) {
      if (re.status().code() != StatusCode::kOutOfRange) {
        return OracleViolation{
            "reparse-error",
            "reparsed query failed to execute: " + re.status().ToString() +
                " sql=" + rendered};
      }
    } else if (*re != *fast) {
      return OracleViolation{
          "reparse-exec",
          StrFormat("original=%llu reparsed=%llu sql=",
                    static_cast<unsigned long long>(*fast),
                    static_cast<unsigned long long>(*re)) + rendered};
    }
  }

  // 4. Estimator sanity: finite, non-negative, below the cross product.
  if (options_.check_estimator) {
    double est = estimator_.EstimateCardinality(ast);
    double bound =
        options_.estimator_slack * CrossProductRows(ast, *db_) + 1.0;
    if (!std::isfinite(est) || est < 0.0 || est > bound) {
      return OracleViolation{
          "estimator-bounds",
          StrFormat("estimate=%g bound=%g sql=", est, bound) + sql};
    }
  }

  // 5. DML applied for real under snapshot/rollback.
  if (options_.check_dml_apply && ast.type != QueryType::kSelect) {
    auto v = CheckDmlApply(ast, fast_card);
    if (v.has_value()) return v;
  }
  return std::nullopt;
}

std::optional<OracleViolation> DifferentialOracle::CheckDmlApply(
    const QueryAst& ast, uint64_t predicted) {
  // INSERT..SELECT apply needs full-row projection the engine does not
  // implement; the dry-run count is already differentially checked above.
  if (ast.type == QueryType::kInsert && ast.insert->source != nullptr) {
    return std::nullopt;
  }
  const int table_idx = DmlTableIndex(ast);
  const std::string sql = RenderSql(ast, db_->catalog());
  const std::string table_name = db_->catalog().table(table_idx).name();
  Table* live = db_->FindMutableTable(table_name);
  if (live == nullptr) {
    return OracleViolation{"dml-apply", "target table missing: " + sql};
  }
  const Table snapshot = *live;  // deep copy: schema + columns

  auto applied = dml_.Apply(db_, ast);
  if (!applied.ok()) {
    *live = snapshot;
    return OracleViolation{
        "dml-apply", applied.status().ToString() + " sql=" + sql};
  }
  std::string failure;
  if (*applied != predicted) {
    failure = StrFormat("applied=%llu dry-run=%llu sql=",
                        static_cast<unsigned long long>(*applied),
                        static_cast<unsigned long long>(predicted)) + sql;
  } else {
    // Row-count delta must match the statement type.
    const size_t before = snapshot.num_rows();
    const size_t after = live->num_rows();
    size_t expect = before;
    if (ast.type == QueryType::kInsert) expect = before + 1;
    if (ast.type == QueryType::kDelete) expect = before - *applied;
    if (after != expect) {
      failure = StrFormat("rows before=%zu after=%zu expected=%zu sql=",
                          before, after, expect) + sql;
    }
  }
  *live = snapshot;  // rollback
  if (!failure.empty()) return OracleViolation{"dml-apply", failure};
  // End-to-end rollback check: the restored table must be byte-identical
  // and the dry run must still count the same rows it did before apply.
  if (!TablesEqual(*live, snapshot)) {
    return OracleViolation{"dml-rollback",
                           "snapshot restore left " + table_name +
                               " in a different state, sql=" + sql};
  }
  auto recount = exec_.Cardinality(ast);
  if (!recount.ok() || *recount != *applied) {
    return OracleViolation{
        "dml-rollback",
        StrFormat("post-rollback dry run %s (want %llu) sql=",
                  recount.ok() ? StrFormat("counts %llu",
                                           static_cast<unsigned long long>(
                                               *recount)).c_str()
                               : recount.status().ToString().c_str(),
                  static_cast<unsigned long long>(*applied)) + sql};
  }
  return std::nullopt;
}

namespace {

// Exact equality, treating NaN as matching NaN (the invariant is "same
// bits", not numeric closeness).
bool SameEstimate(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// Private sampling stream of the serve-decode oracle's request b.
uint64_t RequestStream(uint64_t seed, size_t b) {
  return SplitMix64(seed + 0x1000 + b);
}

}  // namespace

std::optional<OracleViolation> DifferentialOracle::CheckPrefixEstimates(
    const Vocabulary* vocab, const QueryProfile& profile,
    const std::vector<int>& actions) {
  if (!options_.check_prefix_estimates) return std::nullopt;
  GenerationFsm fsm(db_, vocab, profile);
  PrefixEstimator incremental(&estimator_, &cost_model_);
  for (size_t i = 0; i < actions.size(); ++i) {
    Status st = fsm.Step(actions[i]);
    if (!st.ok()) {
      return OracleViolation{
          "prefix-estimate",
          StrFormat("replay rejected token %zu: ", i) + st.ToString()};
    }
    if (!fsm.done() && !fsm.IsExecutablePrefix()) continue;
    const QueryAst& ast = fsm.builder().ast();
    if (ast.type != QueryType::kSelect || ast.select == nullptr) continue;
    const double inc_card = incremental.Cardinality(*ast.select);
    const double full_card = estimator_.EstimateSelect(*ast.select, nullptr);
    if (!SameEstimate(inc_card, full_card)) {
      return OracleViolation{
          "prefix-estimate",
          StrFormat("cardinality diverged at token %zu: incremental=%.17g "
                    "full=%.17g",
                    i, inc_card, full_card)};
    }
    const double inc_cost = incremental.Cost(*ast.select);
    const double full_cost = cost_model_.SelectCost(*ast.select);
    if (!SameEstimate(inc_cost, full_cost)) {
      return OracleViolation{
          "prefix-estimate",
          StrFormat("cost diverged at token %zu: incremental=%.17g "
                    "full=%.17g",
                    i, inc_cost, full_cost)};
    }
  }
  return std::nullopt;
}

std::optional<OracleViolation> DifferentialOracle::CheckServeDecode(
    std::shared_ptr<const DatabaseContext> context,
    const QueryProfile& profile, uint64_t seed) {
  if (!options_.check_serve_decode) return std::nullopt;
  LSG_CHECK(context->db() == db_) << "context over another database";

  // Small random-weight policy: the serving decode must reproduce the
  // rollout for *any* parameters, so no training is needed.
  NetworkOptions net;
  net.hidden_dim = 12;
  net.seed = SplitMix64(seed ^ 0xba7c4dec0deULL);
  auto actor = std::make_shared<PolicyNetwork>(context->vocab().size(), net);

  EnvironmentOptions env_opts;
  env_opts.profile = profile;
  // A wide range keeps the comparison about decoding, not learnability.
  const Constraint constraint =
      Constraint::Range(ConstraintMetric::kCardinality, 1.0, 1e12);

  // Reference: the training/eval entry driven by RolloutPolicy, sampling
  // the request's private stream.
  struct RefQuery {
    std::string sql;
    double metric = 0.0;
    bool satisfied = false;
  };
  auto run_rollout = [&](uint64_t rng_seed,
                        int n) -> StatusOr<std::vector<RefQuery>> {
    Rng rng(rng_seed);
    SqlGenEnvironment env(*context, constraint, env_opts);
    std::vector<RefQuery> out;
    for (int attempt = 0; attempt < n; ++attempt) {
      PolicyNetwork::Episode ep = actor->BeginEpisode(/*train=*/false);
      LSG_ASSIGN_OR_RETURN(Trajectory traj,
                           RolloutPolicy(&env, actor.get(), &ep, &rng));
      RefQuery q;
      q.sql = RenderSql(traj.ast, db_->catalog());
      q.metric = traj.final_metric;
      q.satisfied = traj.satisfied;
      out.push_back(std::move(q));
    }
    return out;
  };

  ServingSnapshot snap;
  snap.context = context;
  snap.actor = actor;
  snap.env_opts = env_opts;
  snap.constraint = constraint;

  // Distinct budgets, decoded one request after another.
  const std::vector<int> budgets = {2, 1, 3};
  for (size_t b = 0; b < budgets.size(); ++b) {
    BatchDecodeItem item;
    item.constraint = constraint;
    item.n = budgets[b];
    item.batch_mode = true;  // fixed attempts: every episode compared
    item.rng = Rng(RequestStream(seed, b));
    DecodeItem(snap, &item);
    if (!item.status.ok()) {
      return OracleViolation{
          "serve-decode",
          StrFormat("request %zu failed: ", b) + item.status.ToString()};
    }
    auto ref = run_rollout(RequestStream(seed, b), item.n);
    if (!ref.ok()) {
      return OracleViolation{
          "serve-decode",
          StrFormat("rollout reference for request %zu failed: ", b) +
              ref.status().ToString()};
    }
    if (item.report.attempts != item.n ||
        item.report.queries.size() != ref->size()) {
      return OracleViolation{
          "serve-decode",
          StrFormat("request %zu shape diverged: attempts=%d queries=%zu "
                    "rollout=%zu",
                    b, item.report.attempts, item.report.queries.size(),
                    ref->size())};
    }
    for (size_t q = 0; q < ref->size(); ++q) {
      const GeneratedQuery& got = item.report.queries[q];
      const RefQuery& want = (*ref)[q];
      if (got.sql != want.sql) {
        return OracleViolation{
            "serve-decode",
            StrFormat("request %zu query %zu sql diverged: served=\"%s\" "
                      "rollout=\"%s\"",
                      b, q, got.sql.c_str(), want.sql.c_str())};
      }
      if (!SameEstimate(got.metric, want.metric) ||
          got.satisfied != want.satisfied) {
        return OracleViolation{
            "serve-decode",
            StrFormat("request %zu query %zu metric diverged: "
                      "served=%.17g/%d rollout=%.17g/%d",
                      b, q, got.metric, got.satisfied ? 1 : 0, want.metric,
                      want.satisfied ? 1 : 0)};
      }
    }
  }
  return std::nullopt;
}

}  // namespace lsg
