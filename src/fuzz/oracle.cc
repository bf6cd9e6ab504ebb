#include "fuzz/oracle.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/decode.h"
#include "core/environment.h"
#include "rl/policy_network.h"
#include "rl/trajectory.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace lsg {

namespace {

/// Slack multiplier on the estimator's cross-product upper bound.
constexpr double kEstimatorSlack = 1.5;

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

/// Applies an INSERT VALUES, UPDATE or DELETE to `live`, its target table,
/// for real — UPDATE and DELETE on the rows `ref` matches — and returns the
/// number of rows affected.
StatusOr<uint64_t> ApplyDml(const ReferenceEvaluator& ref,
                            const QueryAst& ast, Table* live) {
  if (ast.type == QueryType::kInsert) {
    LSG_RETURN_IF_ERROR(live->AppendRow(ast.insert->values));
    return uint64_t{1};
  }
  const bool update = ast.type == QueryType::kUpdate;
  LSG_ASSIGN_OR_RETURN(
      const std::vector<bool> match,
      update ? ref.MatchRows(ast.update->table_idx, ast.update->where)
             : ref.MatchRows(ast.del->table_idx, ast.del->where));
  uint64_t affected = 0;
  std::vector<bool> keep(match.size());
  for (size_t r = 0; r < match.size(); ++r) {
    keep[r] = !match[r];
    if (!match[r]) continue;
    ++affected;
    if (update) {
      LSG_RETURN_IF_ERROR(live->SetValue(r, ast.update->set_column.column_idx,
                                         ast.update->set_value));
    }
  }
  if (!update) live->FilterRows(keep);
  return affected;
}

}  // namespace

DifferentialOracle::DifferentialOracle(Database* db, OracleOptions options)
    : db_(db),
      options_(options),
      stats_(DatabaseStats::Collect(*db)),
      estimator_(db, &stats_),
      cost_model_(&estimator_),
      reference_(db),
      vexec_(db),
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

  // 1. The vectorized engine must accept every FSM-generated query. Join
  // blowups past the intermediate-tuple cap are resource exhaustion, not
  // bugs: skip the episode.
  auto fast = vexec_.Cardinality(ast);
  if (!fast.ok()) {
    if (fast.status().code() == StatusCode::kOutOfRange) {
      ++skipped_;
      return std::nullopt;
    }
    return OracleViolation{
        "executor-error",
        fast.status().ToString() + " sql=" + sql};
  }

  // 2. The vectorized engine against the nested-loop reference.
  if (options_.check_vexec) {
    auto v = CheckExecution(ast, *fast, sql);
    if (v.has_value()) return v;
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
    auto re = vexec_.Cardinality(*parsed);
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
    double bound = kEstimatorSlack * CrossProductRows(ast, *db_) + 1.0;
    if (!std::isfinite(est) || est < 0.0 || est > bound) {
      return OracleViolation{
          "estimator-bounds",
          StrFormat("estimate=%g bound=%g sql=", est, bound) + sql};
    }
  }

  // 5. DML applied for real under snapshot/rollback.
  if (options_.check_dml_apply && ast.type != QueryType::kSelect) {
    auto v = CheckDmlApply(ast, *fast);
    if (v.has_value()) return v;
  }
  return std::nullopt;
}

std::optional<OracleViolation> DifferentialOracle::CheckExecution(
    const QueryAst& ast, uint64_t card, const std::string& sql) {
  // The planted card-off-by-one bug shifts the engine's cardinality of
  // every query with a WHERE.
  auto shifted = [&](uint64_t c) {
    if (options_.inject_card_offset == 0 || !AstHasWhere(ast)) return c;
    const int64_t s = static_cast<int64_t>(c) + options_.inject_card_offset;
    return s < 0 ? uint64_t{0} : static_cast<uint64_t>(s);
  };
  auto diverged = [&](const std::string& what) {
    return OracleViolation{"vexec", what + " sql=" + sql};
  };
  auto over_budget = [](const Status& st) {
    return st.code() == StatusCode::kResourceExhausted;
  };

  const SelectQuery* select =
      ast.type == QueryType::kSelect    ? ast.select.get()
      : ast.type == QueryType::kInsert ? ast.insert->source.get()
                                        : nullptr;
  if (select != nullptr) {
    // Beyond the first column the reference's result does not depend on
    // the materialize setting, so one materialized evaluation serves both
    // of the engine's: materialized, the first column is compared position
    // by position — a corrupted join that matches the *wrong* rows with
    // the right multiplicity is invisible to counts alone; count-only, the
    // SELECT takes the engine's count path. Both compare the ExecStats
    // meters, which CostModel::TrueCost prices cost feedback from.
    auto rr = reference_.ExecuteSelect(*select, /*materialize=*/true);
    if (!rr.ok() && over_budget(rr.status())) {
      ++skipped_;
      return std::nullopt;
    }
    for (const bool materialize : {true, false}) {
      const std::string mode = materialize ? "materialized " : "count-only ";
      auto rv = vexec_.ExecuteSelect(*select, materialize);
      if (!rv.ok() || !rr.ok()) {
        if (rv.status().code() != rr.status().code() ||
            rv.status().message() != rr.status().message()) {
          return diverged(mode + "status diverged: vectorized=" +
                          rv.status().ToString() +
                          " reference=" + rr.status().ToString());
        }
        if (rv.status().code() != StatusCode::kOutOfRange) {
          return diverged("vectorized engine error: " +
                          rv.status().ToString());
        }
        continue;
      }
      const uint64_t got = shifted(rv->cardinality);
      const std::vector<Value> none;
      const std::vector<Value>& want_column =
          materialize ? rr->first_column : none;
      const ExecStats& a = rv->stats;
      const ExecStats& b = rr->stats;
      if (got != rr->cardinality) {
        return diverged(mode + StrFormat("vectorized=%llu reference=%llu",
                                         static_cast<unsigned long long>(got),
                                         static_cast<unsigned long long>(
                                             rr->cardinality)));
      }
      if (rv->first_column.size() != want_column.size()) {
        return diverged(mode + StrFormat("first column has %zu rows "
                                         "vectorized, %zu reference",
                                         rv->first_column.size(),
                                         want_column.size()));
      }
      if (a.rows_scanned != b.rows_scanned ||
          a.rows_joined != b.rows_joined || a.rows_probed != b.rows_probed ||
          a.rows_output != b.rows_output) {
        return diverged(
            mode + StrFormat("exec stats diverged (scanned/joined/probed/"
                             "output): vectorized=%.17g/%.17g/%.17g/%.17g "
                             "reference=%.17g/%.17g/%.17g/%.17g",
                             a.rows_scanned, a.rows_joined, a.rows_probed,
                             a.rows_output, b.rows_scanned, b.rows_joined,
                             b.rows_probed, b.rows_output));
      }
      for (size_t i = 0; i < want_column.size(); ++i) {
        const Value& x = rv->first_column[i];
        const Value& y = want_column[i];
        if (x.is_null() != y.is_null() ||
            (!x.is_null() && x.Compare(y) != 0)) {
          return diverged(StrFormat("first column diverged at row %zu: "
                                    "vectorized=%s reference=%s",
                                    i, x.ToSqlLiteral().c_str(),
                                    y.ToSqlLiteral().c_str()));
        }
      }
    }
    return std::nullopt;
  }

  auto ref_card = reference_.Cardinality(ast);
  if (!ref_card.ok()) {
    if (over_budget(ref_card.status())) {
      ++skipped_;
      return std::nullopt;
    }
    return diverged("status diverged: vectorized=OK reference=" +
                    ref_card.status().ToString());
  }
  if (shifted(card) != *ref_card) {
    return diverged(StrFormat("vectorized=%llu reference=%llu",
                              static_cast<unsigned long long>(shifted(card)),
                              static_cast<unsigned long long>(*ref_card)));
  }
  if (ast.type == QueryType::kInsert) return std::nullopt;
  const bool update = ast.type == QueryType::kUpdate;
  const int t = update ? ast.update->table_idx : ast.del->table_idx;
  const WhereClause& w = update ? ast.update->where : ast.del->where;
  auto mv = vexec_.MatchRows(t, w);
  auto mr = reference_.MatchRows(t, w);
  if (!mr.ok() && over_budget(mr.status())) {
    ++skipped_;
    return std::nullopt;
  }
  if (!mv.ok() || !mr.ok()) {
    return diverged("MatchRows status: vectorized=" + mv.status().ToString() +
                    " reference=" + mr.status().ToString());
  }
  if (*mv != *mr) {
    size_t diff = 0;
    while (diff < mv->size() && diff < mr->size() &&
           (*mv)[diff] == (*mr)[diff]) {
      ++diff;
    }
    return diverged(StrFormat(
        "match vector diverged at row %zu (vectorized=%d reference=%d)",
        diff, diff < mv->size() ? ((*mv)[diff] ? 1 : 0) : -1,
        diff < mr->size() ? ((*mr)[diff] ? 1 : 0) : -1));
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

  auto applied = ApplyDml(reference_, ast, live);
  if (!applied.ok()) {
    *live = snapshot;
    if (applied.status().code() == StatusCode::kResourceExhausted) {
      ++skipped_;
      return std::nullopt;
    }
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
  auto recount = vexec_.Cardinality(ast);
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
  // reference loop for *any* parameters, so no training is needed.
  NetworkOptions net;
  net.hidden_dim = 12;
  net.seed = SplitMix64(seed ^ 0xba7c4dec0deULL);
  Rng init(net.seed);
  auto actor =
      std::make_shared<PolicyNetwork>(context->vocab().size(), net, &init);

  EnvironmentOptions env_opts;
  env_opts.profile = profile;
  // A wide range keeps the comparison about decoding, not learnability.
  const Constraint constraint =
      Constraint::Range(ConstraintMetric::kCardinality, 1.0, 1e12);

  // Reference: a hand-written episode loop — Reset, the FSM mask, the
  // policy's Step, SampleAction, the environment's Step — with a fresh
  // episode and workspace per attempt (the decode reuses its storage
  // across a request), sampling the request's private stream. It shares
  // no loop with Decode (no RolloutPolicy, no RunEpisode), so a fault in
  // that loop shows as a divergence.
  struct RefQuery {
    std::string sql;
    double metric = 0.0;
    bool satisfied = false;
  };
  auto run_reference = [&](uint64_t rng_seed,
                           int n) -> StatusOr<std::vector<RefQuery>> {
    Rng rng(rng_seed);
    SqlGenEnvironment env(*context, constraint, env_opts);
    std::vector<RefQuery> out;
    for (int attempt = 0; attempt < n; ++attempt) {
      PolicyNetwork::Episode ep = actor->BeginEpisode(/*train=*/false);
      PolicyNetwork::Workspace ws;
      PolicyNetwork::CompactDistribution dist;
      env.Reset();
      bool done = false;
      for (int step = 0; step < kMaxEpisodeSteps && !done; ++step) {
        LSG_RETURN_IF_ERROR(actor->Step(&ep, env.ValidActions().ids,
                                        /*dropout=*/nullptr, &dist, &ws));
        const int a = actor->SampleAction(dist, &rng);
        actor->RecordAction(&ep, a);
        LSG_ASSIGN_OR_RETURN(const EnvStepResult sr, env.Step(a));
        if (sr.done) {
          done = true;
          RefQuery q;
          q.sql = RenderSql(env.TakeAst(), db_->catalog());
          q.metric = sr.metric;
          q.satisfied = sr.satisfied;
          out.push_back(std::move(q));
        }
      }
      if (!done) return Status::Internal("reference episode hit the step cap");
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
    const int n = budgets[b];
    Rng rng(RequestStream(seed, b));
    // Fixed attempts (batch mode): every episode is compared.
    auto report = Decode(snap, constraint, n, /*batch=*/true, &rng);
    if (!report.ok()) {
      return OracleViolation{
          "serve-decode",
          StrFormat("request %zu failed: ", b) + report.status().ToString()};
    }
    auto ref = run_reference(RequestStream(seed, b), n);
    if (!ref.ok()) {
      return OracleViolation{
          "serve-decode",
          StrFormat("reference decode of request %zu failed: ", b) +
              ref.status().ToString()};
    }
    if (report->attempts != n || report->queries.size() != ref->size()) {
      return OracleViolation{
          "serve-decode",
          StrFormat("request %zu shape diverged: attempts=%d queries=%zu "
                    "reference=%zu",
                    b, report->attempts, report->queries.size(),
                    ref->size())};
    }
    for (size_t q = 0; q < ref->size(); ++q) {
      const GeneratedQuery& got = report->queries[q];
      const RefQuery& want = (*ref)[q];
      if (got.sql != want.sql) {
        return OracleViolation{
            "serve-decode",
            StrFormat("request %zu query %zu sql diverged: served=\"%s\" "
                      "reference=\"%s\"",
                      b, q, got.sql.c_str(), want.sql.c_str())};
      }
      if (!SameEstimate(got.metric, want.metric) ||
          got.satisfied != want.satisfied) {
        return OracleViolation{
            "serve-decode",
            StrFormat("request %zu query %zu metric diverged: "
                      "served=%.17g/%d reference=%.17g/%d",
                      b, q, got.metric, got.satisfied ? 1 : 0, want.metric,
                      want.satisfied ? 1 : 0)};
      }
    }
  }
  return std::nullopt;
}

}  // namespace lsg
