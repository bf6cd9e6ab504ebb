#include "fuzz/fuzzer.h"

#include <filesystem>
#include <memory>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/database_context.h"
#include "fuzz/shrinker.h"
#include "fuzz/test_databases.h"
#include "sql/render.h"

namespace lsg {

const std::vector<FuzzProfile>& FuzzProfiles() {
  static const std::vector<FuzzProfile>* kProfiles = [] {
    auto* profiles = new std::vector<FuzzProfile>;
    profiles->push_back({"default", QueryProfile()});
    profiles->push_back({"full", QueryProfile::Full()});
    {
      QueryProfile p;
      p.max_nesting_depth = 2;
      profiles->push_back({"nested", p});
    }
    {
      QueryProfile p;
      p.max_predicates = 6;
      p.max_select_items = 4;
      profiles->push_back({"wide", p});
    }
    {
      QueryProfile p;
      p.allow_select = false;
      p.allow_insert = true;
      p.allow_update = true;
      p.allow_delete = true;
      profiles->push_back({"dml", p});
    }
    // Appended (trace files index this list): the select-project-join
    // restriction.
    profiles->push_back({"spj", QueryProfile::SpjOnly()});
    return profiles;
  }();
  return *kProfiles;
}

std::string FuzzRunStats::ToString() const {
  return StrFormat(
      "episodes=%llu skipped=%llu failures=%zu shrink_probes=%d",
      static_cast<unsigned long long>(episodes),
      static_cast<unsigned long long>(skipped), failures.size(),
      shrink_probes);
}

namespace {

/// Per-episode seed: decorrelates datasets and episodes from one base seed
/// while staying a pure function of (base, dataset index, episode).
uint64_t EpisodeSeed(uint64_t base, size_t dataset_index, uint64_t episode) {
  return SplitMix64(SplitMix64(base + dataset_index * 0x9E3779B9ull) +
                    episode);
}

std::string ArtifactPath(const std::string& dir, const EpisodeTrace& t) {
  return (std::filesystem::path(dir) /
          StrFormat("%s-ep%llu-%s.trace", t.dataset.c_str(),
                    static_cast<unsigned long long>(t.episode),
                    t.oracle.c_str()))
      .string();
}

/// One dataset's database and the context over it. Heap-allocated: the
/// context points at the database, which therefore must not move.
struct Fixture {
  Database db;
  std::shared_ptr<const DatabaseContext> context;
};

StatusOr<std::unique_ptr<Fixture>> BuildFixture(const std::string& dataset,
                                                double scale,
                                                int values_per_column) {
  auto f = std::make_unique<Fixture>();
  LSG_ASSIGN_OR_RETURN(f->db, BuildNamedDatabase(dataset, scale));
  VocabularyOptions vocab;
  vocab.values_per_column = values_per_column;
  LSG_ASSIGN_OR_RETURN(f->context, DatabaseContext::Create(&f->db, vocab));
  return f;
}

}  // namespace

StatusOr<FuzzRunStats> RunFuzz(const FuzzOptions& options) {
  const std::vector<FuzzProfile>& profiles = FuzzProfiles();
  std::vector<std::string> datasets = options.datasets;
  if (datasets.empty()) datasets = FuzzDatasetNames();
  if (!options.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.corpus_dir, ec);
    if (ec) {
      return Status::NotFound("cannot create corpus dir " +
                              options.corpus_dir);
    }
  }

  FuzzRunStats stats;
  for (size_t di = 0; di < datasets.size(); ++di) {
    const std::string& dataset = datasets[di];
    LSG_ASSIGN_OR_RETURN(
        std::unique_ptr<Fixture> fixture,
        BuildFixture(dataset, options.scale, options.values_per_column));
    Database& db = fixture->db;
    DifferentialOracle oracle(&db, options.oracle);

    // The context carries the vocabulary every oracle replays through.
    const DatabaseContext& ctx = *fixture->context;
    const Vocabulary* vocab = &ctx.vocab();

    int dataset_failures = 0;
    for (int ep = 0; ep < options.episodes; ++ep) {
      if (dataset_failures >= options.max_failures) break;
      const int pi = ep % static_cast<int>(profiles.size());
      GenerationFsm fsm(&db, vocab, profiles[pi].profile);
      const uint64_t ep_seed = EpisodeSeed(options.seed, di, ep);
      Rng rng(ep_seed);
      std::vector<int> actions;
      auto ast = RecordedRandomWalk(&fsm, &rng, &actions);
      ++stats.episodes;

      EpisodeTrace trace;
      trace.dataset = dataset;
      trace.profile = pi;
      trace.scale = options.scale;
      trace.values_per_column = options.values_per_column;
      trace.seed = ep_seed;
      trace.episode = static_cast<uint64_t>(ep);
      trace.actions = actions;

      if (!ast.ok()) {
        // The FSM soundness invariant itself broke; not replayable through
        // the oracle, but still record the artifact.
        trace.oracle = "fsm-walk";
        trace.detail = ast.status().ToString();
      } else {
        const uint64_t skipped_before = oracle.skipped();
        auto violation = oracle.Check(*ast);
        stats.skipped += oracle.skipped() - skipped_before;
        if (!violation.has_value()) {
          // Sixth oracle: incremental prefix estimates must reproduce the
          // full walk at every executable prefix of the episode.
          violation = oracle.CheckPrefixEstimates(
              vocab, profiles[pi].profile, actions);
        }
        if (!violation.has_value() && ep % 8 == 0) {
          // Seventh oracle (sampled — it decodes its own requests, not
          // this episode's actions): the serving decode must reproduce the
          // rollout byte-for-byte under a random policy seeded from this
          // episode.
          violation = oracle.CheckServeDecode(
              fixture->context, profiles[pi].profile, ep_seed);
        }
        if (!violation.has_value()) continue;
        trace.oracle = violation->oracle;
        trace.detail = violation->detail;
        trace.sql = RenderSql(*ast, db.catalog());
        if (options.shrink) {
          const std::string want = violation->oracle;
          auto still_fails = [&](const std::vector<int>& candidate) {
            GenerationFsm replay_fsm(&db, vocab, profiles[pi].profile);
            auto replayed = ReplayActions(&replay_fsm, candidate, nullptr);
            if (!replayed.ok()) return false;
            auto v = oracle.Check(*replayed);
            if (!v.has_value()) {
              v = oracle.CheckPrefixEstimates(vocab, profiles[pi].profile,
                                              candidate);
            }
            return v.has_value() && v->oracle == want;
          };
          ShrinkResult shrunk = ShrinkTrace(actions, still_fails);
          stats.shrink_probes += shrunk.probes;
          // Re-derive sql/detail from the minimized trace so the artifact
          // describes exactly what --replay will reproduce.
          GenerationFsm final_fsm(&db, vocab, profiles[pi].profile);
          auto minimized = ReplayActions(&final_fsm, shrunk.actions, nullptr);
          if (minimized.ok()) {
            auto v = oracle.Check(*minimized);
            if (!v.has_value()) {
              v = oracle.CheckPrefixEstimates(vocab, profiles[pi].profile,
                                              shrunk.actions);
            }
            if (v.has_value() && v->oracle == want) {
              trace.actions = shrunk.actions;
              trace.detail = v->detail;
              trace.sql = RenderSql(*minimized, db.catalog());
            }
          }
        }
      }

      ++dataset_failures;
      if (options.verbose) {
        LSG_LOG(Error) << "fuzz failure [" << trace.oracle << "] " << dataset
                       << " ep=" << ep << " " << trace.detail;
      }
      if (!options.corpus_dir.empty()) {
        LSG_RETURN_IF_ERROR(
            SaveTrace(trace, ArtifactPath(options.corpus_dir, trace)));
      }
      stats.failures.push_back(std::move(trace));
    }
  }
  return stats;
}

StatusOr<EpisodeTrace> ReplayTraceEpisode(const EpisodeTrace& trace,
                                          const OracleOptions& oracle_opts) {
  const std::vector<FuzzProfile>& profiles = FuzzProfiles();
  if (trace.profile < 0 ||
      trace.profile >= static_cast<int>(profiles.size())) {
    return Status::InvalidArgument(
        StrFormat("trace profile %d out of range", trace.profile));
  }
  LSG_ASSIGN_OR_RETURN(
      std::unique_ptr<Fixture> fixture,
      BuildFixture(trace.dataset, trace.scale, trace.values_per_column));
  Database& db = fixture->db;
  const DatabaseContext& ctx = *fixture->context;
  const QueryProfile& profile = profiles[trace.profile].profile;
  const Vocabulary* vocab = &ctx.vocab();

  GenerationFsm fsm(&db, vocab, profile);
  LSG_ASSIGN_OR_RETURN(QueryAst ast,
                       ReplayActions(&fsm, trace.actions, nullptr));

  DifferentialOracle oracle(&db, oracle_opts);
  EpisodeTrace result = trace;
  result.sql = RenderSql(ast, db.catalog());
  auto violation = oracle.Check(ast);
  if (!violation.has_value()) {
    violation = oracle.CheckPrefixEstimates(vocab, profile, trace.actions);
  }
  if (!violation.has_value()) {
    // Serve-decode failures replay from the trace's seed (the oracle
    // decodes its own requests, not the recorded actions).
    violation = oracle.CheckServeDecode(fixture->context, profile, trace.seed);
  }
  if (violation.has_value()) {
    result.oracle = violation->oracle;
    result.detail = violation->detail;
  } else {
    result.oracle.clear();
    result.detail.clear();
  }
  return result;
}

}  // namespace lsg
