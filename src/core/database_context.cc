#include "core/database_context.h"

#include <utility>

#include "common/logging.h"

namespace lsg {

DatabaseContext::DatabaseContext(const Database* db,
                                 const VocabularyOptions& vocab_options,
                                 const QueryProfile& profile, Vocabulary vocab,
                                 std::string compiled_fsm_cache_dir,
                                 const CompileFsmOptions& compile_options)
    : db_(db),
      vocab_options_(vocab_options),
      profile_(profile),
      stats_(DatabaseStats::Collect(*db)),
      vocab_(std::move(vocab)),
      estimator_(db, &stats_),
      cost_model_(&estimator_),
      compiled_fsm_cache_dir_(std::move(compiled_fsm_cache_dir)),
      compile_options_(compile_options) {}

StatusOr<std::shared_ptr<const DatabaseContext>> DatabaseContext::Create(
    const Database* db, const VocabularyOptions& vocab_options,
    const QueryProfile& profile, std::string compiled_fsm_cache_dir,
    const CompileFsmOptions& compile_options) {
  if (db == nullptr || db->num_tables() == 0) {
    return Status::InvalidArgument("a database context needs a non-empty "
                                   "database");
  }
  LSG_ASSIGN_OR_RETURN(Vocabulary vocab, Vocabulary::Build(*db, vocab_options));
  return std::shared_ptr<const DatabaseContext>(new DatabaseContext(
      db, vocab_options, profile, std::move(vocab),
      std::move(compiled_fsm_cache_dir), compile_options));
}

const CompiledFsmTable* DatabaseContext::compiled_fsm() const {
  // The compile runs under the context's own mutex: only callers wanting
  // this very table wait on it, which is the deduplication we want.
  MutexLock lock(&fsm_mu_);
  if (compile_attempts_ > 0) return compiled_fsm_.get();
  ++compile_attempts_;
  StatusOr<CompiledFsmTable> result =
      compiled_fsm_cache_dir_.empty()
          ? CompileFsm(*db_, vocab_, profile_, compile_options_)
          : BuildOrLoadCompiledFsm(*db_, vocab_, profile_, compile_options_,
                                   compiled_fsm_cache_dir_);
  if (result.ok()) {
    compiled_fsm_ = std::make_unique<const CompiledFsmTable>(
        std::move(result).value());
  } else {
    LSG_LOG(Info) << "compiled FSM unavailable (interpreted fallback): "
                  << result.status().ToString();
  }
  return compiled_fsm_.get();
}

int DatabaseContext::compile_attempts() const {
  MutexLock lock(&fsm_mu_);
  return compile_attempts_;
}

}  // namespace lsg
