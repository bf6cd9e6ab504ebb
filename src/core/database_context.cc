#include "core/database_context.h"

#include <utility>

namespace lsg {

DatabaseContext::DatabaseContext(const Database* db,
                                 const VocabularyOptions& vocab_options,
                                 Vocabulary vocab)
    : db_(db),
      vocab_options_(vocab_options),
      stats_(DatabaseStats::Collect(*db)),
      vocab_(std::move(vocab)),
      estimator_(db, &stats_),
      cost_model_(&estimator_) {}

StatusOr<std::shared_ptr<const DatabaseContext>> DatabaseContext::Create(
    const Database* db, const VocabularyOptions& vocab_options) {
  if (db == nullptr || db->num_tables() == 0) {
    return Status::InvalidArgument("a database context needs a non-empty "
                                   "database");
  }
  LSG_ASSIGN_OR_RETURN(Vocabulary vocab, Vocabulary::Build(*db, vocab_options));
  return std::shared_ptr<const DatabaseContext>(
      new DatabaseContext(db, vocab_options, std::move(vocab)));
}

}  // namespace lsg
