#ifndef LEARNEDSQLGEN_TESTS_TEST_DB_H_
#define LEARNEDSQLGEN_TESTS_TEST_DB_H_

// BuildScoreStudentDb() moved into the fuzzing library so the fuzzer,
// benches, and tests all share one set of builders; this shim keeps the
// historical include path working for the test suite.
#include "fuzz/test_databases.h"

#include <memory>
#include <vector>

#include "common/logging.h"
#include "core/generator.h"

namespace lsg {

/// One DatabaseContext per vocabulary over one database, built on first
/// request and then shared by every pipeline and service a test binary
/// builds over that database, whatever its profile: the statistics and
/// vocabulary are paid once per binary instead of once per test.
/// Single-threaded: call it from test bodies, not from worker threads.
class SharedContexts {
 public:
  explicit SharedContexts(const Database* db) : db_(db) {}

  std::shared_ptr<const DatabaseContext> For(
      const LearnedSqlGenOptions& options) {
    for (const auto& c : contexts_) {
      if (c->vocab_options() == options.vocab) return c;
    }
    auto c = LearnedSqlGen::CreateContext(db_, options);
    LSG_CHECK(c.ok()) << c.status().ToString();
    contexts_.push_back(*c);
    return *c;
  }

 private:
  const Database* db_;
  std::vector<std::shared_ptr<const DatabaseContext>> contexts_;
};

/// The binary-wide score/student database.
inline const Database& SharedScoreDb() {
  static const Database* db = new Database(BuildScoreStudentDb());
  return *db;
}

/// The shared context for `options` over SharedScoreDb().
inline std::shared_ptr<const DatabaseContext> ScoreContext(
    const LearnedSqlGenOptions& options) {
  static SharedContexts* contexts = new SharedContexts(&SharedScoreDb());
  return contexts->For(options);
}

}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_TEST_DB_H_
