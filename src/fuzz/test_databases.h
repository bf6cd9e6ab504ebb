#ifndef LEARNEDSQLGEN_FUZZ_TEST_DATABASES_H_
#define LEARNEDSQLGEN_FUZZ_TEST_DATABASES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace lsg {

/// The paper's running example (Figure 1): Score(T1) and Student(T2) with a
/// PK-FK edge Score.ID -> Student.ID. Deterministic contents so tests can
/// assert exact cardinalities.
Database BuildScoreStudentDb();

/// Canonical names of every bundled database: "score", "tpch", "job",
/// "xuetang", "edge". The fuzzer iterates this list when asked for all
/// datasets. "edge" holds the execution edge cases the others never reach:
/// NULLs in nullable FK columns, and -0.0 next to +0.0 in DOUBLE columns.
const std::vector<std::string>& FuzzDatasetNames();

/// Builds a bundled database by name (benchmark aliases "TPC-H", "JOB" and
/// "XueTang" are accepted too). `scale` multiplies the synthetic benchmark
/// row counts; the fixed score/student and edge databases ignore it. Returns
/// InvalidArgument for unknown names.
StatusOr<Database> BuildNamedDatabase(const std::string& name,
                                      double scale = 1.0);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_TEST_DATABASES_H_
