#ifndef LEARNEDSQLGEN_CORE_DECODE_H_
#define LEARNEDSQLGEN_CORE_DECODE_H_

#include "core/generator.h"

namespace lsg {

/// The one serving decode, which LearnedSqlGen's Generate* and the service
/// both run: rolls out `snapshot`'s actor (RolloutPolicy, the loop training
/// samples through) one episode per attempt and judges each query against
/// `constraint`. The snapshot's model may have been trained for another
/// constraint of the same registry bucket; the policy never reads the
/// constraint, so only the judging follows the request.
///
/// `batch` → GenerateBatch semantics (exactly n attempts, every query
/// kept); otherwise GenerateSatisfied semantics (until n satisfied or the
/// n · attempts_factor budget runs out, satisfied queries kept). n <= 0
/// runs no attempt. Sampling draws from `rng`, which is left advanced past
/// every draw, a failed decode's too. Each call owns its environment,
/// episode and scratch, so any number of threads may decode over one
/// snapshot lock-free. A degenerate softmax row or an environment error
/// ends the decode with that status.
StatusOr<GenerationReport> Decode(const ServingSnapshot& snapshot,
                                  const Constraint& constraint, int n,
                                  bool batch, Rng* rng);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_DECODE_H_
