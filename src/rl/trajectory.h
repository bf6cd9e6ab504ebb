#ifndef LEARNEDSQLGEN_RL_TRAJECTORY_H_
#define LEARNEDSQLGEN_RL_TRAJECTORY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "fsm/action_mask.h"
#include "sql/ast.h"

namespace lsg {

/// Hard cap on episode length shared by every decode loop (RolloutPolicy,
/// DecodeItem, the random baseline); the FSM terminates episodes well
/// before it.
inline constexpr int kMaxEpisodeSteps = 512;

/// Result of applying one action in the environment.
struct EnvStepResult {
  double reward = 0.0;
  bool done = false;          ///< EOF consumed, query complete
  bool executable = false;    ///< prefix was executable after this step
  double metric = 0.0;        ///< estimated card/cost of the (partial) query
  bool satisfied = false;     ///< metric satisfies the constraint
};

/// The agent's view of the generation environment (FSM masking + database
/// feedback). Implemented by core::SqlGenEnvironment; the trainers in this
/// module are generic over it so they can be unit-tested against toy
/// environments.
class Environment {
 public:
  virtual ~Environment() = default;

  /// Starts a new episode (empty query).
  virtual void Reset() = 0;

  /// FSM action mask for the current state; bytes.size() == vocab_size().
  virtual const ActionMask& ValidActions() = 0;

  /// Applies an action (must be valid).
  virtual StatusOr<EnvStepResult> Step(int action) = 0;

  /// Takes ownership of the completed query's AST (call once after done).
  virtual QueryAst TakeAst() = 0;

  virtual int vocab_size() const = 0;
};

/// One completed episode.
struct Trajectory {
  std::vector<int> actions;
  std::vector<double> rewards;
  bool completed = false;
  bool satisfied = false;      ///< final query satisfies the constraint
  double final_metric = 0.0;   ///< ĉ of the finished query
  QueryAst ast;

  double TotalReward() const {
    double s = 0.0;
    for (double r : rewards) s += r;
    return s;
  }

  /// Reward-to-go Σ_{u≥t} r_u for each step (REINFORCE's R(τ_{t:T})).
  std::vector<double> RewardToGo() const {
    std::vector<double> out(rewards.size());
    double acc = 0.0;
    for (size_t i = rewards.size(); i-- > 0;) {
      acc += rewards[i];
      out[i] = acc;
    }
    return out;
  }
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_TRAJECTORY_H_
