#include "fuzz/trace.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "rl/trajectory.h"

namespace lsg {

namespace {

/// Newlines inside free-text fields would corrupt the line-oriented corpus
/// format; flatten them (the fields are informational only).
std::string OneLine(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

std::string TraceToString(const EpisodeTrace& trace) {
  std::ostringstream out;
  out << "lsgfuzz-trace v1\n";
  out << "dataset " << trace.dataset << "\n";
  out << "profile " << trace.profile << "\n";
  out << "scale " << trace.scale << "\n";
  out << "values " << trace.values_per_column << "\n";
  out << "seed " << trace.seed << "\n";
  out << "episode " << trace.episode << "\n";
  if (!trace.oracle.empty()) out << "oracle " << OneLine(trace.oracle) << "\n";
  if (!trace.detail.empty()) out << "detail " << OneLine(trace.detail) << "\n";
  if (!trace.sql.empty()) out << "sql " << OneLine(trace.sql) << "\n";
  out << "actions";
  for (int a : trace.actions) out << ' ' << a;
  out << "\nend\n";
  return out.str();
}

StatusOr<EpisodeTrace> ParseTrace(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "lsgfuzz-trace v1") {
    return Status::InvalidArgument("not an lsgfuzz-trace v1 file");
  }
  EpisodeTrace trace;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    size_t sp = line.find(' ');
    std::string key = line.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (key == "dataset") {
      trace.dataset = rest;
    } else if (key == "profile") {
      trace.profile = std::atoi(rest.c_str());
    } else if (key == "scale") {
      trace.scale = std::atof(rest.c_str());
    } else if (key == "values") {
      trace.values_per_column = std::atoi(rest.c_str());
    } else if (key == "seed") {
      trace.seed = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "episode") {
      trace.episode = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "oracle") {
      trace.oracle = rest;
    } else if (key == "detail") {
      trace.detail = rest;
    } else if (key == "sql") {
      trace.sql = rest;
    } else if (key == "actions") {
      std::istringstream as(rest);
      int a;
      while (as >> a) trace.actions.push_back(a);
    } else {
      // Unknown keys are skipped so the format can grow.
    }
  }
  if (!saw_end) return Status::InvalidArgument("truncated trace (no 'end')");
  if (trace.dataset.empty()) {
    return Status::InvalidArgument("trace is missing its dataset");
  }
  return trace;
}

Status SaveTrace(const EpisodeTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot write trace file " + path);
  out << TraceToString(trace);
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

StatusOr<EpisodeTrace> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read trace file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseTrace(ss.str());
}

StatusOr<QueryAst> ReplayActions(GenerationFsm* fsm,
                                 const std::vector<int>& actions,
                                 bool* exact) {
  fsm->Reset();
  bool repaired = false;
  int steps = 0;
  for (int a : actions) {
    if (fsm->done()) {
      repaired = true;  // trailing actions past EOF are dropped
      break;
    }
    const std::vector<uint8_t>& mask = fsm->ValidActions().bytes;
    if (a < 0 || static_cast<size_t>(a) >= mask.size() || !mask[a]) {
      repaired = true;  // FSM-legality repair: skip the illegal action
      continue;
    }
    LSG_RETURN_IF_ERROR(fsm->Step(a));
    if (++steps > kMaxEpisodeSteps) {
      return Status::Internal("replay exceeded the step cap");
    }
  }
  // Deterministic completion: always take the lowest valid action id. The
  // FSM's token-budget masking guarantees this terminates.
  while (!fsm->done()) {
    repaired = true;
    const std::vector<uint8_t>& mask = fsm->ValidActions().bytes;
    int chosen = -1;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    if (chosen < 0) {
      return Status::Internal("FSM produced an empty action mask");
    }
    LSG_RETURN_IF_ERROR(fsm->Step(chosen));
    if (++steps > kMaxEpisodeSteps) {
      return Status::Internal("replay completion exceeded the step cap");
    }
  }
  if (exact != nullptr) *exact = !repaired;
  return fsm->TakeAst();
}

}  // namespace lsg
