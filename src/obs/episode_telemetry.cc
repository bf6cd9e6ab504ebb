#include "obs/episode_telemetry.h"

#include <cstdio>

#include "common/string_util.h"
#include "obs/json.h"

namespace lsg {
namespace obs {

namespace {
constexpr char kCsvHeader[] =
    "constraint,tag,reward,final_metric,satisfied,tokens,estimator_calls,"
    "mean_mask_width,wall_seconds\n";

std::string CsvEscape(const std::string& s) {
  // Constraint strings contain spaces and brackets but never quotes or
  // commas today; quote defensively anyway.
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

EpisodeTelemetry::EpisodeTelemetry(std::string path)
    : EpisodeTelemetry(std::move(path), Options()) {}

EpisodeTelemetry::EpisodeTelemetry(std::string path, Options options)
    : path_(std::move(path)),
      options_(options),
      csv_(EndsWith(path_, ".csv")) {
  MutexLock lock(&mu_);
  OpenFreshLocked();
}

EpisodeTelemetry::~EpisodeTelemetry() {
  // dtor-lock: closes the file under the same leaf mutex Record uses; the
  // sink contract (obs::SetEpisodeSink) requires recorders to be quiesced
  // before destruction, so this never contends with a live writer.
  MutexLock lock(&mu_);
  if (file_ != nullptr) std::fclose(file_);
}

void EpisodeTelemetry::OpenFreshLocked() {
  file_ = std::fopen(path_.c_str(), "w");
  rows_in_file_ = 0;
  if (file_ != nullptr && csv_) std::fputs(kCsvHeader, file_);
}

void EpisodeTelemetry::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  // Shift path.(k) -> path.(k+1), oldest first; the slot that would become
  // path.<max_files> falls off the end.
  std::remove(StrFormat("%s.%d", path_.c_str(), options_.max_files - 1)
                  .c_str());
  for (int k = options_.max_files - 2; k >= 1; --k) {
    std::rename(StrFormat("%s.%d", path_.c_str(), k).c_str(),
                StrFormat("%s.%d", path_.c_str(), k + 1).c_str());
  }
  if (options_.max_files > 1) {
    std::rename(path_.c_str(), StrFormat("%s.1", path_.c_str()).c_str());
  } else {
    std::remove(path_.c_str());
  }
  ++rotations_;
  OpenFreshLocked();
}

std::string EpisodeTelemetry::FormatRowLocked(const EpisodeRow& row) const {
  const std::string& tag = row.tag.empty() ? tag_ : row.tag;
  if (csv_) {
    return StrFormat("%s,%s,%.9g,%.9g,%d,%d,%d,%.4f,%.6f\n",
                     CsvEscape(row.constraint).c_str(),
                     CsvEscape(tag).c_str(), row.reward, row.final_metric,
                     row.satisfied ? 1 : 0, row.tokens, row.estimator_calls,
                     row.mean_mask_width, row.wall_seconds);
  }
  return StrFormat(
      "{\"constraint\": \"%s\", \"tag\": \"%s\", \"reward\": %.9g, "
      "\"final_metric\": %.9g, \"satisfied\": %d, \"tokens\": %d, "
      "\"estimator_calls\": %d, \"mean_mask_width\": %.4f, "
      "\"wall_seconds\": %.6f}\n",
      JsonEscape(row.constraint).c_str(), JsonEscape(tag).c_str(),
      row.reward, row.final_metric, row.satisfied ? 1 : 0, row.tokens,
      row.estimator_calls, row.mean_mask_width, row.wall_seconds);
}

void EpisodeTelemetry::Record(const EpisodeRow& row) {
  MutexLock lock(&mu_);
  if (file_ == nullptr) return;
  std::fputs(FormatRowLocked(row).c_str(), file_);
  ++rows_in_file_;
  ++rows_total_;
  if (rows_in_file_ >= options_.max_rows_per_file) RotateLocked();
}

void EpisodeTelemetry::SetTag(std::string tag) {
  MutexLock lock(&mu_);
  tag_ = std::move(tag);
}

void EpisodeTelemetry::Flush() {
  MutexLock lock(&mu_);
  if (file_ != nullptr) std::fflush(file_);
}

uint64_t EpisodeTelemetry::rows_written() const {
  MutexLock lock(&mu_);
  return rows_total_;
}

int EpisodeTelemetry::rotations() const {
  MutexLock lock(&mu_);
  return rotations_;
}

}  // namespace obs
}  // namespace lsg
