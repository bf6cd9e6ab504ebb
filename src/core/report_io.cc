#include "core/report_io.h"

#include <cstdio>
#include <memory>

#include "common/string_util.h"
#include "obs/json.h"

namespace lsg {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string CsvQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

Status WriteReportCsv(const GenerationReport& report,
                      const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fprintf(f.get(),
               "sql,metric,satisfied,type,tables,nested,aggregate,"
               "predicates,tokens\n");
  for (const GeneratedQuery& q : report.queries) {
    std::fprintf(f.get(), "%s,%.4f,%d,%s,%d,%d,%d,%d,%d\n",
                 CsvQuote(q.sql).c_str(), q.metric, q.satisfied ? 1 : 0,
                 QueryTypeName(q.features.type), q.features.num_tables,
                 q.features.nested ? 1 : 0, q.features.has_aggregate ? 1 : 0,
                 q.features.num_predicates, q.features.num_tokens);
  }
  return Status::Ok();
}

Status WriteReportJson(const GenerationReport& report,
                       const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fprintf(f.get(),
               "{\n  \"attempts\": %d,\n  \"satisfied\": %d,\n"
               "  \"accuracy\": %.6f,\n  \"train_seconds\": %.3f,\n"
               "  \"generate_seconds\": %.3f,\n  \"queries\": [\n",
               report.attempts, report.satisfied, report.accuracy,
               report.train_seconds, report.generate_seconds);
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const GeneratedQuery& q = report.queries[i];
    std::fprintf(
        f.get(),
        "    {\"sql\": \"%s\", \"metric\": %.4f, \"satisfied\": %s, "
        "\"type\": \"%s\", \"tables\": %d, \"nested\": %s, "
        "\"aggregate\": %s, \"predicates\": %d, \"tokens\": %d}%s\n",
        obs::JsonEscape(q.sql).c_str(), q.metric,
        q.satisfied ? "true" : "false",
        QueryTypeName(q.features.type), q.features.num_tables,
        q.features.nested ? "true" : "false",
        q.features.has_aggregate ? "true" : "false",
        q.features.num_predicates, q.features.num_tokens,
        i + 1 < report.queries.size() ? "," : "");
  }
  std::fprintf(f.get(), "  ]\n}\n");
  return Status::Ok();
}

}  // namespace lsg
