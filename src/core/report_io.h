#ifndef LEARNEDSQLGEN_CORE_REPORT_IO_H_
#define LEARNEDSQLGEN_CORE_REPORT_IO_H_

#include <string>

#include "common/status.h"
#include "core/generator.h"

namespace lsg {

/// Writes a generation report as CSV:
///   sql,metric,satisfied,type,tables,nested,aggregate,predicates,tokens
/// SQL is double-quoted with internal quotes doubled (RFC 4180).
Status WriteReportCsv(const GenerationReport& report, const std::string& path);

/// Writes a generation report as a JSON document:
///   {"accuracy": ..., "attempts": ..., "queries": [{"sql": ..., ...}]}
Status WriteReportJson(const GenerationReport& report,
                       const std::string& path);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_REPORT_IO_H_
