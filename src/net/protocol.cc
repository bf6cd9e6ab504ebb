#include "net/protocol.h"

#include <cmath>

#include "common/string_util.h"
#include "obs/json.h"

namespace lsg {
namespace net {

const char* NetErrorCode(NetError e) {
  switch (e) {
    case NetError::kNone: return "ok";
    case NetError::kBadFrame: return "bad_frame";
    case NetError::kFrameTooLarge: return "frame_too_large";
    case NetError::kBadRequest: return "bad_request";
    case NetError::kOverQuota: return "over_quota";
    case NetError::kOverInflight: return "over_inflight";
    case NetError::kQueueFull: return "queue_full";
    case NetError::kDraining: return "draining";
    case NetError::kTimeout: return "timeout";
    case NetError::kInternal: return "internal";
  }
  return "internal";
}

namespace {

constexpr int kMaxCount = 1000;
constexpr size_t kMaxTenantBytes = 64;
constexpr double kMaxId = 9007199254740992.0;  // 2^53

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

Status BadRequest(NetError* kind, std::string msg) {
  *kind = NetError::kBadRequest;
  return Status::InvalidArgument(std::move(msg));
}

// Training time this request itself spent: a hit or a warm start reuses a
// model whose train_seconds were paid by an earlier request.
double RequestTrainSeconds(const GenerationResponse& response) {
  return response.cache_hit || response.warm_start ? 0.0
                                                   : response.train_seconds;
}

}  // namespace

StatusOr<NetRequest> ParseRequestFrame(std::string_view frame,
                                       NetError* error_kind) {
  *error_kind = NetError::kBadFrame;
  auto doc = obs::JsonParse(frame);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  NetRequest out;
  if (const obs::JsonValue* t = doc->Find("tenant")) {
    if (!t->is_string() || t->str.empty()) {
      return BadRequest(error_kind, "\"tenant\" must be a non-empty string");
    }
    if (t->str.size() > kMaxTenantBytes) {
      return BadRequest(error_kind, "\"tenant\" name too long");
    }
    out.tenant = t->str;
  }
  if (const obs::JsonValue* id = doc->Find("id")) {
    // Ids come straight off the socket: cast only integers a double holds
    // exactly (the cast is undefined for negative, non-finite or > 2^64).
    if (!id->is_number() || !(id->num >= 0) || id->num > kMaxId ||
        id->num != std::floor(id->num)) {
      return BadRequest(error_kind,
                        "\"id\" must be an integer in [0, 2^53]");
    }
    out.request.id = static_cast<uint64_t>(id->num);
  }

  std::string op = doc->StringOr("op", "generate");
  if (op == "ping") {
    out.ping = true;
    return out;
  }
  if (op != "generate") {
    return BadRequest(error_kind, StrFormat("unknown op \"%s\"", op.c_str()));
  }

  double count = doc->NumberOr("count", 1);
  if (!(count >= 1) || count > kMaxCount || count != std::floor(count)) {
    return BadRequest(error_kind,
                      StrFormat("\"count\" must be an integer in [1, %d]",
                                kMaxCount));
  }
  out.request.n = static_cast<int>(count);
  if (const obs::JsonValue* b = doc->Find("batch")) {
    if (b->kind != obs::JsonValue::Kind::kBool) {
      return BadRequest(error_kind, "\"batch\" must be a boolean");
    }
    out.request.batch = b->b;
  }

  const obs::JsonValue* c = doc->Find("constraint");
  if (c == nullptr || !c->is_object()) {
    return BadRequest(error_kind, "missing \"constraint\" object");
  }
  std::string metric_name = c->StringOr("metric", "");
  ConstraintMetric metric;
  if (metric_name == "card") {
    metric = ConstraintMetric::kCardinality;
  } else if (metric_name == "cost") {
    metric = ConstraintMetric::kCost;
  } else {
    return BadRequest(error_kind,
                      "constraint \"metric\" must be \"card\" or \"cost\"");
  }
  std::string kind = c->StringOr("kind", "");
  if (kind == "point") {
    double value = c->NumberOr("value", -1.0);
    if (!FiniteNonNegative(value)) {
      return BadRequest(error_kind,
                        "point constraint needs a non-negative \"value\"");
    }
    out.request.constraint = Constraint::Point(metric, value);
    if (const obs::JsonValue* tol = c->Find("tolerance")) {
      if (!tol->is_number() || !FiniteNonNegative(tol->num)) {
        return BadRequest(error_kind,
                          "point \"tolerance\" must be a finite "
                          "non-negative number");
      }
      out.request.constraint.point_tolerance = tol->num;
    }
  } else if (kind == "range") {
    double lo = c->NumberOr("lo", -1.0);
    double hi = c->NumberOr("hi", -1.0);
    if (!FiniteNonNegative(lo) || !FiniteNonNegative(hi) || lo > hi) {
      return BadRequest(error_kind,
                        "range constraint needs 0 <= \"lo\" <= \"hi\"");
    }
    out.request.constraint = Constraint::Range(metric, lo, hi);
  } else {
    return BadRequest(error_kind,
                      "constraint \"kind\" must be \"point\" or \"range\"");
  }
  *error_kind = NetError::kNone;
  return out;
}

std::string EncodeResponse(const GenerationResponse& response,
                           std::string_view tenant, bool include_sql) {
  std::string out = StrFormat(
      "{\"id\": %llu, \"ok\": true, \"tenant\": \"",
      static_cast<unsigned long long>(response.id));
  JsonEscapeTo(tenant, &out);
  out += StrFormat(
      "\", \"satisfied\": %d, \"attempts\": %d, "
      "\"cache_hit\": %s, \"worker\": %d, \"seconds\": %s",
      response.report.satisfied, response.report.attempts,
      response.cache_hit ? "true" : "false", response.worker,
      FormatDouble(response.queue_seconds + RequestTrainSeconds(response) +
                   response.generate_seconds)
          .c_str());
  if (include_sql) {
    out += ", \"queries\": [";
    for (size_t i = 0; i < response.report.queries.size(); ++i) {
      const GeneratedQuery& q = response.report.queries[i];
      if (i > 0) out += ", ";
      out += StrFormat("{\"metric\": %s, \"sql\": \"",
                       FormatDouble(q.metric).c_str());
      JsonEscapeTo(q.sql, &out);
      out += "\"}";
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

std::string EncodeError(uint64_t id, NetError error,
                        std::string_view message) {
  std::string out =
      StrFormat("{\"id\": %llu, \"ok\": false, \"error\": \"%s\", "
                "\"message\": \"",
                static_cast<unsigned long long>(id), NetErrorCode(error));
  JsonEscapeTo(message, &out);
  out += "\"}\n";
  return out;
}

std::string EncodePong(uint64_t id) {
  return StrFormat("{\"id\": %llu, \"ok\": true, \"pong\": true}\n",
                   static_cast<unsigned long long>(id));
}

}  // namespace net
}  // namespace lsg
