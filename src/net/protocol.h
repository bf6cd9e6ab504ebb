#ifndef LEARNEDSQLGEN_NET_PROTOCOL_H_
#define LEARNEDSQLGEN_NET_PROTOCOL_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/json.h"
#include "service/generation_service.h"

namespace lsg {
namespace net {

/// Structured protocol error codes: every request outcome other than a
/// generated result maps onto exactly one of these, and the wire response
/// carries the stable snake_case name from NetErrorCode(). Admission
/// control and backpressure are protocol errors, never silent drops.
enum class NetError {
  kNone = 0,       ///< success
  kBadFrame,       ///< line was not a valid JSON request object
  kFrameTooLarge,  ///< line exceeded the frame-size cap
  kBadRequest,     ///< well-formed JSON, semantically invalid request
  kOverQuota,      ///< tenant token bucket empty (rate limit)
  kOverInflight,   ///< tenant or global in-flight cap reached
  kQueueFull,      ///< service queue full (backpressure fail-fast)
  kDraining,       ///< server is draining (SIGTERM), not accepting work
  kTimeout,        ///< request exceeded the server-side deadline
  kInternal,       ///< unexpected server-side failure
};

/// Stable wire name, e.g. "over_quota".
const char* NetErrorCode(NetError e);

/// One parsed request line. Wire format: a single JSON object per
/// LF-terminated line:
///
///   {"tenant": "alice", "id": 7, "count": 5, "batch": false,
///    "constraint": {"metric": "card", "kind": "range",
///                   "lo": 100, "hi": 900}}
///
/// Point constraints use {"kind": "point", "value": 500}. "metric" is
/// "card"|"cost". "id" (default 0) must be an integer in [0, 2^53]. {"op": "ping"} short-circuits everything past framing:
/// the loop answers directly without touching admission or the service
/// (liveness probes and protocol-overhead benchmarking).
struct NetRequest {
  std::string tenant = "default";
  bool ping = false;
  GenerationRequest request;  ///< constraint, n, batch, id
};

/// Parses one frame into a NetRequest. On error the status message is the
/// human-readable detail for the response, and `*error_kind` is set to
/// kBadFrame (not a JSON object) or kBadRequest (semantically invalid).
StatusOr<NetRequest> ParseRequestFrame(std::string_view frame,
                                       NetError* error_kind);

/// Response encoders. Every response is one LF-terminated JSON object
/// with an "ok" bool and the echoed request "id"; errors carry
/// {"error": <code>, "message": ...}. A response's "seconds" is queue +
/// decode time, plus training time only when this request trained.
std::string EncodeResponse(const GenerationResponse& response,
                           std::string_view tenant, bool include_sql);
std::string EncodeError(uint64_t id, NetError error, std::string_view message);
std::string EncodePong(uint64_t id);

/// The encoders' JSON string escaping: obs::JsonEscapeTo.
using obs::JsonEscapeTo;

}  // namespace net
}  // namespace lsg

#endif  // LEARNEDSQLGEN_NET_PROTOCOL_H_
