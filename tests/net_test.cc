// Tests for the network front end (src/net/): frame-FSM framing under
// split reads and oversized lines, token-bucket quota math on a manual
// clock, admission-controller caps, protocol parse/encode round-trips,
// and loopback end-to-end runs against both a scripted dispatcher
// (queue-full, inflight caps, timeouts, graceful drain under load) and
// the real generation service, over the epoll poller.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/admission.h"
#include "net/frame_fsm.h"
#include "net/net_client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/token_bucket.h"
#include "service/generation_service.h"
#include "tests/test_db.h"

namespace lsg {
namespace net {
namespace {

// ----------------------------------------------------------------- FrameFsm

struct CapturedFrame {
  FrameEvent event;
  std::string payload;
};

std::vector<CapturedFrame> FeedAll(FrameFsm* fsm, std::string_view data,
                                   size_t chunk = 0) {
  std::vector<CapturedFrame> out;
  auto cb = [&out](FrameEvent e, std::string_view p) {
    out.push_back({e, std::string(p)});
  };
  if (chunk == 0) {
    fsm->Feed(data, cb);
    return out;
  }
  for (size_t off = 0; off < data.size(); off += chunk) {
    fsm->Feed(data.substr(off, chunk), cb);
  }
  return out;
}

TEST(FrameFsmTest, EmitsOneFramePerLine) {
  FrameFsm fsm;
  auto frames = FeedAll(&fsm, "alpha\nbeta\n");
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "alpha");
  EXPECT_EQ(frames[1].payload, "beta");
  EXPECT_EQ(fsm.state(), FrameFsm::kIdle);
}

TEST(FrameFsmTest, SplitReadsDownToOneByteProduceIdenticalFrames) {
  const std::string wire = "{\"op\": \"ping\"}\r\nsecond line\nthird\n";
  for (size_t chunk : std::vector<size_t>{1, 2, 3, 7, wire.size()}) {
    FrameFsm fsm;
    auto frames = FeedAll(&fsm, wire, chunk);
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].payload, "{\"op\": \"ping\"}");
    EXPECT_EQ(frames[1].payload, "second line");
    EXPECT_EQ(frames[2].payload, "third");
  }
}

TEST(FrameFsmTest, StripsCrOnlyDirectlyBeforeLf) {
  FrameFsm fsm;
  // A CR in the middle of a line is payload; a CR before LF is framing.
  auto frames = FeedAll(&fsm, "a\rb\r\n", 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "a\rb");
}

TEST(FrameFsmTest, DropsEmptyLines) {
  FrameFsm fsm;
  auto frames = FeedAll(&fsm, "\n\r\n\nreal\n\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "real");
}

TEST(FrameFsmTest, OversizedLineEmitsOnceAndResynchronizes) {
  FrameFsm fsm(/*max_frame_bytes=*/8);
  std::string wire(100, 'x');
  wire += "\nok\n";
  auto frames = FeedAll(&fsm, wire, 3);  // split reads through the overflow
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].event, FrameEvent::kOversized);
  EXPECT_EQ(frames[1].event, FrameEvent::kFrame);
  EXPECT_EQ(frames[1].payload, "ok");
  EXPECT_EQ(fsm.state(), FrameFsm::kIdle);
}

TEST(FrameFsmTest, TransitionTableIsTotalAndLfAlwaysResolvesToIdle) {
  const auto& table = FrameFsm::Table();
  for (int s = 0; s < FrameFsm::kNumStates; ++s) {
    for (int c = 0; c < FrameFsm::kNumClasses; ++c) {
      const FrameFsm::Transition& t = table[s][c];
      EXPECT_LT(t.next, FrameFsm::kNumStates);
      EXPECT_LE(t.action, FrameFsm::kEmitOversized);
    }
    // LF is the universal resynchronization point: from every state it
    // returns the machine to kIdle (this is what makes the protocol
    // self-healing after garbage).
    EXPECT_EQ(table[s][FrameFsm::kLf].next, FrameFsm::kIdle);
  }
  // Discard only ends on LF — CR and bytes keep discarding.
  EXPECT_EQ(table[FrameFsm::kDiscard][FrameFsm::kByte].next,
            FrameFsm::kDiscard);
  EXPECT_EQ(table[FrameFsm::kDiscard][FrameFsm::kCr].next, FrameFsm::kDiscard);
}

// -------------------------------------------------------------- TokenBucket

constexpr uint64_t kSecond = 1000000000ull;

TEST(TokenBucketTest, BurstThenSteadyRefill) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/5.0, /*now_ns=*/0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(0)) << i;
  }
  EXPECT_FALSE(bucket.TryAcquire(0));  // burst spent
  // 100ms at 10/s refills exactly one token.
  EXPECT_TRUE(bucket.TryAcquire(kSecond / 10));
  EXPECT_FALSE(bucket.TryAcquire(kSecond / 10));
  // 50ms refills half a token: still not enough for cost 1.
  EXPECT_FALSE(bucket.TryAcquire(kSecond / 10 + kSecond / 20));
  EXPECT_TRUE(bucket.TryAcquire(kSecond / 10 + 2 * kSecond / 20));
}

TEST(TokenBucketTest, RefillNeverExceedsBurst) {
  TokenBucket bucket(1.0, 3.0, 0);
  EXPECT_DOUBLE_EQ(bucket.Peek(100 * kSecond), 3.0);  // long idle: capped
  EXPECT_TRUE(bucket.TryAcquire(100 * kSecond, 3.0));
  EXPECT_FALSE(bucket.TryAcquire(100 * kSecond));
}

TEST(TokenBucketTest, NonPositiveRateDisablesLimiting) {
  TokenBucket bucket(0.0, 1.0, 0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(bucket.TryAcquire(0));
}

TEST(TokenBucketTest, FractionalCostsAccumulate) {
  TokenBucket bucket(1.0, 1.0, 0);
  EXPECT_TRUE(bucket.TryAcquire(0, 0.5));
  EXPECT_TRUE(bucket.TryAcquire(0, 0.5));
  EXPECT_FALSE(bucket.TryAcquire(0, 0.5));
}

// -------------------------------------------------------------- Admission

TEST(AdmissionTest, EnforcesPerTenantInflightCap) {
  AdmissionOptions opts;
  opts.tenant_rate = 0;  // unlimited quota: isolate the inflight cap
  opts.tenant_max_inflight = 2;
  opts.max_inflight = 100;
  AdmissionController adm(opts);
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  EXPECT_EQ(adm.Admit("a", 0), NetError::kOverInflight);
  EXPECT_EQ(adm.Admit("b", 0), NetError::kNone);  // other tenants unaffected
  adm.Release("a");
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  EXPECT_EQ(adm.inflight(), 3);
  EXPECT_EQ(adm.tenant_inflight("a"), 2);
}

TEST(AdmissionTest, EnforcesGlobalInflightCap) {
  AdmissionOptions opts;
  opts.tenant_rate = 0;
  opts.tenant_max_inflight = 100;
  opts.max_inflight = 2;
  AdmissionController adm(opts);
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  EXPECT_EQ(adm.Admit("b", 0), NetError::kNone);
  EXPECT_EQ(adm.Admit("c", 0), NetError::kOverInflight);
  adm.Release("b");
  EXPECT_EQ(adm.Admit("c", 0), NetError::kNone);
}

TEST(AdmissionTest, QuotaExhaustionAndTimedRecovery) {
  AdmissionOptions opts;
  opts.tenant_rate = 1.0;
  opts.tenant_burst = 2.0;
  AdmissionController adm(opts);
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  adm.Release("a");
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  adm.Release("a");
  EXPECT_EQ(adm.Admit("a", 0), NetError::kOverQuota);  // bucket empty
  // One second at 1/s buys exactly one more admission.
  EXPECT_EQ(adm.Admit("a", kSecond), NetError::kNone);
  adm.Release("a");
  EXPECT_EQ(adm.Admit("a", kSecond), NetError::kOverQuota);
}

TEST(AdmissionTest, EvictsIdleTenantStateAtCap) {
  AdmissionOptions opts;
  opts.tenant_rate = 0;
  opts.max_tenants = 2;
  AdmissionController adm(opts);
  EXPECT_EQ(adm.Admit("a", 0), NetError::kNone);
  adm.Release("a");
  EXPECT_EQ(adm.Admit("b", 0), NetError::kNone);  // b stays in flight
  EXPECT_EQ(adm.Admit("c", 0), NetError::kNone);  // evicts idle a, not b
  EXPECT_LE(adm.tracked_tenants(), 2u);
  EXPECT_EQ(adm.tenant_inflight("b"), 1);
}

// --------------------------------------------------------------- Protocol

TEST(ProtocolTest, ParsesRangeRequest) {
  NetError kind = NetError::kNone;
  auto req = ParseRequestFrame(
      R"({"tenant": "alice", "id": 7, "count": 5, "batch": true,
          "constraint": {"metric": "card", "kind": "range",
                         "lo": 100, "hi": 900}})",
      &kind);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->tenant, "alice");
  EXPECT_FALSE(req->ping);
  EXPECT_EQ(req->request.id, 7u);
  EXPECT_EQ(req->request.n, 5);
  EXPECT_TRUE(req->request.batch);
  EXPECT_EQ(req->request.constraint.metric, ConstraintMetric::kCardinality);
  EXPECT_DOUBLE_EQ(req->request.constraint.lo, 100);
  EXPECT_DOUBLE_EQ(req->request.constraint.hi, 900);
}

TEST(ProtocolTest, ParsesPointAndPingDefaults) {
  NetError kind = NetError::kNone;
  auto point = ParseRequestFrame(
      R"({"constraint": {"metric": "cost", "kind": "point", "value": 50}})",
      &kind);
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->tenant, "default");
  EXPECT_EQ(point->request.n, 1);
  EXPECT_EQ(point->request.constraint.metric, ConstraintMetric::kCost);

  auto ping = ParseRequestFrame(R"({"op": "ping", "id": 3})", &kind);
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->ping);
  EXPECT_EQ(ping->request.id, 3u);
}

TEST(ProtocolTest, DistinguishesBadFrameFromBadRequest) {
  NetError kind = NetError::kNone;
  EXPECT_FALSE(ParseRequestFrame("{\"count\": ", &kind).ok());
  EXPECT_EQ(kind, NetError::kBadFrame);  // not even JSON
  EXPECT_FALSE(ParseRequestFrame("[1, 2]", &kind).ok());
  EXPECT_EQ(kind, NetError::kBadFrame);  // JSON, wrong shape

  // Well-formed JSON, semantically invalid: kBadRequest.
  EXPECT_FALSE(ParseRequestFrame(R"({"count": 1})", &kind).ok());
  EXPECT_EQ(kind, NetError::kBadRequest);  // missing constraint
  EXPECT_FALSE(ParseRequestFrame(
                   R"({"count": 0, "constraint": {"metric": "card",
                       "kind": "point", "value": 1}})",
                   &kind)
                   .ok());
  EXPECT_EQ(kind, NetError::kBadRequest);  // count out of range
  EXPECT_FALSE(ParseRequestFrame(
                   R"({"tenant": "", "constraint": {"metric": "card",
                       "kind": "point", "value": 1}})",
                   &kind)
                   .ok());
  EXPECT_EQ(kind, NetError::kBadRequest);  // empty tenant
  EXPECT_FALSE(ParseRequestFrame(
                   R"({"constraint": {"metric": "card", "kind": "range",
                       "lo": 9, "hi": 1}})",
                   &kind)
                   .ok());
  EXPECT_EQ(kind, NetError::kBadRequest);  // inverted range
}

// A point "tolerance" that is present must be a finite non-negative
// number: an infinite one would count every query as satisfied, and a bad
// one must not silently become the default.
TEST(ProtocolTest, ValidatesPointTolerance) {
  auto frame = [](const std::string& tol) {
    return R"({"constraint": {"metric": "card", "kind": "point",
               "value": 10, "tolerance": )" +
           tol + "}}";
  };
  for (const char* tol : {"1e999", "-1", "\"x\""}) {
    NetError kind = NetError::kNone;
    auto req = ParseRequestFrame(frame(tol), &kind);
    EXPECT_FALSE(req.ok()) << "tolerance " << tol;
    EXPECT_EQ(kind, NetError::kBadRequest) << "tolerance " << tol;
  }
  for (double tol : {0.0, 0.5}) {
    NetError kind = NetError::kBadRequest;
    auto req = ParseRequestFrame(frame(tol == 0.0 ? "0" : "0.5"), &kind);
    ASSERT_TRUE(req.ok()) << req.status().ToString();
    EXPECT_EQ(kind, NetError::kNone);
    EXPECT_EQ(req->request.constraint.point_tolerance, tol);
  }
}

// Ids come off the socket; anything a uint64 cast cannot hold exactly is
// a structured bad request, never undefined behaviour.
TEST(ProtocolTest, RejectsOutOfRangeIds) {
  for (const char* id : {"-1", "1e300", "1.5", "\"7\"", "9007199254740994"}) {
    NetError kind = NetError::kNone;
    auto req = ParseRequestFrame(
        std::string(R"({"op": "ping", "id": )") + id + "}", &kind);
    EXPECT_FALSE(req.ok()) << "id " << id;
    EXPECT_EQ(kind, NetError::kBadRequest) << "id " << id;
  }
  NetError kind = NetError::kNone;
  auto max = ParseRequestFrame(R"({"op": "ping", "id": 9007199254740992})",
                               &kind);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->request.id, 9007199254740992ull);
}

// "seconds" counts training time only for the request that trained: a
// cache hit reports queue + decode, even though the serving model's
// train_seconds ride along in the response.
TEST(ProtocolTest, ResponseSecondsCountTrainingOnlyOnAMiss) {
  GenerationResponse r;
  r.queue_seconds = 0.25;
  r.train_seconds = 4.0;
  r.generate_seconds = 0.5;
  auto miss = obs::JsonParse(EncodeResponse(r, "t", false));
  ASSERT_TRUE(miss.ok());
  EXPECT_DOUBLE_EQ(miss->NumberOr("seconds", -1), 4.75);
  r.cache_hit = true;
  auto hit = obs::JsonParse(EncodeResponse(r, "t", false));
  ASSERT_TRUE(hit.ok());
  EXPECT_DOUBLE_EQ(hit->NumberOr("seconds", -1), 0.75);
}

TEST(ProtocolTest, ResponseEncodingRoundTripsThroughParser) {
  GenerationResponse r;
  r.id = 42;
  r.cache_hit = true;
  r.worker = 3;
  r.report.satisfied = 2;
  r.report.attempts = 5;
  GeneratedQuery q;
  q.metric = 123.5;
  q.sql = "SELECT \"x\"\nFROM t";  // quotes + newline must escape
  r.report.queries.push_back(std::move(q));

  auto doc = obs::JsonParse(EncodeResponse(r, "ten\"ant", true));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_DOUBLE_EQ(doc->NumberOr("id", -1), 42);
  EXPECT_DOUBLE_EQ(doc->NumberOr("ok", -1), 1.0);
  EXPECT_EQ(doc->StringOr("tenant", ""), "ten\"ant");
  const obs::JsonValue* queries = doc->Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->array.size(), 1u);
  EXPECT_EQ(queries->array[0].StringOr("sql", ""), "SELECT \"x\"\nFROM t");

  auto no_sql = obs::JsonParse(EncodeResponse(r, "t", false));
  ASSERT_TRUE(no_sql.ok());
  EXPECT_EQ(no_sql->Find("queries"), nullptr);

  auto err = obs::JsonParse(EncodeError(9, NetError::kQueueFull, "full"));
  ASSERT_TRUE(err.ok());
  EXPECT_DOUBLE_EQ(err->NumberOr("ok", -1), 0.0);
  EXPECT_EQ(err->StringOr("error", ""), "queue_full");

  auto pong = obs::JsonParse(EncodePong(4));
  ASSERT_TRUE(pong.ok());
  EXPECT_DOUBLE_EQ(pong->NumberOr("pong", -1), 1.0);
}

// ------------------------------------------------------- Loopback fixtures

// Wire-bound constraint payloads must be single-line: the framer treats
// every LF as a frame boundary, so a multi-line literal would be split
// into several (broken) frames.
constexpr char kPointConstraint[] =
    R"({"metric": "card", "kind": "point", "value": 5})";
constexpr char kRangeConstraint[] =
    R"({"metric": "card", "kind": "range", "lo": 1, "hi": 10})";
constexpr char kWideRangeConstraint[] =
    R"({"metric": "card", "kind": "range", "lo": 1, "hi": 1000000})";

// Scripted backend: holds every dispatched request's promise until the
// test releases it, or rejects with a scripted error. Dispatch runs on the
// loop thread, Fulfill* on the test thread, hence the mutex.
class ManualDispatcher : public RequestDispatcher {
 public:
  enum class Mode { kHold, kImmediate, kQueueFull };

  explicit ManualDispatcher(Mode mode) : mode_(mode) {}

  DispatchOutcome Dispatch(GenerationRequest request) override {
    MutexLock lock(&mu_);
    DispatchOutcome out;
    if (mode_ == Mode::kQueueFull) {
      out.error = NetError::kQueueFull;
      out.message = "scripted queue full";
      return out;
    }
    std::promise<GenerationResponse> promise;
    out.future = promise.get_future();
    GenerationResponse response;
    response.id = request.id;
    if (mode_ == Mode::kImmediate) {
      promise.set_value(std::move(response));
    } else {
      held_.push_back({std::move(promise), std::move(response)});
    }
    return out;
  }

  size_t held() {
    MutexLock lock(&mu_);
    return held_.size();
  }

  void FulfillAll() {
    std::vector<Held> batch;
    {
      MutexLock lock(&mu_);
      batch.swap(held_);
    }
    for (Held& h : batch) h.promise.set_value(std::move(h.response));
  }

 private:
  struct Held {
    std::promise<GenerationResponse> promise;
    GenerationResponse response;
  };
  Mutex mu_;
  Mode mode_;
  std::vector<Held> held_ LSG_GUARDED_BY(mu_);
};

NetServerOptions QuickOptions() {
  NetServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.admission.tenant_rate = 0;
  opts.drain_timeout_ms = 5000;
  return opts;
}

uint64_t NetCounter(NetServer* server, const char* name) {
  const auto& counters = server->registry().Snapshot().counters;
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// Received frames must be fully accounted for once the loop has exited:
// every one became a pong, an ok response, a structured error, or an
// explicit orphan. Call only after Join().
void ExpectExactAccounting(NetServer* server) {
  const auto& c = server->registry().Snapshot().counters;
  auto get = [&c](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? uint64_t{0} : it->second;
  };
  uint64_t errors = 0;
  for (const char* name :
       {"net.req.bad_frame", "net.req.bad_request", "net.req.over_quota",
        "net.req.over_inflight", "net.req.queue_full", "net.req.draining",
        "net.req.timeout", "net.req.internal"}) {
    errors += get(name);
  }
  EXPECT_EQ(get("net.req.received"), get("net.req.pings") +
                                         get("net.req.ok") + errors +
                                         get("net.req.orphaned"));
}

StatusOr<obs::JsonValue> Roundtrip(BlockingClient* client,
                                   std::string_view line) {
  return client->Call(line);
}

// ------------------------------------------------------ Loopback: basics

TEST(NetServerTest, PingAndErrorPathsOverLoopback) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kImmediate);
  NetServerOptions opts = QuickOptions();
  opts.max_frame_bytes = 256;
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Ping answers in-loop.
  auto pong = Roundtrip(&*client, R"({"op": "ping", "id": 1})");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_DOUBLE_EQ(pong->NumberOr("pong", -1), 1.0);

  // Malformed JSON gets a structured error, and the connection survives.
  auto bad = Roundtrip(&*client, "{\"op\": ");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->StringOr("error", ""), "bad_frame");

  // Oversized line gets frame_too_large and the framer resynchronizes.
  auto big = Roundtrip(&*client, std::string(500, 'x'));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->StringOr("error", ""), "frame_too_large");

  // A scripted-immediate generation request round-trips.
  auto ok = Roundtrip(&*client,
                      BuildRequestLine("t", 9, kRangeConstraint, 1, false));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_DOUBLE_EQ(ok->NumberOr("ok", -1), 1.0);
  EXPECT_DOUBLE_EQ(ok->NumberOr("id", -1), 9.0);

  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  ExpectExactAccounting(server->get());
  EXPECT_EQ(NetCounter(server->get(), "net.req.ok"), 1u);
}

// ------------------------------------------- Loopback: scripted dispatch

TEST(NetServerTest, QueueFullBecomesStructuredRetryableError) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kQueueFull);
  auto server = NetServer::Create(&dispatcher, QuickOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto doc = Roundtrip(&*client,
                       BuildRequestLine("t", 1, kPointConstraint, 1, false));
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->NumberOr("ok", -1), 0.0);
  EXPECT_EQ(doc->StringOr("error", ""), "queue_full");

  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  EXPECT_EQ(NetCounter(server->get(), "net.req.queue_full"), 1u);
  ExpectExactAccounting(server->get());
}

TEST(NetServerTest, PerTenantInflightCapRejectsConcurrentRequests) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kHold);
  NetServerOptions opts = QuickOptions();
  opts.admission.tenant_max_inflight = 1;
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const std::string constraint =
      R"({"metric": "card", "kind": "point", "value": 5})";
  ASSERT_TRUE(client->SendLine(BuildRequestLine("t", 1, constraint, 1,
                                                false))
                  .ok());
  ASSERT_TRUE(client->SendLine(BuildRequestLine("t", 2, constraint, 1,
                                                false))
                  .ok());

  // First response is the immediate rejection of request 2; request 1 is
  // parked in the dispatcher.
  auto rejected = client->ReadLine();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  auto rej_doc = obs::JsonParse(*rejected);
  ASSERT_TRUE(rej_doc.ok());
  EXPECT_EQ(rej_doc->StringOr("error", ""), "over_inflight");
  EXPECT_DOUBLE_EQ(rej_doc->NumberOr("id", -1), 2.0);

  dispatcher.FulfillAll();
  auto ok = client->ReadLine();
  ASSERT_TRUE(ok.ok());
  auto ok_doc = obs::JsonParse(*ok);
  ASSERT_TRUE(ok_doc.ok());
  EXPECT_DOUBLE_EQ(ok_doc->NumberOr("ok", -1), 1.0);
  EXPECT_DOUBLE_EQ(ok_doc->NumberOr("id", -1), 1.0);

  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  EXPECT_EQ(NetCounter(server->get(), "net.req.over_inflight"), 1u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.ok"), 1u);
  ExpectExactAccounting(server->get());
}

TEST(NetServerTest, QuotaExhaustionRejectsWithOverQuota) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kImmediate);
  NetServerOptions opts = QuickOptions();
  opts.admission.tenant_rate = 1e-6;  // effectively no refill in test time
  opts.admission.tenant_burst = 2;
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const std::string constraint =
      R"({"metric": "card", "kind": "point", "value": 5})";
  int ok = 0, over_quota = 0;
  for (uint64_t id = 1; id <= 4; ++id) {
    auto doc =
        Roundtrip(&*client, BuildRequestLine("q", id, constraint, 1, false));
    ASSERT_TRUE(doc.ok());
    if (doc->NumberOr("ok", -1) == 1.0) {
      ++ok;
    } else {
      EXPECT_EQ(doc->StringOr("error", ""), "over_quota");
      ++over_quota;
    }
  }
  EXPECT_EQ(ok, 2);          // burst of 2
  EXPECT_EQ(over_quota, 2);  // then the bucket is dry

  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  ExpectExactAccounting(server->get());
}

TEST(NetServerTest, RequestTimeoutAnswersAndLateCompletionIsDropped) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kHold);
  NetServerOptions opts = QuickOptions();
  opts.request_timeout_ms = 100;
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto doc = Roundtrip(&*client,
                       BuildRequestLine("t", 1, kPointConstraint, 1, false));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringOr("error", ""), "timeout");

  // The backend finishes after the deadline: bookkeeping only, no second
  // response on the wire.
  dispatcher.FulfillAll();
  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  EXPECT_EQ(NetCounter(server->get(), "net.req.timeout"), 1u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.late"), 1u);
  ExpectExactAccounting(server->get());
}

TEST(NetServerTest, GracefulDrainFinishesInFlightAndRejectsNewFrames) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kHold);
  auto server = NetServer::Create(&dispatcher, QuickOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  const std::string constraint =
      R"({"metric": "card", "kind": "point", "value": 5})";
  auto client = BlockingClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->SendLine(BuildRequestLine("t", 1, constraint, 1, false)).ok());
  // Wait until the request is actually in flight before draining.
  while (dispatcher.held() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  (*server)->BeginDrain();
  // Drain has taken effect once the listen socket is gone.
  for (int i = 0; i < 500; ++i) {
    auto probe = BlockingClient::Connect("127.0.0.1", port, 500);
    if (!probe.ok()) break;
    // Accepted by a lingering backlog or not yet closed: retry.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // New frames on the existing connection are refused with `draining`.
  ASSERT_TRUE(
      client->SendLine(BuildRequestLine("t", 2, constraint, 1, false)).ok());
  auto draining = client->ReadLine();
  ASSERT_TRUE(draining.ok()) << draining.status().ToString();
  auto drain_doc = obs::JsonParse(*draining);
  ASSERT_TRUE(drain_doc.ok());
  EXPECT_EQ(drain_doc->StringOr("error", ""), "draining");
  EXPECT_DOUBLE_EQ(drain_doc->NumberOr("id", -1), 2.0);

  // The in-flight request still completes and is delivered.
  dispatcher.FulfillAll();
  auto ok = client->ReadLine();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  auto ok_doc = obs::JsonParse(*ok);
  ASSERT_TRUE(ok_doc.ok());
  EXPECT_DOUBLE_EQ(ok_doc->NumberOr("ok", -1), 1.0);
  EXPECT_DOUBLE_EQ(ok_doc->NumberOr("id", -1), 1.0);

  ASSERT_TRUE((*server)->Join().ok());
  EXPECT_EQ(NetCounter(server->get(), "net.req.received"), 2u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.ok"), 1u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.draining"), 1u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.orphaned"), 0u);
  ExpectExactAccounting(server->get());
}

TEST(NetServerTest, ForcedDrainDeadlineOrphansWithExactAccounting) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kHold);
  NetServerOptions opts = QuickOptions();
  opts.drain_timeout_ms = 150;
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->SendLine(BuildRequestLine("t", 1, kPointConstraint, 1, false))
          .ok());
  while (dispatcher.held() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  (*server)->BeginDrain();
  // Let the drain deadline expire with the request still held, then
  // unblock the completion waiter so teardown can join it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  dispatcher.FulfillAll();
  ASSERT_TRUE((*server)->Join().ok());

  EXPECT_EQ(NetCounter(server->get(), "net.req.received"), 1u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.orphaned"), 1u);
  EXPECT_EQ(NetCounter(server->get(), "net.req.ok"), 0u);
  ExpectExactAccounting(server->get());
}

TEST(NetServerTest, ConnectionCapRefusesExcessClients) {
  ManualDispatcher dispatcher(ManualDispatcher::Mode::kImmediate);
  NetServerOptions opts = QuickOptions();
  opts.max_connections = 1;
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto first = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(first.ok());
  auto pong = Roundtrip(&*first, R"({"op": "ping", "id": 1})");
  ASSERT_TRUE(pong.ok());

  // The second TCP connect succeeds (kernel backlog) but the server closes
  // it at accept; the client observes EOF rather than a response.
  auto second = BlockingClient::Connect("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(second.ok());
  (void)second->SendLine(R"({"op": "ping", "id": 2})");
  EXPECT_FALSE(second->ReadLine().ok());

  first->Close();
  second->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  EXPECT_GE(NetCounter(server->get(), "net.conn.refused"), 1u);
  ExpectExactAccounting(server->get());
}

// ------------------------------------------------ Loopback: real service

TEST(NetServiceE2eTest, GeneratesOverLoopbackWithRealService) {
  GenerationServiceOptions svc_opts;
  svc_opts.num_workers = 2;
  svc_opts.queue_capacity = 16;
  svc_opts.gen.train_epochs = 8;
  svc_opts.gen.trainer.batch_size = 4;
  svc_opts.gen.attempts_factor = 40;
  svc_opts.seed = 2024;
  auto service =
      GenerationService::Create(ScoreContext(svc_opts.gen), svc_opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ServiceDispatcher dispatcher(service->get());
  auto server = NetServer::Create(&dispatcher, QuickOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port(),
                                        120000);
  ASSERT_TRUE(client.ok());
  auto doc = Roundtrip(
      &*client, BuildRequestLine("e2e", 11, kWideRangeConstraint, 2, true));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_DOUBLE_EQ(doc->NumberOr("ok", -1), 1.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("id", -1), 11.0);
  EXPECT_EQ(doc->StringOr("tenant", ""), "e2e");
  EXPECT_GE(doc->NumberOr("attempts", -1), 2.0);
  ASSERT_NE(doc->Find("queries"), nullptr);

  // Same bucket again: served from the model cache.
  auto again = Roundtrip(
      &*client, BuildRequestLine("e2e", 12, kWideRangeConstraint, 1, true));
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->NumberOr("ok", -1), 1.0);
  EXPECT_DOUBLE_EQ(again->NumberOr("cache_hit", -1), 1.0);

  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  ExpectExactAccounting(server->get());
  EXPECT_EQ(NetCounter(server->get(), "net.req.ok"), 2u);

  // Shut the service down only after the server (completion waiters must
  // be able to observe every future first).
  (*service)->Shutdown();
  EXPECT_EQ((*service)->Metrics().requests_completed, 2u);
}

// Drain-under-load audit: requests accepted by the service *before* the
// server begins draining, but only popped by a worker *after* drain
// started, must still be completed and answered — never orphaned. One
// worker stuck training the bucket's first model guarantees the rest of
// the burst is still queued when BeginDrain lands.
TEST(NetServiceE2eTest, DrainUnderLoadCompletesQueuedBacklog) {
  GenerationServiceOptions svc_opts;
  svc_opts.num_workers = 1;
  svc_opts.queue_capacity = 16;
  svc_opts.gen.train_epochs = 8;
  svc_opts.gen.trainer.batch_size = 4;
  svc_opts.gen.attempts_factor = 40;
  auto service =
      GenerationService::Create(ScoreContext(svc_opts.gen), svc_opts);
  ASSERT_TRUE(service.ok());

  ServiceDispatcher dispatcher(service->get());
  NetServerOptions opts = QuickOptions();
  opts.drain_timeout_ms = 120000;  // completion, not deadline, ends drain
  auto server = NetServer::Create(&dispatcher, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client =
      BlockingClient::Connect("127.0.0.1", (*server)->port(), 120000);
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kRequests = 5;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(
        client
            ->SendLine(BuildRequestLine("t", id, kRangeConstraint, 1, true))
            .ok());
  }
  // Wait until the service has *accepted* the whole burst, then drain
  // while the single worker is still training request 1's model.
  while ((*service)->Metrics().requests_submitted < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*server)->BeginDrain();

  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto line = client->ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto doc = obs::JsonParse(*line);
    ASSERT_TRUE(doc.ok());
    EXPECT_DOUBLE_EQ(doc->NumberOr("ok", -1), 1.0);
    answered.insert(static_cast<uint64_t>(doc->NumberOr("id", 0)));
  }
  EXPECT_EQ(answered.size(), kRequests);  // every accepted id came back

  client->Close();
  ASSERT_TRUE((*server)->Join().ok());
  EXPECT_EQ(NetCounter(server->get(), "net.req.ok"), kRequests);
  EXPECT_EQ(NetCounter(server->get(), "net.req.orphaned"), 0u);
  ExpectExactAccounting(server->get());

  (*service)->Shutdown();
  EXPECT_EQ((*service)->Metrics().requests_completed, kRequests);
}

TEST(NetServiceE2eTest, ServiceShutdownUnderServerMapsToDraining) {
  GenerationServiceOptions svc_opts;
  svc_opts.num_workers = 1;
  svc_opts.gen.train_epochs = 8;
  svc_opts.gen.trainer.batch_size = 4;
  svc_opts.gen.attempts_factor = 40;
  auto service =
      GenerationService::Create(ScoreContext(svc_opts.gen), svc_opts);
  ASSERT_TRUE(service.ok());
  (*service)->Shutdown();  // dispatches now fail with FailedPrecondition

  ServiceDispatcher dispatcher(service->get());
  auto server = NetServer::Create(&dispatcher, QuickOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = BlockingClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto doc = Roundtrip(&*client,
                       BuildRequestLine("t", 1, kPointConstraint, 1, false));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->StringOr("error", ""), "draining");

  client->Close();
  (*server)->BeginDrain();
  ASSERT_TRUE((*server)->Join().ok());
  ExpectExactAccounting(server->get());
}

}  // namespace
}  // namespace net
}  // namespace lsg
