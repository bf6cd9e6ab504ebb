// Tests for the concurrent generation service (src/service/): queue
// backpressure, constraint bucketing, registry hit/dedup/LRU-spill
// behavior, worker-pool end-to-end runs, drain-on-shutdown, and
// concurrency-1 reproducibility.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/stat.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/batch_decoder.h"
#include "service/bounded_queue.h"
#include "service/constraint_key.h"
#include "service/generation_service.h"
#include "service/model_registry.h"
#include "tests/scalar_forward_reference.h"
#include "tests/scalar_lstm_reference.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

// Small but real training config: enough epochs that models actually
// learn to emit complete queries, small enough to keep the suite quick.
LearnedSqlGenOptions FastOptions(uint64_t seed = 2024) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 8;
  opts.trainer.batch_size = 4;
  opts.attempts_factor = 40;
  opts.seed = seed;
  return opts;
}

Constraint CardPoint(double v) {
  return Constraint::Point(ConstraintMetric::kCardinality, v);
}
Constraint CardRange(double lo, double hi) {
  return Constraint::Range(ConstraintMetric::kCardinality, lo, hi);
}

std::string TempDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() / ("lsg_service_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// Decodes `n` queries from `snap` with GenerateBatch semantics (exactly n
// attempts, judged against the snapshot's own constraint), sampling
// Rng(seed).
GenerationReport DecodeBatch(const ServingSnapshot& snap, int n,
                             uint64_t seed) {
  BatchDecodeItem item;
  item.constraint = snap.constraint;
  item.n = n;
  item.batch_mode = true;
  item.rng = Rng(seed);
  DecodeItem(snap, &item);
  EXPECT_TRUE(item.status.ok()) << item.status.ToString();
  return std::move(item.report);
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueueTest, TryPushFailsFastWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // backpressure: full
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(3));  // slot freed
  EXPECT_EQ(q.high_water_mark(), 2u);
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerFreesSlot) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // blocks: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BoundedQueueTest, CloseDrainsAcceptedItemsAndRejectsProducers) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));     // rejected after close
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop().value(), 1);  // accepted items still drain
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // closed + empty
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

// ---------------------------------------------------------- ConstraintKey

TEST(ConstraintKeyTest, BucketsSplitByMetricKindAndMagnitude) {
  EXPECT_EQ(BucketOf(CardPoint(100)), BucketOf(CardPoint(103)));
  EXPECT_FALSE(BucketOf(CardPoint(100)) == BucketOf(CardPoint(1000)));
  EXPECT_FALSE(BucketOf(CardPoint(100)) ==
               BucketOf(Constraint::Point(ConstraintMetric::kCost, 100)));
  EXPECT_FALSE(BucketOf(CardPoint(100)) == BucketOf(CardRange(100, 100)));
  EXPECT_EQ(BucketOf(CardRange(50, 200)), BucketOf(CardRange(51, 205)));
  EXPECT_FALSE(BucketOf(CardRange(50, 200)) == BucketOf(CardRange(50, 800)));
}

TEST(ConstraintKeyTest, ToStringIsFilesystemSafe) {
  std::string s = BucketOf(CardRange(50, 200)).ToString();
  EXPECT_EQ(s.find('/'), std::string::npos);
  EXPECT_EQ(s.find(' '), std::string::npos);
  EXPECT_NE(s.find("card-range"), std::string::npos);
  // Distinct buckets must map to distinct spill filenames.
  EXPECT_NE(s, BucketOf(CardRange(50, 800)).ToString());
}

// ---------------------------------------------------------- ModelRegistry

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : context_(ScoreContext(FastOptions())) {}
  std::shared_ptr<const DatabaseContext> context_;
  ServiceMetrics metrics_;
};

TEST_F(RegistryTest, SecondRequestForSameBucketIsAHitWithoutRetraining) {
  ModelRegistry::Options ro;
  ro.capacity = 4;
  ModelRegistry registry(context_, FastOptions(), ro, &metrics_);

  auto first = registry.Acquire(CardRange(5, 50), /*train_seed=*/1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(metrics_.trainings.Value(), 1u);

  // Same bucket (slightly different numbers): served from cache, and the
  // train-count metric proves no retraining happened.
  auto second = registry.Acquire(CardRange(5, 51), /*train_seed=*/2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->snapshot, first->snapshot);
  EXPECT_EQ(metrics_.trainings.Value(), 1u);
  EXPECT_EQ(metrics_.cache_hits.Value(), 1u);
  EXPECT_EQ(metrics_.cache_misses.Value(), 1u);
}

TEST_F(RegistryTest, ConcurrentRequestsForOneBucketTrainOnce) {
  ModelRegistry::Options ro;
  ro.capacity = 4;
  ModelRegistry registry(context_, FastOptions(), ro, &metrics_);

  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const ServingSnapshot>> snaps(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto acquired = registry.Acquire(CardRange(5, 50), 100 + t);
      if (acquired.ok()) snaps[t] = std::move(acquired->snapshot);
    });
  }
  for (auto& t : threads) t.join();

  // Four threads, one bucket, one training run — dedup'ed via the shared
  // entry; everyone gets the same usable model.
  for (const auto& snap : snaps) {
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap, snaps[0]);
  }
  EXPECT_EQ(DecodeBatch(*snaps[0], 2, /*seed=*/1).attempts, 2);
  EXPECT_EQ(metrics_.trainings.Value(), 1u);
  EXPECT_EQ(metrics_.cache_misses.Value(), 1u);
  EXPECT_EQ(metrics_.cache_hits.Value(),
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(registry.size(), 1u);
}

// Four eval steps of a served actor over the whole vocabulary, byte for byte
// against the scalar LSTM reference and the head's scalar row products over
// the actor's parameter values: a snapshot whose forward panels were stale
// (not refreshed by the last write to their values) would differ.
void ExpectActorMatchesScalarReference(const PolicyNetwork& actor) {
  const std::vector<const ParamTensor*> params = actor.Params();
  const std::vector<const ParamTensor*> lstm(params.begin(), params.end() - 2);
  const ParamTensor& head_w = *params[params.size() - 2];
  const ParamTensor& head_b = *params[params.size() - 1];
  std::vector<int> admitted(actor.vocab_size());
  for (int i = 0; i < actor.vocab_size(); ++i) admitted[i] = i;
  PolicyNetwork::Episode ep = actor.BeginEpisode(/*train=*/false);
  LstmStack::State ref_state = ep.state;
  PolicyNetwork::Workspace ws;
  for (int t = 0; t < 4; ++t) {
    const int token =
        ep.actions.empty() ? actor.bos_index() : ep.actions.back();
    PolicyNetwork::CompactDistribution dist;
    const Status status =
        actor.Step(&ep, admitted, /*dropout=*/nullptr, &dist, &ws);
    ASSERT_TRUE(status.ok()) << status.ToString();
    const std::vector<float> top = testing_ref::ScalarLstmStep(
        lstm, 0.f, token, {}, &ref_state, nullptr, nullptr);
    std::vector<float> probs(admitted.size());
    testing_ref::ScalarForwardRows(head_w.value(), head_b.value().data(),
                                   top.data(), admitted.data(),
                                   actor.vocab_size(), probs.data());
    ASSERT_TRUE(TryCompactSoftmaxInPlace(probs.data(), probs.size()).ok());
    ASSERT_EQ(dist.probs.size(), probs.size());
    ASSERT_EQ(std::memcmp(dist.probs.data(), probs.data(),
                          probs.size() * sizeof(float)),
              0)
        << "step " << t;
    actor.RecordAction(&ep, (7 * t + 3) % actor.vocab_size());
  }
}

TEST_F(RegistryTest, EvictedModelWarmStartsFromDisk) {
  ModelRegistry::Options ro;
  ro.capacity = 1;
  ro.spill_dir = TempDir("spill");
  ModelRegistry registry(context_, FastOptions(), ro, &metrics_);

  const Constraint a = CardRange(5, 50);
  const Constraint b = CardPoint(10);

  auto trained = registry.Acquire(a, 1);
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ(metrics_.trainings.Value(), 1u);
  ExpectActorMatchesScalarReference(*trained->snapshot->actor);

  // B overflows the single-model cache: A is spilled to disk and evicted.
  ASSERT_TRUE(registry.Acquire(b, 2).ok());
  EXPECT_EQ(metrics_.trainings.Value(), 2u);
  EXPECT_EQ(metrics_.evictions.Value(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_TRUE(std::filesystem::exists(registry.SpillPathFor(a)));

  // Re-requesting A warm-starts from the spill file instead of retraining,
  // and the restored model generates.
  auto again = registry.Acquire(a, 3);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->warm_start);
  EXPECT_EQ(metrics_.trainings.Value(), 2u);  // no third training
  EXPECT_EQ(metrics_.disk_warm_starts.Value(), 1u);
  ASSERT_NE(again->snapshot, nullptr);
  ExpectActorMatchesScalarReference(*again->snapshot->actor);
  EXPECT_EQ(DecodeBatch(*again->snapshot, 3, /*seed=*/3).attempts, 3);
  std::filesystem::remove_all(ro.spill_dir);
}

TEST_F(RegistryTest, EvictionWithoutSpillDirDiscards) {
  ModelRegistry::Options ro;
  ro.capacity = 1;  // no spill_dir
  ModelRegistry registry(context_, FastOptions(), ro, &metrics_);
  ASSERT_TRUE(registry.Acquire(CardRange(5, 50), 1).ok());
  ASSERT_TRUE(registry.Acquire(CardPoint(10), 2).ok());
  EXPECT_EQ(metrics_.evictions.Value(), 1u);
  // Re-request retrains (nothing on disk to warm-start from).
  ASSERT_TRUE(registry.Acquire(CardRange(5, 50), 3).ok());
  EXPECT_EQ(metrics_.trainings.Value(), 3u);
  EXPECT_EQ(metrics_.disk_warm_starts.Value(), 0u);
}

// A cached bucket costs its actor and nothing else: the registry keeps the
// model's snapshot, not the pipeline that trained it (environment, critic,
// both optimizers' state, the best-actor checkpoint). Every Acquire runs
// on this thread, so what the models keep is allocated in the main malloc
// arena that mallinfo2 reports. A published actor frees its gradient
// buffers, so the bound allows the actor's values and some slack.
TEST_F(RegistryTest, HeapPerCachedModelIsBoundedByItsActor) {
  ModelRegistry::Options ro;
  ro.capacity = 8;
  ModelRegistry registry(context_, FastOptions(), ro, &metrics_);
  auto heap_bytes = [] {
    const struct mallinfo2 mi = ::mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  // One bucket first, so one-time lazy state (metric handles, caches
  // sized on first use) is not charged to the measured models.
  ASSERT_TRUE(registry.Acquire(CardRange(5, 50), 1).ok());

  constexpr int kModels = 4;
  double actor_bytes = 0.0;
  const double before = heap_bytes();
  for (int k = 0; k < kModels; ++k) {
    auto acquired = registry.Acquire(CardPoint(std::pow(10.0, k + 1)), 10 + k);
    ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
    EXPECT_FALSE(acquired->cache_hit);
    actor_bytes = 0.0;
    for (const ParamTensor* t : acquired->snapshot->actor->Params()) {
      actor_bytes += sizeof(float) * static_cast<double>(t->value().size());
    }
  }
  const double per_model = (heap_bytes() - before) / kModels;
  EXPECT_EQ(registry.size(), static_cast<size_t>(kModels + 1));
  EXPECT_GT(actor_bytes, 0.0);
  EXPECT_LE(per_model, 1.5 * actor_bytes)
      << "per model " << per_model << " B, actor " << actor_bytes << " B";
}

TEST_F(RegistryTest, EvictionSkipsEntriesStillBuildingAndNeverBlocks) {
  // Eviction must skip an entry whose model is still being built, never
  // wait for it with the whole registry held, and evict it in LRU order
  // once it is built. A FIFO in place of A's spill file holds A's warm
  // start open — deterministically, with no test hook — until this thread
  // opens the FIFO's write end.
  ModelRegistry::Options ro;
  ro.capacity = 1;
  ro.spill_dir = TempDir("busy_spill");
  ModelRegistry registry(context_, FastOptions(), ro, &metrics_);

  const Constraint a = CardRange(5, 50);
  const Constraint b = CardPoint(10);
  const std::string a_spill = registry.SpillPathFor(a);
  ASSERT_EQ(::mkfifo(a_spill.c_str(), 0600), 0);

  std::thread loader([&] {
    // Blocks opening the FIFO until the write end opens; the empty "file"
    // then fails to load, so A is trained instead.
    auto first = registry.Acquire(a, 1);
    EXPECT_TRUE(first.ok()) << first.status().ToString();
    if (first.ok()) {
      EXPECT_FALSE(first->warm_start);
    }
  });
  while (metrics_.cache_misses.Value() < 1) std::this_thread::yield();

  // B overflows the single-slot cache while the only other entry is still
  // being built: B's Acquire completes without waiting for A, and nothing
  // can be evicted yet.
  auto second = registry.Acquire(b, 2);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(metrics_.trainings.Value(), 1u);  // B only: A is still blocked
  EXPECT_EQ(metrics_.evictions.Value(), 0u);
  EXPECT_EQ(registry.size(), 2u);  // over capacity for now
  EXPECT_FALSE(std::filesystem::exists(registry.SpillPathFor(b)));

  { std::ofstream release(a_spill); }  // opens and closes the write end
  loader.join();
  std::filesystem::remove(a_spill);
  EXPECT_EQ(metrics_.trainings.Value(), 2u);
  EXPECT_EQ(metrics_.disk_warm_starts.Value(), 0u);

  // With A built, the next insertion evicts in LRU order, spilling both.
  ASSERT_TRUE(registry.Acquire(CardPoint(100000), 3).ok());
  EXPECT_EQ(metrics_.evictions.Value(), 2u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(std::filesystem::is_regular_file(a_spill));
  EXPECT_TRUE(std::filesystem::exists(registry.SpillPathFor(b)));
  std::filesystem::remove_all(ro.spill_dir);
}

// Byte layout of a SaveParams file (nn/serialize.cc): u32 magic, u32
// tensor count, then per tensor u32 name_len, name, u32 rows, u32 cols and
// rows·cols floats. Offsets of the last tensor's rows field and data.
struct LastTensor {
  size_t rows_at = 0;
  size_t data_at = 0;
  size_t data_bytes = 0;
};

uint32_t ReadU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

LastTensor FindLastTensor(const std::string& bytes) {
  const uint32_t count = ReadU32(bytes, 4);
  LastTensor t;
  size_t at = 8;
  for (uint32_t i = 0; i < count; ++i) {
    at += 4 + ReadU32(bytes, at);
    t.rows_at = at;
    t.data_at = at + 8;
    t.data_bytes = sizeof(float) * static_cast<size_t>(ReadU32(bytes, at)) *
                   ReadU32(bytes, at + 4);
    at = t.data_at + t.data_bytes;
  }
  return t;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// A spill file that fails to load must cost a retrain and nothing else:
// no warm start is reported, and the served model is exactly the one a
// registry without a spill dir trains — the tensors LoadParams copied
// before it hit the damage never reach training or serving.
TEST_F(RegistryTest, CorruptSpillFilesDegradeToRetraining) {
  const Constraint c = CardRange(5, 50);
  constexpr uint64_t kTrainSeed = 7;
  struct Served {
    bool warm_start = false;
    std::vector<float> actor;  // every served actor parameter, in order
    std::vector<std::string> sql;
  };
  auto serve = [&](ModelRegistry* registry) {
    Served out;
    auto acquired = registry->Acquire(c, kTrainSeed);
    EXPECT_TRUE(acquired.ok()) << acquired.status().ToString();
    if (!acquired.ok()) return out;
    out.warm_start = acquired->warm_start;
    for (const ParamTensor* t : acquired->snapshot->actor->Params()) {
      out.actor.insert(out.actor.end(), t->value().data(),
                       t->value().data() + t->value().size());
    }
    const GenerationReport report =
        DecodeBatch(*acquired->snapshot, 6, /*seed=*/99);
    for (const GeneratedQuery& q : report.queries) out.sql.push_back(q.sql);
    return out;
  };

  Served want;
  {
    ServiceMetrics metrics;
    ModelRegistry plain(context_, FastOptions(), ModelRegistry::Options(),
                        &metrics);
    want = serve(&plain);
  }
  ASSERT_FALSE(want.sql.empty());

  // A valid spill of a differently seeded model: loading any tensor of it
  // changes the served actor.
  const std::string dir = TempDir("corrupt_spill");
  std::filesystem::create_directories(dir);
  std::string good;
  {
    LearnedSqlGenOptions opts = FastOptions();
    opts.trainer.seed = 12345;
    auto gen = LearnedSqlGen::Create(context_, opts);
    ASSERT_TRUE(gen.ok());
    ASSERT_TRUE((*gen)->Train(c).ok());
    ASSERT_TRUE((*gen)->SaveModel(dir + "/good.model").ok());
    good = ReadBytes(dir + "/good.model");
  }
  const LastTensor last = FindLastTensor(good);
  ASSERT_EQ(last.data_at + last.data_bytes, good.size());
  ASSERT_GT(last.data_bytes, sizeof(float));

  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xff);
  std::string wrong_shape = good;
  const uint32_t rows = ReadU32(good, last.rows_at) + 1;
  std::memcpy(wrong_shape.data() + last.rows_at, &rows, sizeof(rows));

  auto serve_from_spill = [&](const std::string& bytes,
                              ServiceMetrics* metrics) {
    ModelRegistry::Options ro;
    ro.spill_dir = dir + "/spill";
    std::filesystem::remove_all(ro.spill_dir);
    ModelRegistry registry(context_, FastOptions(), ro, metrics);
    WriteBytes(registry.SpillPathFor(c), bytes);
    return serve(&registry);
  };

  {
    // The intact file warm-starts a different actor, so the equalities
    // below are not vacuous.
    ServiceMetrics metrics;
    Served s = serve_from_spill(good, &metrics);
    EXPECT_TRUE(s.warm_start);
    EXPECT_EQ(metrics.trainings.Value(), 0u);
    EXPECT_NE(s.actor, want.actor);
  }
  const std::pair<const char*, std::string> cases[] = {
      {"truncated mid-tensor",
       good.substr(0, last.data_at + last.data_bytes / 2)},
      {"bad magic", bad_magic},
      {"wrong-shape tensor", wrong_shape}};
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    ServiceMetrics metrics;
    Served s = serve_from_spill(bytes, &metrics);
    EXPECT_FALSE(s.warm_start);
    EXPECT_EQ(metrics.trainings.Value(), 1u);
    EXPECT_EQ(metrics.disk_warm_starts.Value(), 0u);
    EXPECT_EQ(s.actor, want.actor);
    EXPECT_EQ(s.sql, want.sql);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(RegistryTest, ConcurrentBucketsShareOneContextAndMatchStandalone) {
  // Two threads (the service's workers, by hand) build four buckets at
  // once over one fresh context. Every snapshot must point into that one
  // context — one vocabulary, one estimator — and each bucket must decode
  // bitwise what a standalone pipeline with a private context produces
  // from the same seeds.
  LearnedSqlGenOptions opts = FastOptions();
  opts.profile = QueryProfile::SpjOnly();
  auto context = LearnedSqlGen::CreateContext(&SharedScoreDb(), opts);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  ModelRegistry registry(*context, opts, ModelRegistry::Options(), &metrics_);

  const std::vector<Constraint> buckets = {CardRange(5, 50), CardPoint(10),
                                           CardRange(1, 5), CardPoint(100)};
  std::vector<std::shared_ptr<const ServingSnapshot>> snaps(buckets.size());
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      for (size_t b = static_cast<size_t>(w); b < buckets.size(); b += 2) {
        auto acquired = registry.Acquire(buckets[b], 700 + b);
        if (acquired.ok()) snaps[b] = std::move(acquired->snapshot);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(metrics_.trainings.Value(), buckets.size());

  for (size_t b = 0; b < buckets.size(); ++b) {
    SCOPED_TRACE(buckets[b].ToString());
    const std::shared_ptr<const ServingSnapshot>& snap = snaps[b];
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->context, *context);
    EXPECT_EQ(&snap->context->vocab(), &(*context)->vocab());
    EXPECT_EQ(&snap->context->estimator(), &(*context)->estimator());

    BatchDecodeItem item;
    item.constraint = buckets[b];
    item.n = 6;
    item.batch_mode = true;
    item.rng = Rng(42 + b);
    DecodeItem(*snap, &item);
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();

    LearnedSqlGenOptions solo_opts = opts;
    solo_opts.trainer.seed = 700 + b;
    auto solo = LearnedSqlGen::Create(&SharedScoreDb(), solo_opts);
    ASSERT_TRUE(solo.ok());
    EXPECT_NE(&(*solo)->vocab(), &(*context)->vocab());  // private context
    ASSERT_TRUE((*solo)->Train(buckets[b]).ok());
    Rng rng(42 + b);
    auto want = (*solo)->GenerateBatch(6, &rng);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(item.report.queries.size(), want->queries.size());
    for (size_t q = 0; q < want->queries.size(); ++q) {
      EXPECT_EQ(item.report.queries[q].sql, want->queries[q].sql);
      EXPECT_EQ(std::bit_cast<uint64_t>(item.report.queries[q].metric),
                std::bit_cast<uint64_t>(want->queries[q].metric));
    }
  }
}

// ----------------------------------------------------- GenerationService

class ServiceTest : public ::testing::Test {
 protected:
  GenerationServiceOptions ServiceOptions(int workers) {
    GenerationServiceOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 32;
    opts.registry.capacity = 8;
    opts.gen = FastOptions();
    return opts;
  }

  /// A service over the binary's shared score/student context.
  static StatusOr<std::unique_ptr<GenerationService>> Start(
      const GenerationServiceOptions& opts) {
    return GenerationService::Create(ScoreContext(opts.gen), opts);
  }
};

TEST_F(ServiceTest, FourWorkersMixedConstraintsAllSucceed) {
  auto service = Start(ServiceOptions(4));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // >= 8 mixed constraints: card/cost, point/range, distinct magnitudes.
  std::vector<Constraint> constraints = {
      CardPoint(10),
      CardPoint(30),
      CardRange(5, 50),
      CardRange(20, 300),
      Constraint::Point(ConstraintMetric::kCost, 50),
      Constraint::Point(ConstraintMetric::kCost, 200),
      Constraint::Range(ConstraintMetric::kCost, 10, 100),
      Constraint::Range(ConstraintMetric::kCost, 100, 1000),
  };
  std::vector<std::future<GenerationResponse>> futures;
  for (size_t i = 0; i < constraints.size(); ++i) {
    GenerationRequest req;
    req.constraint = constraints[i];
    req.n = 3;
    req.batch = true;  // fixed attempt budget keeps the test bounded
    req.id = i + 1;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    GenerationResponse r = futures[i].get();
    EXPECT_TRUE(r.status.ok())
        << "request " << i + 1 << ": " << r.status.ToString();
    EXPECT_EQ(r.id, i + 1);
    EXPECT_GE(r.worker, 0);
    EXPECT_EQ(r.report.attempts, 3);
  }
  ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.requests_completed, constraints.size());
  EXPECT_EQ(m.requests_failed, 0u);
  EXPECT_EQ(m.trainings, constraints.size());  // all distinct buckets
  (*service)->Shutdown();
}

TEST_F(ServiceTest, RepeatedConstraintIsServedFromCache) {
  auto service = Start(ServiceOptions(2));
  ASSERT_TRUE(service.ok());
  GenerationRequest req;
  req.constraint = CardRange(5, 50);
  req.n = 2;
  req.batch = true;

  GenerationResponse first = (*service)->SubmitAndWait(req);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);

  GenerationResponse second = (*service)->SubmitAndWait(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ((*service)->Metrics().trainings, 1u);
}

TEST_F(ServiceTest, ShutdownDrainsPendingRequests) {
  auto opts = ServiceOptions(1);  // one slow worker => requests pile up
  auto service = Start(opts);
  ASSERT_TRUE(service.ok());

  std::vector<std::future<GenerationResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    GenerationRequest req;
    req.constraint = CardRange(5, 50);  // one bucket: train once, then fast
    req.n = 2;
    req.batch = true;
    req.id = i + 1;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  (*service)->Shutdown();  // must drain all five accepted requests

  for (auto& f : futures) {
    GenerationResponse r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  EXPECT_EQ((*service)->Metrics().requests_completed, 5u);

  // After shutdown new submissions are rejected, not hung.
  GenerationRequest late;
  late.constraint = CardPoint(10);
  GenerationResponse r = (*service)->SubmitAndWait(std::move(late));
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*service)->Metrics().requests_rejected, 1u);
}

TEST_F(ServiceTest, TrySubmitSplitsRejectionCountersByReason) {
  auto opts = ServiceOptions(1);
  opts.queue_capacity = 1;  // one slot + one busy worker => quick overflow
  auto service = Start(opts);
  ASSERT_TRUE(service.ok());

  auto make_request = [this](uint64_t id) {
    GenerationRequest req;
    req.constraint = CardRange(5, 50);
    req.n = 1;
    req.batch = true;
    req.id = id;
    return req;
  };

  // Keep submitting until backpressure bites: with a single worker stuck
  // training the first request's model, the one-slot queue fills fast.
  std::vector<std::future<GenerationResponse>> accepted;
  bool saw_queue_full = false;
  for (uint64_t id = 1; id <= 64 && !saw_queue_full; ++id) {
    auto submitted = (*service)->TrySubmit(make_request(id));
    if (submitted.ok()) {
      accepted.push_back(std::move(*submitted));
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
      saw_queue_full = true;
    }
  }
  ASSERT_TRUE(saw_queue_full);  // 64 submits never outran a model training
  ServiceMetricsSnapshot mid = (*service)->Metrics();
  EXPECT_GE(mid.requests_rejected_queue_full, 1u);
  EXPECT_EQ(mid.requests_rejected_shutdown, 0u);

  (*service)->Shutdown();
  for (auto& f : accepted) {
    EXPECT_TRUE(f.get().status.ok());
  }

  // Post-shutdown TrySubmit is a terminal rejection, tallied separately.
  auto late = (*service)->TrySubmit(make_request(99));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);

  ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.requests_rejected_shutdown, 1u);
  EXPECT_EQ(m.requests_rejected,
            m.requests_rejected_queue_full + m.requests_rejected_shutdown);
}

TEST_F(ServiceTest, InvalidRequestFailsWithoutPoisoningTheService) {
  auto service = Start(ServiceOptions(2));
  ASSERT_TRUE(service.ok());
  GenerationRequest bad;
  bad.constraint = CardPoint(10);
  bad.n = 0;
  GenerationResponse r = (*service)->SubmitAndWait(std::move(bad));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  GenerationRequest good;
  good.constraint = CardPoint(10);
  good.n = 2;
  good.batch = true;
  EXPECT_TRUE((*service)->SubmitAndWait(std::move(good)).status.ok());
  ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.requests_failed, 1u);
  EXPECT_EQ(m.requests_completed, 1u);
}

TEST_F(ServiceTest, ConcurrencyOneRunsAreReproducible) {
  auto run_once = [&] {
    auto service = Start(ServiceOptions(1));
    EXPECT_TRUE(service.ok());
    std::vector<std::string> sqls;
    for (int i = 0; i < 2; ++i) {
      GenerationRequest req;
      req.constraint = i == 0 ? CardRange(5, 50) : CardPoint(10);
      req.n = 3;
      req.batch = true;
      GenerationResponse r = (*service)->SubmitAndWait(std::move(req));
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      for (const GeneratedQuery& q : r.report.queries) {
        sqls.push_back(q.sql);
      }
    }
    return sqls;
  };
  // Same seed, same request order, one worker: byte-identical output.
  EXPECT_EQ(run_once(), run_once());
}

// A request's output is a function of (seed, request) alone. The same
// request set must yield byte-identical SQL per request id at every worker
// count — worker placement and queue interleaving change between configs,
// and neither may leak into the samples.
TEST_F(ServiceTest, OutputsIndependentOfWorkerCount) {
  // Two buckets, interleaved, so workers race on both.
  auto run_config = [&](int workers) {
    auto service = Start(ServiceOptions(workers));
    EXPECT_TRUE(service.ok());
    std::vector<std::future<GenerationResponse>> futures;
    for (uint64_t id = 1; id <= 6; ++id) {
      GenerationRequest req;
      req.constraint = id % 2 == 0 ? CardRange(5, 50) : CardPoint(10);
      req.n = 2;
      req.batch = true;
      req.id = id;
      futures.push_back((*service)->Submit(std::move(req)));
    }
    std::map<uint64_t, std::vector<std::string>> by_id;
    for (auto& f : futures) {
      GenerationResponse r = f.get();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      for (const GeneratedQuery& q : r.report.queries) {
        by_id[r.id].push_back(q.sql);
      }
    }
    return by_id;
  };
  const auto baseline = run_config(1);
  EXPECT_EQ(baseline, run_config(2));
  EXPECT_EQ(baseline, run_config(4));
}

// Requests that share a bucket share its model, but each is judged against
// its own constraint. Tolerance is not part of the bucket key, so a wide
// request lands on the narrow request's model; its satisfied flags and
// count must follow the wide target, not the one the bucket trained for.
TEST_F(ServiceTest, RequestIsJudgedAgainstItsOwnConstraint) {
  auto service = Start(ServiceOptions(1));
  ASSERT_TRUE(service.ok());
  GenerationRequest narrow;
  narrow.constraint = CardPoint(100);  // point_tolerance 0.1
  narrow.n = 2;
  narrow.batch = true;
  ASSERT_TRUE((*service)->SubmitAndWait(narrow).status.ok());

  GenerationRequest wide = narrow;
  wide.constraint.point_tolerance = 1.0;
  wide.n = 24;
  ASSERT_EQ(BucketOf(wide.constraint), BucketOf(narrow.constraint));
  GenerationResponse r = (*service)->SubmitAndWait(wide);
  (*service)->Shutdown();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.cache_hit);
  ASSERT_EQ(r.report.queries.size(), 24u);

  int satisfied = 0;
  int only_wide = 0;  // queries on which the two targets disagree
  for (const GeneratedQuery& q : r.report.queries) {
    EXPECT_EQ(q.satisfied, wide.constraint.Satisfied(q.metric)) << q.sql;
    if (q.satisfied) ++satisfied;
    if (q.satisfied && !narrow.constraint.Satisfied(q.metric)) ++only_wide;
  }
  EXPECT_EQ(r.report.satisfied, satisfied);
  EXPECT_GT(only_wide, 0) << "sample never separates the two targets";
}

// A same-bucket request that arrives while the bucket trains must wait on
// the entry's ready_cv (and count as a dedup wait), then be served from the
// freshly built model. This needs the builder to train without holding
// the entry mutex; otherwise the requester blocks on the mutex and is
// never counted.
TEST_F(ServiceTest, SameBucketRequestDuringTrainingCountsAsDedupWait) {
  auto opts = ServiceOptions(2);
  opts.gen.train_epochs = 60;  // long enough for B to arrive mid-training
  auto service = Start(opts);
  ASSERT_TRUE(service.ok());
  GenerationRequest a;
  a.constraint = CardRange(5, 50);
  a.n = 1;
  a.batch = true;
  a.id = 1;
  auto fa = (*service)->Submit(a);
  while ((*service)->Metrics().cache_misses < 1) std::this_thread::yield();
  GenerationRequest b = a;
  b.constraint = CardRange(5, 51);  // same bucket
  b.id = 2;
  auto fb = (*service)->Submit(b);
  GenerationResponse ra = fa.get();
  GenerationResponse rb = fb.get();
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_FALSE(ra.cache_hit);
  EXPECT_TRUE(rb.cache_hit);
  const ServiceMetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.dedup_waits, 1u);
  EXPECT_EQ(m.trainings, 1u);
}

TEST_F(ServiceTest, MisconfiguredOptionsFailCreateNotEveryRequest) {
  // A model the pipeline cannot serve is refused when the service builds
  // its context, so a daemon with bad options never starts.
  GenerationServiceOptions opts = ServiceOptions(1);
  opts.gen.trainer.net.extra_input_dims = 2;
  Database db = BuildScoreStudentDb();
  auto service = GenerationService::Create(&db, opts);
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);

  // A shared context must match the options' vocabulary.
  GenerationServiceOptions other = ServiceOptions(1);
  other.gen.vocab.values_per_column += 1;
  auto mismatched = GenerationService::Create(ScoreContext(FastOptions()),
                                              other);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lsg
