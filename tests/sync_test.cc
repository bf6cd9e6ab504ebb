// Tests for the annotated synchronization layer (src/common/sync.h):
// macro neutrality off-Clang, MutexLock RAII semantics,
// CondVar wait/notify under the explicit-loop idiom, and a guarded
// counter under real contention (run this binary in a
// -DLSG_SANITIZE=thread build to turn that test into a race detector).
//
// Negative-compile mutation check (the build must BREAK, so it cannot be
// a runtime test): compiling this file under Clang with
// -DLSG_THREAD_SAFETY=ON -DLSG_TS_MUTATION seeds a guarded-member read
// whose LSG_REQUIRES annotation has been deliberately removed; Clang's
// -Werror=thread-safety must reject it. A successful compile of the
// mutation means the analysis is not running. Exercise it with:
//
//   CXX=clang++ cmake -B build-ts -S . -DLSG_THREAD_SAFETY=ON
//   cmake -B build-ts -S . -DCMAKE_CXX_FLAGS=-DLSG_TS_MUTATION
//   cmake --build build-ts --target sync_test   # must FAIL
//
// (Under GCC the annotations expand to nothing and the mutation compiles
// silently — the check has teeth exactly where the analysis exists.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace lsg {
namespace {

#ifdef LSG_TS_MUTATION
class MutationProbe {
 public:
  // LSG_REQUIRES(mu_) removed on purpose: an unguarded read of a guarded
  // member. Clang with LSG_THREAD_SAFETY=ON must refuse to compile this.
  int UnsafeRead() { return value_; }

 private:
  Mutex mu_;
  int value_ LSG_GUARDED_BY(mu_) = 0;
};
#endif

TEST(SyncTest, AnnotationMacrosCompileAwayOffClang) {
  // The macros must be usable in every position sync.h uses them —
  // declared here on a local type to prove they expand cleanly (to
  // nothing under GCC, to Clang attributes under Clang).
  class LSG_CAPABILITY("mutex") FakeCap {
   public:
    void Lock() LSG_ACQUIRE() {}
    void Unlock() LSG_RELEASE() {}
  };
  class Annotated {
   public:
    int Get() LSG_EXCLUDES(mu_) {
      MutexLock lock(&mu_);
      return GetLocked();
    }

   private:
    int GetLocked() LSG_REQUIRES(mu_) { return guarded_; }
    Mutex mu_;
    int guarded_ LSG_GUARDED_BY(mu_) = 42;
  };
  FakeCap cap;
  cap.Lock();
  cap.Unlock();
  Annotated a;
  EXPECT_EQ(a.Get(), 42);
#if defined(__clang__)
  SUCCEED() << "annotations active (Clang)";
#else
  // Off-Clang the attribute macros must be empty — this is what lets the
  // annotated tree keep building on the GCC baseline toolchain.
#define SYNC_TEST_STR_INNER(x) #x
#define SYNC_TEST_STR(x) SYNC_TEST_STR_INNER(x)
  EXPECT_STREQ(SYNC_TEST_STR(LSG_GUARDED_BY(mu_)), "");
  EXPECT_STREQ(SYNC_TEST_STR(LSG_REQUIRES(mu_)), "");
  EXPECT_STREQ(SYNC_TEST_STR(LSG_EXCLUDES(mu_)), "");
#undef SYNC_TEST_STR
#undef SYNC_TEST_STR_INNER
#endif
}

TEST(SyncTest, MutexLockIsHeldForExactlyTheScope) {
  // A probe thread blocks in its own MutexLock while the owner holds the
  // mutex. It must see the flag the owner set just before its scope
  // ended: a lock that did not exclude would let the probe read the flag
  // before the owner's delayed write, and one that was not released at
  // scope exit would never let the probe in.
  Mutex mu;
  bool released = false;  // written under mu, last thing in the scope
  bool seen = false;
  std::atomic<bool> probing{false};
  std::thread probe;
  {
    MutexLock lock(&mu);
    probe = std::thread([&] {
      // relaxed: only a start signal; mu orders the data.
      probing.store(true, std::memory_order_relaxed);
      MutexLock probe_lock(&mu);
      seen = released;
    });
    // relaxed: a spin on the start signal above, no payload.
    while (!probing.load(std::memory_order_relaxed)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    released = true;
  }
  probe.join();
  EXPECT_TRUE(seen);
}

TEST(SyncTest, CondVarWaitReleasesAndReacquiresTheMutex) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = -1;
  int payload = 0;

  std::thread consumer([&] {
    MutexLock lock(&mu);
    // The canonical explicit wait loop (see DESIGN.md §6i): re-check the
    // guarded predicate after every wakeup; spurious wakeups just loop.
    while (!ready) cv.Wait(mu);
    observed = payload;
  });
  {
    MutexLock lock(&mu);
    payload = 99;
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();
  // Seeing payload == 99 proves Wait held the mutex around the predicate
  // re-check and the producer's writes were published through it.
  EXPECT_EQ(observed, 99);
}

TEST(SyncTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woke = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(mu);
      ++woke;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(woke, kWaiters);
}

TEST(SyncTest, GuardedCounterStaysExactUnderContention) {
  // The TSan payload: many threads hammering one guarded counter. In a
  // -DLSG_SANITIZE=thread build any hole in Mutex/MutexLock shows up as
  // a reported race; in a plain build the count proves mutual exclusion.
  Mutex mu;
  int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace lsg
