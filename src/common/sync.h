#ifndef LEARNEDSQLGEN_COMMON_SYNC_H_
#define LEARNEDSQLGEN_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>

// Annotated synchronization layer: the only place in the tree allowed to
// touch the raw std primitives (enforced by tools/lsgcheck, rule
// raw-mutex). Everything else uses lsg::Mutex / lsg::MutexLock /
// lsg::CondVar, which carry Clang thread-safety capability attributes so
// that lock discipline — which fields a mutex guards, which functions
// require it, which must be called without it — is checked at compile
// time on every Clang build (-Wthread-safety, see the LSG_THREAD_SAFETY
// option in the top-level CMakeLists and DESIGN.md §6i).
// On GCC and other compilers the attributes expand to nothing and the
// wrappers compile down to the std types they hold.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LSG_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef LSG_THREAD_ANNOTATION_
#define LSG_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define LSG_CAPABILITY(x) LSG_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type whose lifetime holds a capability.
#define LSG_SCOPED_CAPABILITY LSG_THREAD_ANNOTATION_(scoped_lockable)
/// Field may only be read/written while holding `x`.
#define LSG_GUARDED_BY(x) LSG_THREAD_ANNOTATION_(guarded_by(x))
/// Pointer field: the pointee may only be accessed while holding `x`.
#define LSG_PT_GUARDED_BY(x) LSG_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function may only be called while already holding the listed mutexes.
#define LSG_REQUIRES(...) \
  LSG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Function acquires the listed mutexes (held on return, not on entry).
#define LSG_ACQUIRE(...) \
  LSG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function releases the listed mutexes (held on entry, not on return).
#define LSG_RELEASE(...) \
  LSG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Function may not be called while holding the listed mutexes (deadlock
/// and lock-ordering documentation; see the hierarchy in DESIGN.md §6i).
#define LSG_EXCLUDES(...) LSG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the capability guarding its result.
#define LSG_RETURN_CAPABILITY(x) LSG_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch for patterns the analysis cannot express. Every use must
/// carry a comment explaining why the code is nevertheless correct.
#define LSG_NO_THREAD_SAFETY_ANALYSIS \
  LSG_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace lsg {

class CondVar;

/// std::mutex with capability attributes. Prefer MutexLock over manual
/// Lock/Unlock pairs.
class LSG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LSG_ACQUIRE() { mu_.lock(); }
  void Unlock() LSG_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scope lock over a Mutex (the analogue of std::lock_guard).
class LSG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LSG_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() LSG_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable bound to lsg::Mutex. Waits take the mutex (which
/// the caller must hold) explicitly so the analysis can see the guarded
/// state stays protected across the wait; write waits as explicit loops —
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(mu_);
///
/// — rather than with a predicate lambda: the loop body lives in the
/// function that holds the capability, so guarded reads in the condition
/// are checked, where a lambda would be analyzed as an unannotated
/// function and rejected.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Spurious wakeups happen; always wait in a loop.
  void Wait(Mutex& mu) LSG_REQUIRES(mu) {
    std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();  // the capability stays with the caller's scope
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_COMMON_SYNC_H_
