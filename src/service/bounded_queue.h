#ifndef LEARNEDSQLGEN_SERVICE_BOUNDED_QUEUE_H_
#define LEARNEDSQLGEN_SERVICE_BOUNDED_QUEUE_H_

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/sync.h"

namespace lsg {

/// Bounded multi-producer/multi-consumer queue, the backpressure point of
/// the generation service. Producers either block until a slot frees up
/// (Push) or fail fast (TryPush); consumers block until an item or close
/// arrives (Pop). Close() has drain semantics: producers are rejected from
/// then on, but items already accepted stay poppable, so a clean shutdown
/// never drops accepted work.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false (item dropped) if the
  /// queue is closed before a slot frees up.
  bool Push(T item) {
    MutexLock lock(&mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    if (closed_) return false;
    EnqueueLocked(std::move(item));
    return true;
  }

  /// Fail-fast producer: returns false immediately when full or closed.
  bool TryPush(T item) {
    MutexLock lock(&mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    EnqueueLocked(std::move(item));
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed and fully drained.
  std::optional<T> Pop() {
    MutexLock lock(&mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Rejects all future producers and wakes every waiter. Idempotent.
  void Close() {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  bool closed() const {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const {
    MutexLock lock(&mu_);
    return items_.size();
  }

  /// Deepest the queue has ever been (backpressure diagnostics).
  size_t high_water_mark() const {
    MutexLock lock(&mu_);
    return high_water_;
  }

 private:
  void EnqueueLocked(T item) LSG_REQUIRES(mu_) {
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    not_empty_.NotifyOne();
  }

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ LSG_GUARDED_BY(mu_);
  size_t high_water_ LSG_GUARDED_BY(mu_) = 0;
  bool closed_ LSG_GUARDED_BY(mu_) = false;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_SERVICE_BOUNDED_QUEUE_H_
