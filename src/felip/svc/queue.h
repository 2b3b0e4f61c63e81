// Bounded multi-producer multi-consumer queue: the ingest service's only
// buffering point between transport IO and the server's drain thread.
//
// The capacity bound is the backpressure mechanism, not an implementation
// detail: TryPush never blocks and never grows the queue, so the IO thread
// can translate "queue full" into an explicit retry-after response instead
// of letting a fast client run the server out of memory. Consumers block in
// Pop until an item arrives or the queue is shut down; Shutdown wakes every
// consumer and makes all further pushes fail, which is how the server
// ends its drain thread on Stop.

#ifndef FELIP_SVC_QUEUE_H_
#define FELIP_SVC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "felip/common/check.h"

namespace felip::svc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    FELIP_CHECK(capacity_ > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Enqueues unless the queue is full or shut down; never blocks.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until an item is available or Shutdown; nullopt only after
  // Shutdown with the queue fully drained (consumers finish in-flight
  // items before exiting).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return shutdown_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Fails all future pushes and wakes blocked consumers. Items already
  // queued are still handed out by Pop.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    ready_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool shutdown_ = false;
};

}  // namespace felip::svc

#endif  // FELIP_SVC_QUEUE_H_
