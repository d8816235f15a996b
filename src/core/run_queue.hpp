#pragma once
// RunQueue: the per-PE scheduler queue every machine backend executes
// from. Most urgent priority first (smaller value wins), FIFO among
// equal priorities by enqueue sequence.

#include <cstdint>
#include <queue>
#include <vector>

#include "core/types.hpp"

namespace mdo::core {

template <class T>
class RunQueue {
 public:
  /// Enqueue behind every earlier value of the same priority.
  void push(Priority priority, T&& value) {
    queue_.push(Item{priority, next_seq_++, std::move(value)});
  }

  /// Remove and return the most urgent value. Must not be empty.
  T pop() {
    T value = std::move(const_cast<Item&>(queue_.top()).value);
    queue_.pop();
    return value;
  }

  /// Discard everything; returns how many values were dropped.
  std::size_t clear() {
    const std::size_t n = queue_.size();
    queue_ = {};
    return n;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  struct Item {
    Priority priority;
    std::uint64_t seq;  ///< enqueue order; breaks priority ties FIFO
    T value;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mdo::core
