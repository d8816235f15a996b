#include "core/registry.hpp"

namespace mdo::core {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

EntryId Registry::add(EntryInfo info) {
  MDO_CHECK(info.invoke != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  MDO_CHECK_MSG(!frozen_,
                ("entry method registered after the registry froze: " +
                 info.name)
                    .c_str());
  entries_.push_back(std::move(info));
  published_.store(entries_.size(), std::memory_order_release);
  return static_cast<EntryId>(entries_.size() - 1);
}

void Registry::freeze() {
  std::lock_guard<std::mutex> lock(mutex_);
  frozen_ = true;
}

const EntryInfo& Registry::entry(EntryId id) const {
  // Lock-free: ids below the published watermark are immutable (the
  // deque never relocates entries and an id, once assigned, is never
  // rewritten), so the acquire load alone makes the record safe to read.
  // Every id in use came from add(), which publishes before returning it.
  // Every delivery goes through here — taking mutex_ would serialize all
  // PEs on one lock.
  MDO_CHECK(id >= 0 && static_cast<std::size_t>(id) <
                           published_.load(std::memory_order_acquire));
  return entries_[static_cast<std::size_t>(id)];
}

std::size_t Registry::size() const {
  return published_.load(std::memory_order_acquire);
}

}  // namespace mdo::core
