#pragma once
// Entry-method registry. Charm++ generates dispatch stubs with a source
// translator and registers every entry method at startup; we achieve the
// same thing with templates. entry_id<&T::m>() odr-uses a class-template
// static member whose initializer registers a type-erased invoker that
// unmarshals the method's parameter pack from a byte span and calls the
// member. Every entry a program can send is therefore registered during
// static initialization, before main(): ids are a property of the
// binary, not of which PE first used a method. One address space (Sim,
// Thread) shares the table trivially; ProcessMachine freezes it before
// it forks, so every child inherits the identical table and an id means
// the same method in every process.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/pup.hpp"

namespace mdo::core {

class Chare;

struct EntryInfo {
  std::string name;
  void (*invoke)(Chare& element, std::span<const std::byte> args) = nullptr;
};

class Registry {
 public:
  static Registry& instance();

  /// Register one entry and return its id. Aborts, naming the method,
  /// once the registry is frozen.
  EntryId add(EntryInfo info);
  const EntryInfo& entry(EntryId id) const;
  std::size_t size() const;

  /// Refuse every later add(). ProcessMachine freezes the table before
  /// its first fork: a registration after that point would exist in one
  /// process only, so it fails where it happens.
  void freeze();

 private:
  // deque: growth never relocates entries, so the reference entry()
  // hands out stays valid while another thread registers. Writers
  // serialize on mutex_ and publish the new size with a release store;
  // entry() and size() read published_ without the lock — the delivery
  // hot path never serializes on a registry mutex.
  mutable std::mutex mutex_;
  std::deque<EntryInfo> entries_;
  std::atomic<std::size_t> published_{0};
  bool frozen_ = false;
};

namespace detail {

template <class M>
struct MemberFnTraits;

template <class T, class R, class... Args>
struct MemberFnTraits<R (T::*)(Args...)> {
  using Class = T;
  using ArgsTuple = std::tuple<std::decay_t<Args>...>;
};

template <class Tuple>
Tuple unmarshal_into(std::span<const std::byte> data) {
  Pup p = Pup::unpacker(data);
  Tuple out{};
  std::apply(
      [&p](auto&... elems) {
        (void)std::initializer_list<int>{((p | elems), 0)...};
      },
      out);
  MDO_CHECK_MSG(p.bytes_remaining() == 0, "trailing bytes after entry unmarshal");
  return out;
}

template <auto Method>
constexpr std::string_view method_pretty_name() {
  return __PRETTY_FUNCTION__;
}

/// Registers `Method` once. `id` is initialized during static
/// initialization of any binary that instantiates entry_id<Method>(), so
/// registration happens before main(); get() also serves a caller that
/// runs during static initialization, ahead of `id`'s initializer.
template <auto Method>
struct EntryRegistrar {
  static EntryId get() {
    using Traits = MemberFnTraits<decltype(Method)>;
    using T = typename Traits::Class;
    static const EntryId registered = Registry::instance().add(EntryInfo{
        std::string(method_pretty_name<Method>()),
        +[](Chare& element, std::span<const std::byte> bytes) {
          auto args = unmarshal_into<typename Traits::ArgsTuple>(bytes);
          auto& obj = static_cast<T&>(element);
          std::apply(
              [&obj](auto&&... unpacked) {
                (obj.*Method)(std::move(unpacked)...);
              },
              args);
        }});
    return registered;
  }
  static inline const EntryId id = get();
};

}  // namespace detail

/// Process-wide id for a given entry method, fixed at load time.
template <auto Method>
EntryId entry_id() {
  // The odr-use instantiates the registrar's static member, which is
  // what registers Method before main().
  static_cast<void>(&detail::EntryRegistrar<Method>::id);
  return detail::EntryRegistrar<Method>::get();
}

}  // namespace mdo::core
