#pragma once
// Test helpers for the wall-clock backends: run a function on the
// machine's own loop (Machine::call_after — the fabric thread that owns
// device state), so tests can read devices and snapshot metrics without
// racing live traffic.

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "core/machine.hpp"

namespace mdo::probe {

/// Run `fn` on `machine`'s loop and return its result.
template <class Fn>
auto on_machine_loop(core::Machine& machine, Fn fn) -> decltype(fn()) {
  // The callback owns the promise, so it may finish set_value after the
  // waiter has returned.
  auto result = std::make_shared<std::promise<decltype(fn())>>();
  auto future = result->get_future();
  machine.call_after(0, [result, fn] { result->set_value(fn()); });
  return future.get();
}

/// Poll `pred` on the machine's loop until it holds or `limit` passes.
inline bool eventually_on_machine_loop(core::Machine& machine,
                                       const std::function<bool()>& pred,
                                       std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!on_machine_loop(machine, pred)) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace mdo::probe
