// Stackful fibers for the simmpi scheduler (runtime.hpp).
//
// A Fiber is a function running on its own stack that its host thread
// switches into with resume() and that hands control back with suspend() or,
// for good, with exit(). Switching is glibc ucontext (swapcontext), with no
// hand-written assembly. The stack is one anonymous mapping per fiber whose
// lowest page is a PROT_NONE guard, so an overflow faults instead of
// corrupting a neighbour; it is unmapped when the Fiber is destroyed.
//
// Sanitizer builds annotate every switch: ThreadSanitizer learns each
// fiber's identity (__tsan_create_fiber / __tsan_switch_to_fiber, which also
// orders memory between the fibers of one thread) and AddressSanitizer the
// stack bounds it is switching to (__sanitizer_start/finish_switch_fiber).
// A fiber always ends with an explicit switch back to its host rather than
// returning through uc_link, which TSan does not survive.
#pragma once

#include <ucontext.h>

#include <cstddef>

namespace exareq::simmpi {

class Fiber {
 public:
  using Entry = void (*)(void* argument);

  /// Maps a stack of `stack_bytes` (rounded up to whole pages) plus a guard
  /// page. `entry(argument)` runs on the first resume(); when it returns the
  /// fiber exits. Throws exareq::Error when the stack cannot be mapped.
  Fiber(std::size_t stack_bytes, Entry entry, void* argument);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the calling context into the fiber; returns when the
  /// fiber suspends or exits. Must not be called on an exited fiber.
  void resume();

  /// Called on the fiber: switches back to the context that resumed it.
  /// Returns when the fiber is resumed again.
  void suspend();

 private:
  static void trampoline(unsigned high, unsigned low);
  [[noreturn]] void exit();

  Entry entry_;
  void* argument_;
  bool exited_ = false;

  void* mapping_ = nullptr;
  std::size_t mapping_bytes_ = 0;
  void* stack_bottom_ = nullptr;
  std::size_t stack_bytes_ = 0;

  ucontext_t context_{};  ///< the fiber's registers while it is suspended
  ucontext_t host_{};     ///< the resumer's registers while the fiber runs

  // Sanitizer bookkeeping; unused in plain builds.
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_bytes_ = 0;
};

}  // namespace exareq::simmpi
