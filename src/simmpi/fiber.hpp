// Stackful fibers for the simmpi scheduler (runtime.hpp).
//
// A Fiber is a function running on its own stack that its host thread
// switches into with resume() and that hands control back with suspend() or,
// for good, with exit(). On x86-64 (System V) a switch is a short assembly
// routine in fiber.cpp: it pushes the callee-saved registers, MXCSR and the
// x87 control word onto the stack it leaves, swaps stack pointers and pops
// the same set from the stack it enters — no system call, unlike glibc's
// swapcontext, which also saves and restores the signal mask. Other targets
// switch with glibc ucontext. Either way each fiber keeps its own
// floating-point control state (rounding mode, exception masks). The stack
// is one anonymous mapping per fiber whose lowest page is a PROT_NONE guard,
// so an overflow faults instead of corrupting a neighbour; it is unmapped
// when the Fiber is destroyed.
//
// Sanitizer builds annotate every switch: ThreadSanitizer learns each
// fiber's identity (__tsan_create_fiber / __tsan_switch_to_fiber, which also
// orders memory between the fibers of one thread) and AddressSanitizer the
// stack bounds it is switching to (__sanitizer_start/finish_switch_fiber).
// A fiber always ends with an explicit switch back to its host rather than
// returning through uc_link, which TSan does not survive.
#pragma once

#include <cstddef>

// Defining EXAREQ_FIBER_REGISTER_SWITCH=0 selects the ucontext switch on
// x86-64 too, so that path can be built and tested there.
#if !defined(EXAREQ_FIBER_REGISTER_SWITCH)
#if defined(__x86_64__) && defined(__ELF__)
#define EXAREQ_FIBER_REGISTER_SWITCH 1
#else
#define EXAREQ_FIBER_REGISTER_SWITCH 0
#endif
#endif
#if !EXAREQ_FIBER_REGISTER_SWITCH
#include <ucontext.h>
#endif

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
#if EXAREQ_FIBER_REGISTER_SWITCH
  /// A saved context is a stack pointer: the switch routine keeps the
  /// registers on that stack.
  using Context = void*;
#else
  using Context = ucontext_t;
  static void trampoline(unsigned high, unsigned low);
#endif

  [[noreturn]] static void start(Fiber* fiber);
  [[noreturn]] void exit();

  Entry entry_;
  void* argument_;
  bool exited_ = false;

  void* mapping_ = nullptr;
  std::size_t mapping_bytes_ = 0;
  void* stack_bottom_ = nullptr;
  std::size_t stack_bytes_ = 0;

  Context context_{};  ///< the fiber's registers while it is suspended
  Context host_{};     ///< the resumer's registers while the fiber runs

  // Sanitizer bookkeeping; unused in plain builds.
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_bytes_ = 0;
};

}  // namespace exareq::simmpi
