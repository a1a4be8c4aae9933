#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace exareq::simmpi {
namespace {

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// Each switch is bracketed by these hooks, all no-ops in plain builds:
//   before_switch(target)  immediately before swapcontext (TSan, ASan)
//   after_switch()         first thing in the context that was switched to
// `fake_stack` is the ASan save slot of the context being left; nullptr
// tells ASan that the context is gone for good.

inline void before_switch([[maybe_unused]] void* tsan_target,
                          [[maybe_unused]] void** fake_stack,
                          [[maybe_unused]] const void* stack_bottom,
                          [[maybe_unused]] std::size_t stack_bytes) {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_target, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack, stack_bottom, stack_bytes);
#endif
}

inline void after_switch([[maybe_unused]] void* fake_stack,
                         [[maybe_unused]] const void** previous_bottom,
                         [[maybe_unused]] std::size_t* previous_bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, previous_bottom, previous_bytes);
#endif
}

}  // namespace

Fiber::Fiber(std::size_t stack_bytes, Entry entry, void* argument)
    : entry_(entry), argument_(argument) {
  exareq::require(entry != nullptr, "Fiber: null entry function");
  const std::size_t page = page_bytes();
  stack_bytes_ = (stack_bytes + page - 1) / page * page;
  mapping_bytes_ = stack_bytes_ + page;
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping_ == MAP_FAILED) {
    mapping_ = nullptr;
    throw exareq::Error(std::string("Fiber: cannot map a stack: ") +
                        std::strerror(errno));
  }
  // Stacks grow down, so the guard page sits below the lowest usable byte.
  if (mprotect(mapping_, page, PROT_NONE) != 0) {
    munmap(mapping_, mapping_bytes_);
    mapping_ = nullptr;
    throw exareq::Error(std::string("Fiber: cannot protect a guard page: ") +
                        std::strerror(errno));
  }
  stack_bottom_ = static_cast<char*>(mapping_) + page;

  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_bottom_;
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // the fiber ends in exit(), never by returning
  // makecontext passes int-sized arguments only: split `this` in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xFFFFFFFFu));
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (mapping_ != nullptr) munmap(mapping_, mapping_bytes_);
}

void Fiber::trampoline(unsigned high, unsigned low) {
  auto* fiber = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(high) << 32) |
      static_cast<std::uintptr_t>(low));
  // First entry: nothing to restore, but learn the host's stack bounds.
  after_switch(nullptr, &fiber->host_stack_bottom_,
               &fiber->host_stack_bytes_);
  fiber->entry_(fiber->argument_);
  fiber->exit();
}

void Fiber::resume() {
  exareq::require(!exited_, "Fiber::resume: the fiber has exited");
#if defined(__SANITIZE_THREAD__)
  tsan_host_ = __tsan_get_current_fiber();
#endif
  void* host_fake_stack = nullptr;
  before_switch(tsan_fiber_, &host_fake_stack, stack_bottom_, stack_bytes_);
  swapcontext(&host_, &context_);
  after_switch(host_fake_stack, nullptr, nullptr);
}

void Fiber::suspend() {
  before_switch(tsan_host_, &asan_fake_stack_, host_stack_bottom_,
                host_stack_bytes_);
  swapcontext(&context_, &host_);
  after_switch(asan_fake_stack_, &host_stack_bottom_, &host_stack_bytes_);
}

void Fiber::exit() {
  exited_ = true;
  before_switch(tsan_host_, nullptr, host_stack_bottom_, host_stack_bytes_);
  setcontext(&host_);
  std::abort();  // setcontext only returns on failure
}

}  // namespace exareq::simmpi
