#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "support/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if EXAREQ_FIBER_REGISTER_SWITCH

// void exareq_simmpi_switch(void** save, void* load)
//
// Pushes the System V callee-saved registers, then MXCSR and the x87
// control word, onto the current stack, stores the stack pointer in *save,
// loads `load` as the stack pointer and pops the same set from there. The
// `ret` returns into the context that was saved at `load`. Everything else
// the ABI lets a call clobber. The frame has the same shape on both sides,
// so the CFI describes whichever frame is current.
//
// exareq_simmpi_fiber_start is where a new fiber's first switch returns to:
// it calls r13(r12), which never returns, and marks the outermost frame of
// the fiber's stack for unwinders.
asm(".pushsection .text\n"
    ".globl exareq_simmpi_switch\n"
    ".hidden exareq_simmpi_switch\n"
    ".type exareq_simmpi_switch, @function\n"
    ".p2align 4\n"
    "exareq_simmpi_switch:\n"
    ".cfi_startproc\n"
    "  pushq %rbp\n"
    "  .cfi_adjust_cfa_offset 8\n"
    "  .cfi_rel_offset %rbp, 0\n"
    "  pushq %rbx\n"
    "  .cfi_adjust_cfa_offset 8\n"
    "  .cfi_rel_offset %rbx, 0\n"
    "  pushq %r12\n"
    "  .cfi_adjust_cfa_offset 8\n"
    "  .cfi_rel_offset %r12, 0\n"
    "  pushq %r13\n"
    "  .cfi_adjust_cfa_offset 8\n"
    "  .cfi_rel_offset %r13, 0\n"
    "  pushq %r14\n"
    "  .cfi_adjust_cfa_offset 8\n"
    "  .cfi_rel_offset %r14, 0\n"
    "  pushq %r15\n"
    "  .cfi_adjust_cfa_offset 8\n"
    "  .cfi_rel_offset %r15, 0\n"
    "  subq $16, %rsp\n"
    "  .cfi_adjust_cfa_offset 16\n"
    "  stmxcsr 8(%rsp)\n"
    "  fnstcw 12(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr 8(%rsp)\n"
    "  fldcw 12(%rsp)\n"
    "  addq $16, %rsp\n"
    "  .cfi_adjust_cfa_offset -16\n"
    "  popq %r15\n"
    "  .cfi_adjust_cfa_offset -8\n"
    "  .cfi_restore %r15\n"
    "  popq %r14\n"
    "  .cfi_adjust_cfa_offset -8\n"
    "  .cfi_restore %r14\n"
    "  popq %r13\n"
    "  .cfi_adjust_cfa_offset -8\n"
    "  .cfi_restore %r13\n"
    "  popq %r12\n"
    "  .cfi_adjust_cfa_offset -8\n"
    "  .cfi_restore %r12\n"
    "  popq %rbx\n"
    "  .cfi_adjust_cfa_offset -8\n"
    "  .cfi_restore %rbx\n"
    "  popq %rbp\n"
    "  .cfi_adjust_cfa_offset -8\n"
    "  .cfi_restore %rbp\n"
    "  ret\n"
    ".cfi_endproc\n"
    ".size exareq_simmpi_switch, .-exareq_simmpi_switch\n"
    "\n"
    ".globl exareq_simmpi_fiber_start\n"
    ".hidden exareq_simmpi_fiber_start\n"
    ".type exareq_simmpi_fiber_start, @function\n"
    ".p2align 4\n"
    "exareq_simmpi_fiber_start:\n"
    ".cfi_startproc\n"
    "  .cfi_undefined %rip\n"
    "  movq %r12, %rdi\n"
    "  callq *%r13\n"
    "  ud2\n"
    ".cfi_endproc\n"
    ".size exareq_simmpi_fiber_start, .-exareq_simmpi_fiber_start\n"
    ".popsection\n");

extern "C" {
__attribute__((visibility("hidden"))) void exareq_simmpi_switch(
    void** save, void* load) noexcept;
__attribute__((visibility("hidden"))) void exareq_simmpi_fiber_start();
}

#endif  // EXAREQ_FIBER_REGISTER_SWITCH

namespace exareq::simmpi {
namespace {

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

#if EXAREQ_FIBER_REGISTER_SWITCH
/// What exareq_simmpi_switch pops, lowest address first: a new fiber's
/// stack starts with one of these, whose `ret` enters the start routine.
struct SwitchFrame {
  std::uint64_t unused;
  std::uint32_t mxcsr;
  std::uint16_t x87_control;
  std::uint16_t padding;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  std::uint64_t return_address;
};
static_assert(sizeof(SwitchFrame) == 72, "must match exareq_simmpi_switch");

/// The start routine calls with the stack pointer this far below the top
/// of the stack, which keeps it 16-byte aligned as the ABI requires.
constexpr std::size_t kStartStackSlack = 16;

/// Saves the running context in *save and continues the one in *load.
inline void switch_context(void** save, void* const* load) {
  exareq_simmpi_switch(save, *load);
}
#else
inline void switch_context(ucontext_t* save, const ucontext_t* load) {
  swapcontext(save, load);
}
#endif

// Each switch is bracketed by these hooks, all no-ops in plain builds:
//   before_switch(target)  immediately before the switch (TSan, ASan)
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
#if defined(__SANITIZE_ADDRESS__)
  // The mapping may reuse the addresses of an earlier fiber's stack, whose
  // abandoned frames left their redzones poisoned.
  __asan_unpoison_memory_region(stack_bottom_, stack_bytes_);
#endif

#if EXAREQ_FIBER_REGISTER_SWITCH
  char* const top = static_cast<char*>(stack_bottom_) + stack_bytes_;
  auto* frame = new (top - kStartStackSlack - sizeof(SwitchFrame)) SwitchFrame{};
  // A fiber starts with its creator's floating-point control state.
  asm volatile("stmxcsr %0" : "=m"(frame->mxcsr));
  asm volatile("fnstcw %0" : "=m"(frame->x87_control));
  frame->r13 = reinterpret_cast<std::uint64_t>(&Fiber::start);
  frame->r12 = reinterpret_cast<std::uint64_t>(this);
  frame->return_address =
      reinterpret_cast<std::uint64_t>(&exareq_simmpi_fiber_start);
  context_ = frame;
#else
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_bottom_;
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;  // the fiber ends in exit(), never by returning
  // makecontext passes int-sized arguments only: split `this` in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xFFFFFFFFu));
#endif
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

#if !EXAREQ_FIBER_REGISTER_SWITCH
void Fiber::trampoline(unsigned high, unsigned low) {
  start(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(high) << 32) |
                                 static_cast<std::uintptr_t>(low)));
}
#endif

void Fiber::start(Fiber* fiber) {
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
  switch_context(&host_, &context_);
  after_switch(host_fake_stack, nullptr, nullptr);
}

void Fiber::suspend() {
  before_switch(tsan_host_, &asan_fake_stack_, host_stack_bottom_,
                host_stack_bytes_);
  switch_context(&context_, &host_);
  after_switch(asan_fake_stack_, &host_stack_bottom_, &host_stack_bytes_);
}

void Fiber::exit() {
  exited_ = true;
  before_switch(tsan_host_, nullptr, host_stack_bottom_, host_stack_bytes_);
  switch_context(&context_, &host_);
  std::abort();  // an exited fiber is never resumed
}

}  // namespace exareq::simmpi
