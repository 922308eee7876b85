#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "base/error.hpp"
#include "base/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SCIOTO_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCIOTO_FIBER_ASAN 1
#endif
#endif

#ifdef SCIOTO_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// scioto_fiber_switch(save, load) pushes the callee-saved state, stores the
// stack pointer to *save, makes `load` the stack pointer and pops the state
// saved there. A new fiber's stack starts with a SwitchFrame whose return
// address is scioto_fiber_trampoline, which calls Fiber::entry(this) with
// both taken from callee-saved registers of that frame. The trampoline's
// CFI marks the return address undefined, so unwinders stop there.
extern "C" void scioto_fiber_switch(void** save, void* load);
extern "C" void scioto_fiber_trampoline();

#if defined(__x86_64__)
asm(R"(
  .pushsection .text
  .globl scioto_fiber_switch
  .hidden scioto_fiber_switch
  .type scioto_fiber_switch, @function
  .p2align 4
scioto_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  fnstcw (%rsp)
  stmxcsr 8(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size scioto_fiber_switch, .-scioto_fiber_switch

  .globl scioto_fiber_trampoline
  .hidden scioto_fiber_trampoline
  .type scioto_fiber_trampoline, @function
  .p2align 4
scioto_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  andq $-16, %rsp
  callq *%r13
  ud2
  .cfi_endproc
  .size scioto_fiber_trampoline, .-scioto_fiber_trampoline
  .popsection
)");
#elif defined(__aarch64__)
asm(R"(
  .pushsection .text
  .globl scioto_fiber_switch
  .hidden scioto_fiber_switch
  .type scioto_fiber_switch, %function
  .p2align 4
scioto_fiber_switch:
  sub sp, sp, #176
  stp x19, x20, [sp, #0]
  stp x21, x22, [sp, #16]
  stp x23, x24, [sp, #32]
  stp x25, x26, [sp, #48]
  stp x27, x28, [sp, #64]
  stp x29, x30, [sp, #80]
  stp d8, d9, [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mrs x9, fpcr
  str x9, [sp, #160]
  mov x9, sp
  str x9, [x0]
  mov sp, x1
  ldp x19, x20, [sp, #0]
  ldp x21, x22, [sp, #16]
  ldp x23, x24, [sp, #32]
  ldp x25, x26, [sp, #48]
  ldp x27, x28, [sp, #64]
  ldp x29, x30, [sp, #80]
  ldp d8, d9, [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  ldr x9, [sp, #160]
  msr fpcr, x9
  add sp, sp, #176
  ret
  .size scioto_fiber_switch, .-scioto_fiber_switch

  .globl scioto_fiber_trampoline
  .hidden scioto_fiber_trampoline
  .type scioto_fiber_trampoline, %function
  .p2align 4
scioto_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined x30
  mov x0, x19
  mov x9, sp
  and x9, x9, #0xfffffffffffffff0
  mov sp, x9
  blr x20
  brk #0
  .cfi_endproc
  .size scioto_fiber_trampoline, .-scioto_fiber_trampoline
  .popsection
)");
#else
#error "sim/fiber.cpp: no register-only context switch for this architecture; only x86-64 and aarch64 are supported"
#endif

namespace scioto::sim {
namespace {

using Entry = void (*)(Fiber*);

// The frame scioto_fiber_switch pops, lowest address first.
#if defined(__x86_64__)
struct SwitchFrame {
  std::uint64_t x87_cw;  // fnstcw/fldcw use the low 16 bits
  std::uint64_t mxcsr;   // stmxcsr/ldmxcsr use the low 32 bits
  std::uint64_t r15, r14;
  Entry r13;
  Fiber* r12;
  std::uint64_t rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 72);

SwitchFrame initial_frame(Fiber* self, Entry entry) {
  std::uint16_t cw = 0;
  std::uint32_t csr = 0;
  asm volatile("fnstcw %0" : "=m"(cw));
  asm volatile("stmxcsr %0" : "=m"(csr));
  SwitchFrame f{};
  f.x87_cw = cw;
  f.mxcsr = csr;
  f.r13 = entry;
  f.r12 = self;
  f.ret = &scioto_fiber_trampoline;
  return f;
}
#else
struct SwitchFrame {
  Fiber* x19;
  Entry x20;
  std::uint64_t x21_x28[8];
  std::uint64_t x29;
  void (*x30)();
  std::uint64_t d8_d15[8];
  std::uint64_t fpcr;
  std::uint64_t pad;
};
static_assert(sizeof(SwitchFrame) == 176);

SwitchFrame initial_frame(Fiber* self, Entry entry) {
  std::uint64_t fpcr = 0;
  asm volatile("mrs %0, fpcr" : "=r"(fpcr));
  SwitchFrame f{};
  f.x19 = self;
  f.x20 = entry;
  f.x30 = &scioto_fiber_trampoline;
  f.fpcr = fpcr;
  return f;
}
#endif

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

#ifdef SCIOTO_FIBER_ASAN
void start_switch(void** fake_stack, const void* bottom, std::size_t bytes) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, bytes);
}
void finish_switch(void* fake_stack, const void** bottom, std::size_t* bytes) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom, bytes);
}
#else
void start_switch(void**, const void*, std::size_t) {}
void finish_switch(void*, const void**, std::size_t*) {}
#endif

}  // namespace

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : fn_(std::move(fn)) {
  SCIOTO_REQUIRE(stack_bytes >= 16 * 1024,
                 "fiber stack too small: " << stack_bytes);
  const std::size_t page = page_bytes();
  const std::size_t bytes = page + align_up(stack_bytes, page);
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  SCIOTO_REQUIRE(map != MAP_FAILED, "cannot map a " << bytes
                                        << "-byte fiber stack: "
                                        << std::strerror(errno));
  map_ = map;
  map_bytes_ = bytes;
  SCIOTO_CHECK_MSG(mprotect(map_, page, PROT_NONE) == 0,
                   "cannot guard a fiber stack: " << std::strerror(errno));
  // The mapping ends page-aligned, hence 16-byte aligned, and SwitchFrame
  // is sized so the stack pointer lands exactly there after the pops.
  sp_ = new (static_cast<char*>(map_) + bytes - sizeof(SwitchFrame))
      SwitchFrame(initial_frame(this, &Fiber::entry));
}

Fiber::~Fiber() {
  // A fiber destroyed mid-flight simply abandons its stack; the engine
  // guarantees fibers are either finished or never started at teardown.
#ifdef SCIOTO_FIBER_ASAN
  // Frames that never returned (entry's, at least) leave poisoned shadow
  // that a later mapping of these addresses must not inherit.
  __asan_unpoison_memory_region(static_cast<char*>(map_) + page_bytes(),
                                map_bytes_ - page_bytes());
#endif
  munmap(map_, map_bytes_);
}

void Fiber::entry(Fiber* self) noexcept {
  finish_switch(nullptr, &self->host_stack_bottom_, &self->host_stack_bytes_);
  self->fn_();
  self->finished_ = true;
  start_switch(nullptr, self->host_stack_bottom_, self->host_stack_bytes_);
  scioto_fiber_switch(&self->sp_, self->host_sp_);
  std::abort();  // a finished fiber is never resumed
}

void Fiber::resume() {
  SCIOTO_CHECK(!finished_);
  start_switch(&host_fake_stack_, static_cast<char*>(map_) + page_bytes(),
               map_bytes_ - page_bytes());
  scioto_fiber_switch(&host_sp_, sp_);
  finish_switch(host_fake_stack_, nullptr, nullptr);
}

void Fiber::yield() {
  start_switch(&fake_stack_, host_stack_bottom_, host_stack_bytes_);
  scioto_fiber_switch(&sp_, host_sp_);
  finish_switch(fake_stack_, &host_stack_bottom_, &host_stack_bytes_);
}

}  // namespace scioto::sim
