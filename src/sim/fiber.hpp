// Stackful cooperative fibers with a register-only context switch.
//
// The virtual-time engine runs every simulated process ("rank") as a fiber
// inside a single OS thread: execution is therefore deterministic, and
// thousands of ranks cost only their stacks.
//
// A switch is a few lines of assembly (fiber.cpp) that push the
// callee-saved state onto the current stack, store the stack pointer, load
// the other side's stack pointer and pop its state. Caller-saved registers
// are already spilled by the compiler around the opaque call. The saved
// state is:
//   * x86-64 (SysV): rbx, rbp, r12-r15, rsp, MXCSR and the x87 control word;
//   * aarch64:       x19-x29, lr, sp, d8-d15 and FPCR.
// Each fiber therefore keeps its own rounding mode and FP exception masks.
// Other architectures are rejected at compile time.
//
// This replaced glibc's swapcontext, which also saves and restores the
// signal mask: an rt_sigprocmask syscall on every switch. Idle ranks
// poll the scheduler constantly, so that syscall dominated: a resume/yield
// round trip cost ~690 ns with swapcontext against ~42 ns with this switch
// (GCC 12 -O2, 4-core x86-64 Xeon VM).
//
// Each stack is its own mapping with a PROT_NONE guard page at the low
// end, so overrunning it ends in SIGSEGV instead of corrupting a neighbour.
// Under AddressSanitizer every switch is announced through the sanitizer
// fiber API.
#pragma once

#include <cstddef>
#include <functional>

namespace scioto::sim {

/// A single fiber: a function plus a private stack, cooperatively switched
/// against a host (scheduler) context.
class Fiber {
 public:
  /// `fn` runs when the fiber is first resumed. `stack_bytes` is the fiber
  /// stack size; UTS and the apps use explicit work stacks, so 256 KiB is
  /// ample by default.
  Fiber(std::function<void()> fn, std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the host context into this fiber. Returns when the fiber
  /// yields or finishes.
  void resume();

  /// Called from inside the fiber: switch back to the host context.
  void yield();

  /// True once fn has returned.
  bool finished() const { return finished_; }

 private:
  [[noreturn]] static void entry(Fiber* self) noexcept;

  std::function<void()> fn_;
  void* map_ = nullptr;  // guard page followed by the stack
  std::size_t map_bytes_ = 0;
  void* sp_ = nullptr;       // the fiber's stack pointer while suspended
  void* host_sp_ = nullptr;  // the host's stack pointer while the fiber runs
  bool finished_ = false;
  // AddressSanitizer bookkeeping, unused otherwise: each side's fake stack
  // and the bounds of the host stack the fiber switches back to.
  void* host_fake_stack_ = nullptr;
  void* fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_bytes_ = 0;
};

}  // namespace scioto::sim
