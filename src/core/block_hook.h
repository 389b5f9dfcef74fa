// Thread-local "about to block" hook.
//
// Code about to block its thread on a source — a wrapper exchange, a wait
// on a readahead flight, the teardown of a session's source transports —
// calls NotifyBeforeBlock() first. A thread that must not block while it
// holds a shared duty installs a hook for the duration, and the hook hands
// that duty to another thread before the wait begins. The TCP event loop is
// the user: it runs a session command inline and, on the first
// NotifyBeforeBlock(), passes the loop to its standby thread
// (net/tcp/tcp_server.cc). A thread without a hook pays one thread-local
// load per call.
#ifndef MIX_CORE_BLOCK_HOOK_H_
#define MIX_CORE_BLOCK_HOOK_H_

namespace mix {

class BlockHook {
 public:
  /// Runs on the hooked thread before each blocking wait. Called once per
  /// wait, so it should be cheap after its first call.
  virtual void BeforeBlock() = 0;

 protected:
  ~BlockHook() = default;
};

namespace internal {
inline thread_local BlockHook* current_block_hook = nullptr;
}  // namespace internal

/// Installs `hook` on the calling thread for this object's lifetime; the
/// hook installed before it (if any) is restored on destruction.
class ScopedBlockHook {
 public:
  explicit ScopedBlockHook(BlockHook* hook)
      : previous_(internal::current_block_hook) {
    internal::current_block_hook = hook;
  }
  ~ScopedBlockHook() { internal::current_block_hook = previous_; }

  ScopedBlockHook(const ScopedBlockHook&) = delete;
  ScopedBlockHook& operator=(const ScopedBlockHook&) = delete;

 private:
  BlockHook* previous_;
};

/// Calls the calling thread's hook, if one is installed.
inline void NotifyBeforeBlock() {
  if (BlockHook* hook = internal::current_block_hook) hook->BeforeBlock();
}

}  // namespace mix

#endif  // MIX_CORE_BLOCK_HOOK_H_
