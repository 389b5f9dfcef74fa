// Async fill primitive for the LXP wrapper boundary.
//
// `FillFuture` is the completion handle for one in-flight FillMany
// exchange. A wrapper's BeginFillMany returns it immediately; the transport
// (or the sync shim) completes it exactly once with the Status and response
// list. Waiters block on a condvar; completion callbacks fire inline on the
// completing thread.
//
// It is the one seam all run-ahead goes through: the buffer's readahead
// window (BufferComponent::Options::max_in_flight) holds these futures, and
// the paper's wrapper push (Section 4: "the wrapper can prefetch data from
// the source and fill in previously left open holes") is a native-async
// wrapper completing a readahead future before the buffer asks for it.
// Over the sync shim a future is already resolved when BeginFillMany
// returns, so the window is deterministic there.
//
// The future is self-contained shared state (no back-pointers), which is
// the whole cancellation story: dropping your reference *is* cancelling.
#ifndef MIX_BUFFER_ASYNC_FILL_H_
#define MIX_BUFFER_ASYNC_FILL_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "buffer/lxp.h"
#include "core/status.h"

namespace mix::buffer {

/// Completion handle for one in-flight fill exchange. Created by
/// LxpWrapper::BeginFill/BeginFillMany; completed exactly once by whoever
/// owns the exchange (sync shim or transport dispatch thread).
///
/// Thread-safe. `Complete` is idempotent-hostile by contract: a second call
/// is ignored (first writer wins) so a transport failing all pending
/// futures in its destructor cannot double-complete one that raced a
/// response.
class FillFuture {
 public:
  using Callback = std::function<void(const Status&, const HoleFillList&)>;

  /// Completes the future with `status` and `fills`, wakes all waiters and
  /// fires any registered callback inline. The callback reads a copy of its
  /// own, so a waiter moving the list out cannot race it. Calls after the
  /// first are no-ops.
  void Complete(Status status, HoleFillList fills);

  /// Blocks until completed; returns the status. `out` (optional) receives
  /// the response list by move on first Wait — a second Wait returns the
  /// same status but an empty list.
  Status Wait(HoleFillList* out);

  /// True once completed (non-blocking).
  bool Ready() const;

  /// Registers a callback fired on completion (inline, on the completing
  /// thread). If the future is already complete, fires immediately on the
  /// calling thread — with an empty list if a Wait() already took it. At
  /// most one callback; later registrations replace an unfired one.
  void OnComplete(Callback cb);

  /// Convenience: a future already completed with `status`/`fills` — the
  /// sync shim's return value.
  static std::shared_ptr<FillFuture> Resolved(Status status,
                                              HoleFillList fills);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_;
  HoleFillList fills_;
  Callback callback_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_ASYNC_FILL_H_
