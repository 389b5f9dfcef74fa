// Async fill primitives for the LXP wrapper boundary.
//
// The paper's Section 6 names asynchronous prefetching as the planned
// optimization for navigation-driven evaluation; until this layer existed
// the repo only *modeled* overlap (a second channel charged to a null
// clock). These types make the overlap real:
//
//  - `FillFuture` is the completion handle for one in-flight FillMany
//    exchange. A wrapper's BeginFillMany returns it immediately; the
//    transport (or a sync shim) completes it exactly once with the Status
//    and response list. Waiters block on a condvar; completion callbacks
//    fire inline on the completing thread.
//
//  - `PushMailbox` is the cancellation-safe landing channel for background
//    prefetch results. The service-level prefetcher holds only a
//    shared_ptr to the mailbox — never to the session or buffer — so a
//    session can close while fills are in flight: Close() flips the box
//    and later deliveries are dropped on the floor instead of touching
//    freed buffers. The owning BufferComponent drains the box at command
//    boundaries through the validated-splice path (ApplyPushedFill).
//
// Both types are self-contained shared state (no back-pointers), which is
// the whole cancellation story: dropping your reference *is* cancelling.
#ifndef MIX_BUFFER_ASYNC_FILL_H_
#define MIX_BUFFER_ASYNC_FILL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "buffer/lxp.h"
#include "core/status.h"

namespace mix::buffer {

/// Completion handle for one in-flight fill exchange. Created by
/// LxpWrapper::BeginFill/BeginFillMany; completed exactly once by whoever
/// owns the exchange (sync shim, transport dispatch thread, worker pool).
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

/// One background-prefetch delivery: the hole it refines plus the validated
/// candidate fragments (validation still happens again at splice time, on
/// the owning buffer's thread — the mailbox trusts nothing).
struct PushedFill {
  std::string hole_id;
  FragmentList fragments;
};

/// Thread-safe queue of background fill results with a closed latch.
/// Producers (prefetch workers) Deliver; the single consumer (the owning
/// BufferComponent, on its session thread) drains at command boundaries.
/// Close() is the cancellation point: post-close deliveries are dropped.
class PushMailbox {
 public:
  /// Enqueues a delivery; returns false (dropping it) once closed or when
  /// the box already holds `kMaxPending` undrained fills — a slow consumer
  /// must bound producer memory, not grow without limit.
  bool Deliver(PushedFill fill);

  /// Moves out every pending delivery (empty once closed).
  std::vector<PushedFill> Drain();

  /// Closes the box and discards pending deliveries. Idempotent.
  void Close();

  bool closed() const;
  int64_t delivered() const;
  int64_t dropped() const;

  static constexpr size_t kMaxPending = 256;

 private:
  mutable std::mutex mu_;
  bool closed_ = false;
  std::deque<PushedFill> pending_;
  int64_t delivered_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_ASYNC_FILL_H_
