#include "buffer/async_fill.h"

namespace mix::buffer {

void FillFuture::Complete(Status status, HoleFillList fills) {
  Callback cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;  // first writer wins
    done_ = true;
    status_ = status;
    cb = std::move(callback_);
    callback_ = nullptr;
    // The callback runs after waiters wake, and a waiter moves fills_ out:
    // the callback gets the arguments, which no waiter can reach.
    if (cb) {
      fills_ = fills;
    } else {
      fills_ = std::move(fills);
    }
  }
  cv_.notify_all();
  if (cb) cb(status, fills);
}

Status FillFuture::Wait(HoleFillList* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  if (out != nullptr) *out = std::move(fills_);
  return status_;
}

bool FillFuture::Ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void FillFuture::OnComplete(Callback cb) {
  Status status;
  HoleFillList fills;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!done_) {
      callback_ = std::move(cb);
      return;
    }
    // Already complete: fire on the caller's thread, with a copy taken
    // under the lock — a concurrent Wait() may move fills_ out.
    status = status_;
    fills = fills_;
  }
  cb(status, fills);
}

std::shared_ptr<FillFuture> FillFuture::Resolved(Status status,
                                                 HoleFillList fills) {
  auto f = std::make_shared<FillFuture>();
  f->Complete(std::move(status), std::move(fills));
  return f;
}

}  // namespace mix::buffer
