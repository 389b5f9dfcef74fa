// Fixed worker pool with per-key FIFO serialization and bounded admission.
//
// The mixd concurrency model: commands of ONE session execute in submission
// order, one at a time (a DOM-VXD dialogue is inherently sequential — lazy
// mediators and buffers mutate per-session state), while DISTINCT sessions
// run in parallel across a fixed pool of workers. The executor realizes
// this with a two-level queue: per-key FIFOs plus a ready-list of keys that
// have runnable work; a worker claims a key, runs exactly one task, and
// requeues the key if more tasks arrived meanwhile.
//
// Overload is handled at admission: when the total number of queued tasks
// reaches the bound, Submit refuses with kUnavailable and the caller turns
// that into an error frame — the queue can never grow without limit and a
// slow session cannot wedge the service.
//
// Deadlines are checked when a task is dequeued: a task that waited past
// its deadline is *cancelled* — its callback runs immediately with
// kDeadlineExceeded and the session's work it would have done is skipped.
// (Tasks already executing are not interrupted; C++ offers no safe
// preemption, and one navigation command is short.)
//
// A caller already holding a request may run it itself instead of paying a
// hop to a worker: TryRunInline claims the key's lane when it is idle —
// nothing queued, nothing running — and runs the task on the calling
// thread. Tasks submitted for the key meanwhile queue behind it, so per-key
// FIFO order holds across inline and pooled runs.
#ifndef MIX_SERVICE_EXECUTOR_H_
#define MIX_SERVICE_EXECUTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/status.h"

namespace mix::service {

class Executor {
 public:
  /// A task receives its admission outcome: OK to do the work, or
  /// kDeadlineExceeded / kUnavailable to report and bail. The task MUST
  /// complete its request either way (it owns the response path).
  using Task = std::function<void(const Status& admission)>;

  struct Options {
    int workers = 4;
    size_t queue_capacity = 256;
  };

  struct Stats {
    int64_t accepted = 0;
    int64_t rejected = 0;   ///< refused at admission (queue full / stopping).
    int64_t expired = 0;    ///< dequeued past their deadline.
    int64_t executed = 0;   ///< ran with an OK admission status.
    int64_t queued = 0;     ///< tasks currently waiting.
    /// Runs on the caller's thread (TryRunInline); also counted in
    /// accepted and executed.
    int64_t inline_runs = 0;
  };

  explicit Executor(Options options);
  /// Drains: queued tasks run with a kUnavailable admission status (so
  /// blocked callers are released), then workers are joined.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues `task` under `key`. `deadline` of time_point::max() means
  /// none. Returns kUnavailable — WITHOUT enqueuing or running the task —
  /// when the admission queue is full or the executor is stopping.
  Status Submit(uint64_t key, std::chrono::steady_clock::time_point deadline,
                Task task);

  /// Runs `task()` on the calling thread when `key`'s lane is idle and the
  /// executor is not stopping; returns false without running it otherwise.
  /// While it runs, the lane is busy: other TryRunInline calls for `key`
  /// are refused and Submits for it queue until it returns.
  template <typename F>
  bool TryRunInline(uint64_t key, F&& task) {
    if (!ClaimLane(key)) return false;
    task();
    ReleaseLane(key);
    return true;
  }

  Stats stats() const;

 private:
  bool ClaimLane(uint64_t key);
  void ReleaseLane(uint64_t key);
  struct Item {
    std::chrono::steady_clock::time_point deadline;
    Task task;
  };
  struct KeyQueue {
    std::deque<Item> items;
    /// True while the key is in ready_ or a worker or an inline caller is
    /// running its task — the invariant that makes per-key execution
    /// serial. A key has an entry in queues_ exactly while it is scheduled.
    bool scheduled = false;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Options options_;
  std::unordered_map<uint64_t, KeyQueue> queues_;
  std::deque<uint64_t> ready_;
  size_t queued_total_ = 0;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace mix::service

#endif  // MIX_SERVICE_EXECUTOR_H_
