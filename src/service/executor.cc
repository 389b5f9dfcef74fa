#include "service/executor.h"

#include "core/check.h"

namespace mix::service {

Executor::Executor(Options options) : options_(options) {
  MIX_CHECK(options_.workers >= 1);
  MIX_CHECK(options_.queue_capacity >= 1);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  std::vector<Task> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Strip out everything not yet claimed by a worker; their callers are
    // released below with kUnavailable, outside the lock.
    for (auto& [key, q] : queues_) {
      for (Item& item : q.items) orphans.push_back(std::move(item.task));
      q.items.clear();
    }
    queued_total_ = 0;
    ready_.clear();
  }
  cv_.notify_all();
  Status shutdown = Status::Unavailable("executor shutting down");
  for (Task& task : orphans) task(shutdown);
  for (std::thread& t : workers_) t.join();
}

Status Executor::Submit(uint64_t key,
                        std::chrono::steady_clock::time_point deadline,
                        Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ++stats_.rejected;
      return Status::Unavailable("executor shutting down");
    }
    if (queued_total_ >= options_.queue_capacity) {
      ++stats_.rejected;
      return Status::Unavailable("admission queue full (" +
                                 std::to_string(options_.queue_capacity) +
                                 " queued)");
    }
    KeyQueue& q = queues_[key];
    q.items.push_back(Item{deadline, std::move(task)});
    ++queued_total_;
    ++stats_.accepted;
    if (!q.scheduled) {
      q.scheduled = true;
      ready_.push_back(key);
    }
  }
  cv_.notify_one();
  return Status::OK();
}

bool Executor::ClaimLane(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return false;
  auto [it, idle] = queues_.try_emplace(key);
  if (!idle) return false;  // queued or running elsewhere
  it->second.scheduled = true;
  ++stats_.accepted;
  ++stats_.executed;
  ++stats_.inline_runs;
  return true;
}

void Executor::ReleaseLane(uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queues_.find(key);
    MIX_CHECK(it != queues_.end());
    if (it->second.items.empty()) {
      queues_.erase(it);
      return;
    }
    // Tasks for the key arrived while the caller ran; a worker takes over.
    ready_.push_back(key);
  }
  cv_.notify_one();
}

Executor::Stats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.queued = static_cast<int64_t>(queued_total_);
  return s;
}

void Executor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stopping_) return;
      continue;
    }
    uint64_t key = ready_.front();
    ready_.pop_front();
    auto it = queues_.find(key);
    MIX_CHECK(it != queues_.end() && !it->second.items.empty());
    Item item = std::move(it->second.items.front());
    it->second.items.pop_front();
    --queued_total_;
    bool expired = item.deadline != std::chrono::steady_clock::time_point::max()
                   && std::chrono::steady_clock::now() > item.deadline;
    if (expired) {
      ++stats_.expired;
    } else {
      ++stats_.executed;
    }
    lock.unlock();
    item.task(expired ? Status::DeadlineExceeded("request expired in queue")
                      : Status::OK());
    item.task = nullptr;  // destroy captured state outside the lock
    lock.lock();
    // Release the key: requeue if new tasks arrived while we ran, drop the
    // (empty) queue entry otherwise so the map stays bounded by live keys
    // (ReleaseLane does the same for inline runs).
    auto it2 = queues_.find(key);
    MIX_CHECK(it2 != queues_.end());
    if (it2->second.items.empty()) {
      queues_.erase(it2);
    } else {
      ready_.push_back(key);
      // More than one task may be waiting; this worker alone continues the
      // key, but another may be needed for other ready keys.
      cv_.notify_one();
    }
  }
}

}  // namespace mix::service
