// Deterministic simulated transport.
//
// Section 4 argues that node-at-a-time navigation over a network incurs a
// packet per command, and that bulk transfers (chunked LXP fills) cut the
// overhead. The paper's testbed is real sockets; we substitute a virtual
// clock with per-message and per-byte costs so that the benchmark harness
// reproduces the *shape* of those claims deterministically (DESIGN.md,
// substitution table).
#ifndef MIX_NET_SIM_NET_H_
#define MIX_NET_SIM_NET_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

namespace mix::net {

/// Saturating virtual-time arithmetic: adversarial payload sizes (or a
/// saturated clock advanced again) must pin at the int64 extremes, not wrap
/// — signed overflow is UB and a wrapped virtual clock runs backwards.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return a < 0 ? std::numeric_limits<int64_t>::min()
                 : std::numeric_limits<int64_t>::max();
  }
  return out;
}

inline int64_t SaturatingMul(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_mul_overflow(a, b, &out)) {
    return ((a < 0) != (b < 0)) ? std::numeric_limits<int64_t>::min()
                                : std::numeric_limits<int64_t>::max();
  }
  return out;
}

/// Monotonic virtual clock, advanced by simulated activity. Saturates at
/// INT64_MAX instead of wrapping (negative advances are clamped to 0).
///
/// Thread-safe: the counter is atomic and Advance is a CAS loop (plain
/// fetch_add could wrap past the saturation point), so concurrent advances
/// and reads never race.
class SimClock {
 public:
  int64_t now_ns() const { return now_ns_.load(std::memory_order_relaxed); }
  void Advance(int64_t ns) {
    if (ns < 0) ns = 0;
    int64_t cur = now_ns_.load(std::memory_order_relaxed);
    while (!now_ns_.compare_exchange_weak(cur, SaturatingAdd(cur, ns),
                                          std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<int64_t> now_ns_{0};
};

/// Cost model of one mediator↔wrapper link.
struct ChannelOptions {
  /// Fixed cost per message (request or response) — models RTT/packet cost.
  int64_t latency_per_message_ns = 500'000;  // 0.5 ms
  /// Marginal cost per payload byte — models bandwidth (~100 MB/s default).
  int64_t ns_per_byte = 10;
};

struct ChannelStats {
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t busy_ns = 0;
  /// Coalesced sends (SendBatch calls) and the logical parts they carried.
  /// Messages saved by batching = batched_parts - batches.
  int64_t batches = 0;
  int64_t batched_parts = 0;

  /// Counter-wise accumulation — aggregating per-session link stats into a
  /// service-wide snapshot.
  ChannelStats& operator+=(const ChannelStats& o);

  std::string ToString() const;
};

/// A half-duplex message channel with accounting. `Send` models one message
/// of `payload_bytes` crossing the link: it advances the clock and updates
/// the stats. A request/response exchange is two Sends.
///
/// A null SimClock is explicitly supported: the channel still counts
/// messages/bytes/busy time, it just cannot advance a shared clock — an
/// accounting-only link.
///
/// Thread-safe: counters are atomics so concurrent senders never race;
/// `stats()` therefore returns a snapshot by value (individual counters are
/// each consistent; cross-counter invariants may be mid-update under
/// concurrent senders).
class Channel {
 public:
  Channel(SimClock* clock, ChannelOptions options)
      : clock_(clock), options_(options) {}

  void Send(int64_t payload_bytes);

  /// Coalesced send: `parts` logical payloads crossing the link as ONE
  /// message — pays the per-message latency once plus the byte cost of the
  /// combined payload. This is the wire-level shape of a FillMany exchange.
  void SendBatch(int64_t payload_bytes, int64_t parts);

  ChannelStats stats() const {
    ChannelStats out;
    out.messages = messages_.load(std::memory_order_relaxed);
    out.bytes = bytes_.load(std::memory_order_relaxed);
    out.busy_ns = busy_ns_.load(std::memory_order_relaxed);
    out.batches = batches_.load(std::memory_order_relaxed);
    out.batched_parts = batched_parts_.load(std::memory_order_relaxed);
    return out;
  }
  void ResetStats() {
    messages_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    busy_ns_.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
    batched_parts_.store(0, std::memory_order_relaxed);
  }

 private:
  static void SaturatingFetchAdd(std::atomic<int64_t>* counter, int64_t v);

  SimClock* clock_;
  ChannelOptions options_;
  std::atomic<int64_t> messages_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batched_parts_{0};
};

}  // namespace mix::net

#endif  // MIX_NET_SIM_NET_H_
