// Service metrics: per-session and service-wide observability for mixd.
//
// Counters are aggregated under the service's mutexes and exported as
// plain-value snapshots, so readers never hold a lock while formatting and
// a snapshot is internally consistent. Request latencies go into a
// log-linear histogram — constant space, and a quoted p50/p99 is within
// 1/16 of the sample it stands for.
#ifndef MIX_SERVICE_METRICS_H_
#define MIX_SERVICE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/navigable.h"
#include "net/sim_net.h"

namespace mix::service {

/// Log-linear latency histogram: each power of two [2^e, 2^(e+1)) is split
/// into kSubBuckets equal-width buckets, and values below kSubBuckets get
/// one bucket each, so a bucket is never wider than 1/8 of its lower bound.
/// Samples of 2^kMaxExponent ns (~73 min) and more share the last bucket.
/// Fixed size, no allocation; histograms merge bucket by bucket, exactly.
class LatencyHistogram {
 public:
  void Record(int64_t ns);
  int64_t count() const { return count_; }
  /// Midpoint of the bucket holding the p-th percentile sample (p in [0,1];
  /// nearest rank floor(p * (count - 1))), so within 1/16 of that sample
  /// (exact below 16 ns); 0 when empty.
  int64_t PercentileNs(double p) const;
  LatencyHistogram& operator+=(const LatencyHistogram& o);

 private:
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kMaxExponent = 42;
  /// Values 0..kSubBuckets-1, then kSubBuckets per exponent kSubBits to
  /// kMaxExponent-1.
  static constexpr int kBuckets =
      kSubBuckets + (kMaxExponent - kSubBits) * kSubBuckets;
  static int BucketOf(int64_t ns);
  /// Middle value of bucket `b` (its only value when the width is 1).
  static int64_t BucketMid(int b);

  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
};

/// Per-session counters, owned by the session and mutated only while its
/// (executor-serialized) commands run.
struct SessionMetrics {
  int64_t requests = 0;
  int64_t errors = 0;
  /// LXP traffic of this session's buffered sources (demand channel).
  net::ChannelStats lxp;
  int64_t fills = 0;
  /// Fault handling on this session's sources: failed wrapper exchanges,
  /// retries issued, virtual backoff time spent, holes degraded to
  /// unavailable nodes.
  int64_t source_faults = 0;
  int64_t source_retries = 0;
  int64_t source_backoff_ns = 0;
  int64_t degraded_holes = 0;
  /// Shared-fragment-cache traffic of this session's buffers: fills
  /// answered from the cache vs. lookups that went to the wrapper.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Optimizer rewrites applied to this session's compiled plan (from the
  /// plan-cache entry's report, so a cache hit reports the original
  /// compile's rewrites; 0 when the optimizer is off or changed nothing).
  int64_t plan_rewrites = 0;
  /// 1 when this session is served from a cached answer view (zero
  /// wrapper exchanges by construction).
  int64_t view_served = 0;
  /// Readahead window (DESIGN.md §4 "Async fill engine"): flights issued
  /// / holes they asked for / flights consumed / fills those spliced (a
  /// flight's holes plus the continuations it chased) / flights fallen back
  /// to the demand path / flights dropped unread because another path
  /// filled one of their holes first.
  int64_t readahead_issued = 0;
  int64_t readahead_holes = 0;
  int64_t readahead_hits = 0;
  int64_t readahead_fills = 0;
  int64_t readahead_fallbacks = 0;
  int64_t readahead_orphaned = 0;

  std::string ToString() const;
};

/// Listener/connection counters of a real network transport hosting the
/// service (src/net/tcp). Produced as a plain-value snapshot by the
/// transport (its internals are atomics bumped from reactor and worker
/// threads); all zeros when the service runs in-process/sim only.
struct NetStats {
  int64_t accepts = 0;            ///< connections ever accepted
  int64_t conns_active = 0;       ///< currently open connections
  int64_t conns_closed = 0;       ///< closed, any reason
  int64_t rx_bytes = 0;           ///< bytes read off sockets
  int64_t tx_bytes = 0;           ///< bytes written to sockets
  int64_t frames_in = 0;          ///< whole request frames reassembled
  int64_t frames_out = 0;         ///< response frames released to the wire
  int64_t partial_reads = 0;      ///< read events ending in a partial frame
  int64_t backpressure_stalls = 0;  ///< flushes that left bytes queued
  int64_t slow_reader_closes = 0;   ///< disconnects at the write high-water
  int64_t idle_closes = 0;          ///< idle-timeout disconnects
  int64_t decode_closes = 0;        ///< garbled-header disconnects
  int64_t read_pauses = 0;          ///< reads paused at the pipeline bound

  std::string ToString() const;
};

/// Service-wide snapshot; every field is a copy.
struct ServiceMetricsSnapshot {
  /// Which fleet member produced this snapshot ("" outside a fleet). Set
  /// from MediatorService::Options::backend_id so a router aggregating
  /// kMetrics responses can attribute them.
  std::string backend_id;
  // Session registry.
  int64_t sessions_open = 0;
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  int64_t sessions_evicted = 0;
  /// Opens answered from a live session via idempotency token (failover
  /// replays re-attaching instead of leaking duplicates).
  int64_t sessions_open_replays = 0;
  /// Full-registry eviction scans the session registry actually paid.
  int64_t registry_sweep_scans = 0;
  // Admission / execution.
  int64_t requests_ok = 0;
  int64_t requests_error = 0;
  int64_t requests_rejected = 0;   ///< kUnavailable at admission.
  int64_t requests_expired = 0;    ///< kDeadlineExceeded before running.
  /// Requests run on the thread that received them (a TCP event loop, a
  /// RoundTrip caller) instead of an executor worker.
  int64_t requests_inline = 0;
  int64_t queue_depth = 0;
  // Wire accounting (frames crossing the service boundary).
  int64_t frames_in = 0;
  int64_t frames_out = 0;
  // Latency over completed requests (admission to response).
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  // Fault handling, aggregated across all sessions ever built (survives
  // session close/eviction — these come from the service's FaultCounters,
  // not from per-session sweeps).
  int64_t source_faults = 0;
  int64_t source_retries = 0;
  int64_t source_backoff_ns = 0;
  int64_t degraded_holes = 0;
  // Shared source-fragment cache (process-wide, all sessions).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_bytes = 0;
  int64_t cache_entries = 0;
  /// Byte high-water mark the fragment cache ever reached.
  int64_t cache_peak_bytes = 0;
  // Compiled-plan cache (session-open path).
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  // Plan optimizer (runs inside the plan cache on fresh compiles).
  int64_t plans_optimized = 0;   ///< compiles the optimizer changed
  int64_t optimizer_rewrites = 0;  ///< total rewrites across those compiles
  /// Per-pass rewrite totals (pass name, rewrites), name-sorted.
  std::vector<std::pair<std::string, int64_t>> optimizer_passes;
  // Answer-view cache (cross-session materialized answers).
  int64_t view_hits = 0;
  int64_t view_misses = 0;
  int64_t view_publishes = 0;
  int64_t view_evictions = 0;
  int64_t view_invalidations = 0;
  int64_t view_bytes = 0;
  int64_t view_entries = 0;
  /// Subsumption/publish reject counts by reason, name-sorted.
  std::vector<std::pair<std::string, int64_t>> view_rejects;
  // Real network transport hosting this service (all zeros when the service
  // is reached in-process or through the sim channel only).
  NetStats net;

  std::string ToString() const;
};

}  // namespace mix::service

#endif  // MIX_SERVICE_METRICS_H_
