#include "service/metrics.h"

namespace mix::service {

namespace {

std::string PassCounters(
    const std::vector<std::pair<std::string, int64_t>>& passes) {
  std::string out;
  for (const auto& [name, applied] : passes) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(applied);
  }
  return out;
}

}  // namespace

int LatencyHistogram::BucketOf(int64_t ns) {
  if (ns < kSubBuckets) return ns < 0 ? 0 : static_cast<int>(ns);
  if (ns >= int64_t{1} << kMaxExponent) return kBuckets - 1;
  int exponent = 63 - __builtin_clzll(static_cast<uint64_t>(ns));
  int sub = static_cast<int>(ns >> (exponent - kSubBits)) & (kSubBuckets - 1);
  return kSubBuckets + (exponent - kSubBits) * kSubBuckets + sub;
}

int64_t LatencyHistogram::BucketMid(int b) {
  if (b < kSubBuckets) return b;
  int shift = (b - kSubBuckets) / kSubBuckets;  // log2 of the bucket width
  int64_t sub = (b - kSubBuckets) % kSubBuckets;
  int64_t low = (int64_t{kSubBuckets} + sub) << shift;
  return low + (int64_t{1} << shift) / 2;
}

void LatencyHistogram::Record(int64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

int64_t LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(count_ - 1));
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return BucketMid(i);
  }
  return BucketMid(kBuckets - 1);  // unreachable: seen reaches count_
}

LatencyHistogram& LatencyHistogram::operator+=(const LatencyHistogram& o) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
  return *this;
}

std::string SessionMetrics::ToString() const {
  return "requests=" + std::to_string(requests) +
         " errors=" + std::to_string(errors) +
         " fills=" + std::to_string(fills) +
         " lxp{" + lxp.ToString() + "}" +
         " faults{seen=" + std::to_string(source_faults) +
         " retries=" + std::to_string(source_retries) +
         " backoff_us=" + std::to_string(source_backoff_ns / 1000) +
         " degraded=" + std::to_string(degraded_holes) + "}" +
         " cache{hits=" + std::to_string(cache_hits) +
         " misses=" + std::to_string(cache_misses) + "}" +
         " plan{rewrites=" + std::to_string(plan_rewrites) + "}" +
         " async{readahead=" + std::to_string(readahead_issued) +
         " holes=" + std::to_string(readahead_holes) +
         " hits=" + std::to_string(readahead_hits) +
         " fills=" + std::to_string(readahead_fills) +
         " fallbacks=" + std::to_string(readahead_fallbacks) +
         " orphaned=" + std::to_string(readahead_orphaned) + "}" +
         " view_served=" + std::to_string(view_served);
}

std::string NetStats::ToString() const {
  return "accepts=" + std::to_string(accepts) +
         " conns=" + std::to_string(conns_active) + "/" +
         std::to_string(conns_closed) +
         " rx_bytes=" + std::to_string(rx_bytes) +
         " tx_bytes=" + std::to_string(tx_bytes) +
         " frames_in=" + std::to_string(frames_in) +
         " frames_out=" + std::to_string(frames_out) +
         " partials=" + std::to_string(partial_reads) +
         " stalls=" + std::to_string(backpressure_stalls) +
         " slow_closes=" + std::to_string(slow_reader_closes) +
         " idle_closes=" + std::to_string(idle_closes) +
         " decode_closes=" + std::to_string(decode_closes) +
         " read_pauses=" + std::to_string(read_pauses);
}

std::string ServiceMetricsSnapshot::ToString() const {
  return (backend_id.empty() ? std::string()
                             : "backend=" + backend_id + " ") +
         "sessions{open=" + std::to_string(sessions_open) +
         " opened=" + std::to_string(sessions_opened) +
         " closed=" + std::to_string(sessions_closed) +
         " evicted=" + std::to_string(sessions_evicted) +
         " replays=" + std::to_string(sessions_open_replays) +
         " sweeps=" + std::to_string(registry_sweep_scans) + "}" +
         " requests{ok=" + std::to_string(requests_ok) +
         " error=" + std::to_string(requests_error) +
         " rejected=" + std::to_string(requests_rejected) +
         " expired=" + std::to_string(requests_expired) +
         " inline=" + std::to_string(requests_inline) +
         " queued=" + std::to_string(queue_depth) + "}" +
         " frames{in=" + std::to_string(frames_in) +
         " out=" + std::to_string(frames_out) + "}" +
         " latency{p50_us=" + std::to_string(p50_ns / 1000) +
         " p99_us=" + std::to_string(p99_ns / 1000) + "}" +
         " faults{seen=" + std::to_string(source_faults) +
         " retries=" + std::to_string(source_retries) +
         " backoff_us=" + std::to_string(source_backoff_ns / 1000) +
         " degraded=" + std::to_string(degraded_holes) + "}" +
         " cache{hits=" + std::to_string(cache_hits) +
         " misses=" + std::to_string(cache_misses) +
         " evictions=" + std::to_string(cache_evictions) +
         " bytes=" + std::to_string(cache_bytes) +
         " peak_bytes=" + std::to_string(cache_peak_bytes) +
         " entries=" + std::to_string(cache_entries) + "}" +
         " plans{hits=" + std::to_string(plan_cache_hits) +
         " misses=" + std::to_string(plan_cache_misses) +
         " optimized=" + std::to_string(plans_optimized) +
         " rewrites=" + std::to_string(optimizer_rewrites) + "}" +
         " passes{" + PassCounters(optimizer_passes) + "}" +
         " views{hits=" + std::to_string(view_hits) +
         " misses=" + std::to_string(view_misses) +
         " publishes=" + std::to_string(view_publishes) +
         " evictions=" + std::to_string(view_evictions) +
         " invalidations=" + std::to_string(view_invalidations) +
         " bytes=" + std::to_string(view_bytes) +
         " entries=" + std::to_string(view_entries) + "}" +
         " view_rejects{" + PassCounters(view_rejects) + "}" +
         " net{" + net.ToString() + "}";
}

}  // namespace mix::service
