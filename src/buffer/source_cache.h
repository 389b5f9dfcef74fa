// Cross-session shared source-fragment cache (DESIGN.md §4 "Shared
// source-fragment & plan caches").
//
// The mediator is a shared server over slow autonomous sources (paper §3,
// §6 "intermediate eager steps"): N concurrent sessions browsing the same
// view re-issue N identical get_root/fill exchanges against the same
// wrapper. LXP makes the answers reusable across sessions — hole ids are
// stateless encodings of source positions (`t:<table>:<row>`,
// `x:<node>:<lo>:<hi>`, ...), so the fragment list refining a hole id is a
// pure function of (source, source version, hole id). This cache memoizes
// exactly that function:
//
//   (source id, generation, hole/root key)  ->  immutable fragment list
//
// Concurrency: lock-striped shards (key-hashed), each a small LRU map under
// its own mutex; the global byte account is an atomic. No lock is ever held
// while touching another shard's lock, so the striping cannot deadlock and
// scales with readers (TSan-clean by construction).
//
// Memory: every entry is charged its serialized-size estimate plus fixed
// overhead against a process-wide byte budget. An insert reserves its bytes
// (CAS) before the entry becomes reachable, evicting least-recently-used
// entries round-robin across shards to make room; an entry larger than the
// whole budget is not admitted at all. The account — and therefore peak
// cache bytes — never exceeds the budget at any instant.
//
// Freshness (E9 churn semantics): virtual views re-derive from live sources
// per session. Each source carries a generation counter; sessions pin the
// generation at build time, and `BumpGeneration` makes every older entry
// unreachable to new sessions — stale generations are not scrubbed in
// place (in-flight sessions of the old generation keep their consistent
// snapshot), they age out through LRU eviction.
//
// What never enters the cache: degraded `#unavailable` splices. The buffer
// publishes a fill only after it validated and spliced successfully, so a
// flaky source can cost one session retries but can never poison the
// answers of another.
#ifndef MIX_BUFFER_SOURCE_CACHE_H_
#define MIX_BUFFER_SOURCE_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/lxp.h"

namespace mix::buffer {

class SourceCache {
 public:
  struct Options {
    /// Global byte budget across all shards; <= 0 disables the cache
    /// (lookups miss, publishes are dropped).
    int64_t byte_budget = int64_t{64} << 20;
  };

  explicit SourceCache(Options options);
  SourceCache() : SourceCache(Options()) {}

  SourceCache(const SourceCache&) = delete;
  SourceCache& operator=(const SourceCache&) = delete;

  /// Current generation of `source` (0 until first bumped).
  int64_t Generation(const std::string& source);

  /// Invalidates every cached fragment of `source`: the new generation is
  /// returned, and entries of older generations become unreachable to
  /// sessions built afterwards.
  int64_t BumpGeneration(const std::string& source);

  /// Cached fill for `hole_id`, or nullptr. Hits refresh LRU position.
  std::shared_ptr<const FragmentList> LookupFill(const std::string& source,
                                                 int64_t generation,
                                                 const std::string& hole_id);

  /// Publishes a validated fill. First publish wins (concurrent sessions
  /// racing to publish the same hole produce identical lists — the fills
  /// are deterministic — so dropping the loser is free).
  void PublishFill(const std::string& source, int64_t generation,
                   const std::string& hole_id, FragmentList fragments);

  /// Cached get_root answer for `uri`, or false.
  bool LookupRoot(const std::string& source, int64_t generation,
                  const std::string& uri, std::string* root_id);
  void PublishRoot(const std::string& source, int64_t generation,
                   const std::string& uri, const std::string& root_id);

  /// Per-shard traffic, for spotting hot shards or skewed key hashing.
  struct ShardStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t entries = 0;
    int64_t bytes = 0;
  };
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    /// Publishes dropped without insertion: a single entry exceeded the
    /// whole budget, or concurrent inserts had the budget fully reserved.
    int64_t rejects = 0;
    int64_t bytes = 0;
    int64_t entries = 0;
    /// Byte high-water mark of the reservation account. Never exceeds the
    /// budget (reservations are bounded by construction).
    int64_t peak_bytes = 0;
    std::vector<ShardStats> shards;  ///< one per stripe, shard-ordered
  };
  Stats stats() const;

  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int64_t byte_budget() const { return options_.byte_budget; }

 private:
  struct Entry {
    /// Non-null for fill entries; root entries carry `root_id` instead.
    std::shared_ptr<const FragmentList> fragments;
    std::string root_id;
    int64_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::string, Entry>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, Entry>>::iterator>
        index;
    // Per-shard accounting, guarded by `mu` (plain ints, not atomics).
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t bytes = 0;
  };

  static std::string Key(const std::string& source, int64_t generation,
                         char kind, const std::string& id);
  Shard& ShardFor(const std::string& key);
  /// Inserts `entry` under `key` into its shard (first publish wins). The
  /// entry's bytes are reserved against the budget BEFORE the entry becomes
  /// reachable, evicting LRU tails round-robin across shards to make room —
  /// the byte account, and therefore peak cache memory, never exceeds the
  /// budget at any instant.
  void Insert(const std::string& key, Entry entry);
  /// Drops one LRU tail entry from the next non-empty shard (round-robin);
  /// false when every shard is empty.
  bool EvictOne();

  /// Lock stripes: enough that concurrent sessions rarely contend, few
  /// enough that the per-shard LRU stays close to a global one.
  static constexpr size_t kShards = 8;

  Options options_;
  std::array<Shard, kShards> shards_;
  std::atomic<int64_t> bytes_{0};
  /// High-water mark of `bytes_` (CAS-max on every reservation).
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> rejects_{0};
  /// Round-robin eviction cursor (relieves pressure fairly across shards).
  std::atomic<uint64_t> evict_cursor_{0};

  std::mutex gen_mu_;
  std::unordered_map<std::string, int64_t> generations_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_SOURCE_CACHE_H_
