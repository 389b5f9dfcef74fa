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
// Concurrency: lock-striped shards (key-hashed), each an LRU list with a
// frequency sketch under its own mutex; the global byte account is an
// atomic. No lock is ever held while touching another shard's lock, so the
// striping cannot deadlock and scales with readers (TSan-clean by
// construction).
//
// Memory: every entry is charged its serialized-size estimate plus fixed
// overhead against a process-wide byte budget. An insert reserves its bytes
// (CAS) before the entry becomes reachable, evicting round-robin across
// shards to make room; an entry larger than the whole budget is not
// admitted at all. The account — and therefore peak cache bytes — never
// exceeds the budget at any instant.
//
// Admission (TinyLFU): cyclic scans larger than the budget are LRU's worst
// case — every entry is evicted before its next use. So each shard keeps a
// count-min sketch of how often its keys were looked up, and an insert
// that needs room only displaces a victim (a shard's LRU tail) whose
// estimated frequency is lower than the candidate's. A candidate that is
// not more frequent is dropped and counted as a reject; a scan then passes
// through a full cache without displacing the set that keeps being reused.
//
// Freshness (E9 churn semantics): virtual views re-derive from live sources
// per session. Each source carries a generation counter; sessions pin the
// generation at build time, and `BumpGeneration` makes every older entry
// unreachable to new sessions — stale generations are not scrubbed in
// place (in-flight sessions of the old generation keep their consistent
// snapshot), they are the first victims whenever an insert needs room: a
// stale entry goes before any live one, and a publish under a stale pin is
// dropped.
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

  /// A session's hold on one source: the generation it reads and publishes
  /// under, and the source's live-generation cell, resolved once so that a
  /// publish takes no lock beyond its shard's. Entries published under a
  /// pin go stale once the cell moves past `generation`.
  struct Pin {
    std::string source;
    int64_t generation = 0;
    const std::atomic<int64_t>* live = nullptr;  ///< never null from PinSource
  };

  /// Pins `source` at `generation`: normally the `Generation` read when the
  /// session was built.
  Pin PinSource(const std::string& source, int64_t generation);

  /// Invalidates every cached fragment of `source`: the new generation is
  /// returned, and entries of older generations become unreachable to
  /// sessions pinned afterwards.
  int64_t BumpGeneration(const std::string& source);

  /// Cached fill for `hole_id`, or nullptr. Every lookup counts towards the
  /// key's admission frequency; hits on a live entry refresh its LRU
  /// position.
  std::shared_ptr<const FragmentList> LookupFill(const Pin& pin,
                                                 const std::string& hole_id);

  /// Publishes a validated fill. First publish wins (concurrent sessions
  /// racing to publish the same hole produce identical lists — the fills
  /// are deterministic — so dropping the loser is free).
  void PublishFill(const Pin& pin, const std::string& hole_id,
                   FragmentList fragments);

  /// Cached get_root answer for `uri`, or false.
  bool LookupRoot(const Pin& pin, const std::string& uri,
                  std::string* root_id);
  void PublishRoot(const Pin& pin, const std::string& uri,
                   const std::string& root_id);

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
    /// whole budget, the candidate was not more frequent than the victim
    /// it would displace, it was published under a stale pin, or
    /// concurrent inserts had the budget fully reserved.
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
  /// TinyLFU frequency estimate of one shard's keys: a count-min sketch (4
  /// rows of counters saturating at 15) behind a doorkeeper bit array. A
  /// key's first sighting in a sample period only sets its doorkeeper bit;
  /// later sightings increment its counters. After 10 x width sightings
  /// every counter halves and the doorkeeper clears, so estimates follow
  /// recent popularity. The width is a power of two grown with the shard's
  /// entry count, never from the byte budget; doubling copies each row into
  /// both halves, which leaves every estimate unchanged.
  class FrequencySketch {
   public:
    void Touch(uint64_t hash);
    int Estimate(uint64_t hash) const;
    /// Widens the sketch to at least `kWidthPerEntry` x `entries`.
    void Reserve(size_t entries);

   private:
    static constexpr int kRows = 4;
    /// A small shard starts at 64 counters per row, so its few keys rarely
    /// share one: a tie between candidate and victim then means equal use,
    /// not a collision.
    static constexpr size_t kMinWidth = 64;
    static constexpr size_t kWidthPerEntry = 4;
    void Grow(size_t width);
    /// Indices from the key hash after `Mix`.
    size_t Slot(uint64_t mixed, int row) const;
    size_t DoorBit(uint64_t mixed) const;

    size_t width_ = 0;               ///< counters per row; 0 until first use
    std::vector<uint8_t> counters_;  ///< kRows x width_, row-major
    std::vector<uint64_t> door_;     ///< width_ x 8 doorkeeper bits
    size_t samples_ = 0;             ///< sightings since the last halving
  };

  struct Entry {
    /// Non-null for fill entries; root entries carry `root_id` instead.
    std::shared_ptr<const FragmentList> fragments;
    std::string root_id;
    int64_t bytes = 0;
    uint64_t hash = 0;  ///< HashKey of the entry's key
    int64_t generation = 0;
    /// The source's live generation; the entry is stale once it moved on.
    const std::atomic<int64_t>* source_generation = nullptr;
  };
  using Lru = std::list<std::pair<std::string, Entry>>;
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. After `SweepStale`, every stale entry
    /// sits behind every live one.
    Lru lru;
    std::unordered_map<std::string, Lru::iterator> index;
    FrequencySketch sketch;
    /// `bumps_` as of the last `SweepStale`.
    uint64_t swept_bumps = 0;
    // Per-shard accounting, guarded by `mu` (plain ints, not atomics).
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t bytes = 0;
  };

  static std::string Key(const Pin& pin, char kind, const std::string& id);
  static uint64_t HashKey(const std::string& key);
  static bool Stale(const Entry& entry) {
    return entry.generation <
           entry.source_generation->load(std::memory_order_relaxed);
  }
  Shard& ShardAt(uint64_t hash) { return shards_[hash % kShards]; }
  /// The live-generation cell of `source`, created at 0 on first use.
  /// Caller holds `gen_mu_`.
  std::atomic<int64_t>* GenerationCell(const std::string& source);
  /// Looks `key` up in `shard`, whose `mu` the caller holds: counts the
  /// sighting and the hit or miss, and moves a live hit to the LRU front.
  const Entry* Lookup(Shard& shard, const std::string& key, uint64_t hash);
  /// Inserts `entry`, published under `pin`, as `key` into its shard
  /// (first publish wins). The entry's bytes are reserved
  /// against the budget BEFORE the entry becomes reachable, evicting
  /// victims round-robin across shards to make room — the byte account,
  /// and therefore peak cache memory, never exceeds the budget at any
  /// instant.
  void Insert(const Pin& pin, const std::string& key, Entry entry);
  /// Moves the shard's stale entries behind its live ones, once per
  /// generation bump. Caller holds `shard.mu`.
  void SweepStale(Shard& shard);
  /// Drops one entry to make room for a candidate of estimated frequency
  /// `candidate`: a stale entry from any shard if there is one, else the
  /// LRU tail of the next non-empty shard (round-robin) — but only when the
  /// candidate is more frequent than that tail. False when nothing was
  /// dropped: the candidate lost, or every shard is empty.
  bool EvictOne(int candidate);

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
  /// Generation bumps so far, of any source: a shard whose `swept_bumps`
  /// lags may hold entries that went stale since its last sweep.
  std::atomic<uint64_t> bumps_{0};
  /// `bumps_` as of the last full stale pass of `EvictOne` that found no
  /// stale entry in any shard; while they are equal, eviction skips it.
  std::atomic<uint64_t> clean_bumps_{0};

  std::mutex gen_mu_;
  /// Cells are never erased, so entries may point at them.
  std::unordered_map<std::string, std::unique_ptr<std::atomic<int64_t>>>
      generations_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_SOURCE_CACHE_H_
