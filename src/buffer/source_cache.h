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
// Concurrency: one mutex guards the whole cache — its LRU list and index,
// its frequency sketch, its byte account, its counters and the sources'
// generation cells. Keys, hashes and fragment lists are built before the
// lock is taken, and evicted entries are released after it is dropped, so
// the critical section is list and map surgery only.
//
// Memory: every entry is charged its serialized-size estimate plus fixed
// overhead against a process-wide byte budget. An insert evicts until its
// bytes fit and links the entry in the same critical section; an entry
// larger than the whole budget is not admitted at all. The account — and
// therefore peak cache bytes — never exceeds the budget at any instant.
//
// Admission (TinyLFU): cyclic scans larger than the budget are LRU's worst
// case — every entry is evicted before its next use. So the cache keeps a
// count-min sketch of how often its keys were looked up, and an insert
// that needs room only displaces a victim (the LRU tail) whose estimated
// frequency is lower than the candidate's. A candidate that is not more
// frequent is dropped and counted as a reject; a scan then passes through
// a full cache without displacing the set that keeps being reused.
//
// Freshness (E9 churn semantics): virtual views re-derive from live sources
// per session. Each source carries a generation counter; sessions pin the
// generation at build time, and `BumpGeneration` makes every older entry
// unreachable to new sessions — stale generations are not scrubbed in
// place (in-flight sessions of the old generation keep their consistent
// snapshot). The bump moves them behind every live entry, so they are the
// first victims whenever an insert needs room, and a publish under a stale
// pin is dropped.
//
// What never enters the cache: degraded `#unavailable` splices. The buffer
// publishes a fill only after it validated and spliced successfully, so a
// flaky source can cost one session retries but can never poison the
// answers of another.
#ifndef MIX_BUFFER_SOURCE_CACHE_H_
#define MIX_BUFFER_SOURCE_CACHE_H_

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
    /// Byte budget of the whole cache; <= 0 disables the cache (lookups
    /// miss, publishes are dropped).
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
  /// publish does not look the source up again. Entries published under a
  /// pin go stale once the cell moves past `generation`. The cell is read
  /// only under the cache's mutex.
  struct Pin {
    std::string source;
    int64_t generation = 0;
    const int64_t* live = nullptr;  ///< never null from PinSource
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

  /// Whether `hole_id` is cached: exactly a `LookupFill`, sketch and LRU
  /// included, except that it counts neither a hit nor a miss. For a
  /// caller that only decides whether to fetch, and looks the hole up
  /// again when it splices it.
  bool ProbeFill(const Pin& pin, const std::string& hole_id);

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

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    /// Publishes dropped without insertion: a single entry exceeded the
    /// whole budget, the candidate was not more frequent than the victim
    /// it would displace, or it was published under a stale pin.
    int64_t rejects = 0;
    int64_t bytes = 0;
    int64_t entries = 0;
    /// Byte high-water mark of the account. Never exceeds the budget.
    int64_t peak_bytes = 0;
  };
  Stats stats() const;

  int64_t bytes() const;
  int64_t byte_budget() const { return options_.byte_budget; }

 private:
  /// TinyLFU frequency estimate of the cache's keys: a count-min sketch (4
  /// rows of counters saturating at 15) behind a doorkeeper bit array. A
  /// key's first sighting in a sample period only sets its doorkeeper bit;
  /// later sightings increment its counters. After 10 x width sightings
  /// every counter halves and the doorkeeper clears, so estimates follow
  /// recent popularity. The width is a power of two grown with the entry
  /// count, never from the byte budget; doubling copies each row into both
  /// halves, which leaves every estimate unchanged.
  class FrequencySketch {
   public:
    void Touch(uint64_t hash);
    int Estimate(uint64_t hash) const;
    /// Widens the sketch to at least `kWidthPerEntry` x `entries`.
    void Reserve(size_t entries);

   private:
    static constexpr int kRows = 4;
    /// A small cache starts at 64 counters per row, so its few keys rarely
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
    const int64_t* source_generation = nullptr;
  };
  using Lru = std::list<std::pair<std::string, Entry>>;

  static std::string Key(const Pin& pin, char kind, const std::string& id);
  static uint64_t HashKey(const std::string& key);
  /// Caller holds `mu_`.
  static bool Stale(const Entry& entry) {
    return entry.generation < *entry.source_generation;
  }
  /// The live-generation cell of `source`, created at 0 on first use.
  /// Caller holds `mu_`.
  int64_t* GenerationCell(const std::string& source);
  /// Looks `key` up; the caller holds `mu_`. Counts the sighting, and the
  /// hit or miss when `count`, and moves a live hit to the LRU front.
  const Entry* Lookup(const std::string& key, uint64_t hash, bool count);
  /// Inserts `entry`, published under `pin`, as `key` (first publish
  /// wins), evicting until its bytes fit the budget: the byte account, and
  /// therefore peak cache memory, never exceeds the budget at any instant.
  void Insert(const Pin& pin, const std::string& key, Entry entry);
  /// Moves the LRU tail into `evicted` to make room for a candidate of
  /// estimated frequency `candidate`: a stale tail always, a live one only
  /// when the candidate is more frequent. False when nothing was dropped:
  /// the candidate lost, or the cache is empty. Caller holds `mu_`.
  bool EvictOne(int candidate, Lru* evicted);

  const Options options_;

  mutable std::mutex mu_;
  /// Front = most recently used. Every stale entry sits behind every live
  /// one: a bump moves its source's entries to the back, stale hits do not
  /// move, and only publishes under a live pin are inserted.
  Lru lru_;
  std::unordered_map<std::string, Lru::iterator> index_;
  FrequencySketch sketch_;
  int64_t bytes_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t insertions_ = 0;
  int64_t evictions_ = 0;
  int64_t rejects_ = 0;
  /// Cells are never erased, so entries and pins may point at them.
  std::unordered_map<std::string, std::unique_ptr<int64_t>> generations_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_SOURCE_CACHE_H_
