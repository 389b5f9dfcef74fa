// The bounded cache every cross-session tier is an instance of (DESIGN.md
// §4 "Cache core"): fragments, compiled plans and answer views. A tier
// supplies its value type, each entry's cost and its match rule; the core
// keeps, under one mutex, one LRU list with its index (several entries may
// share a key, visited oldest first), one cost account that never exceeds
// the budget, first-publish-wins, the counters and, under frequency
// admission, one TinyLFU sketch. Entries are stamped with the source
// generations they were derived from (GenerationRegistry, below); a stale
// entry is never refreshed and a stale insert is refused, so every stale
// entry sits behind every live one.
#ifndef MIX_CORE_BOUNDED_CACHE_H_
#define MIX_CORE_BOUNDED_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mix {

/// One generation counter per source, shared by every cache tier (DESIGN.md
/// §4 "Freshness"). Virtual views re-derive from live sources per session
/// (E9): an entry is stamped with the generations of the sources it was
/// derived from, and `Bump` declares a source changed, making older stamps
/// stale. A session pins its sources once, when it opens, and reads and
/// publishes under those pins for its whole dialogue.
class GenerationRegistry {
 public:
  /// One source; never erased while the registry lives.
  struct Source {
    std::string name;
    std::atomic<int64_t> generation{0};
    /// generation -> live pins; under the registry's mutex (so in OnBump)
    std::map<int64_t, int64_t> holds;
  };

  /// The generation of one source an entry was derived from.
  struct Stamp {
    const Source* source = nullptr;
    int64_t generation = 0;
    bool stale() const { return generation != source->generation.load(); }
  };

  /// A stamp held by a session: while any copy lives, a bump keeps the
  /// entries of that generation. Must not outlive the registry.
  struct Pin {
    Stamp stamp;
    std::shared_ptr<void> hold;  ///< releases the hold with the last copy
  };
  using Pins = std::vector<Pin>;  ///< a session's pins, one per source
  static const Pin* Find(const Pins& pins, const std::string& source) {
    for (const Pin& pin : pins) {
      if (pin.stamp.source->name == source) return &pin;
    }
    return nullptr;
  }

  /// A cache told of every bump, under the registry's mutex.
  struct Listener {
    virtual void OnBump(const Source& source) = 0;
  };

  /// 0 until first bumped.
  int64_t Generation(const std::string& source) {
    std::lock_guard<std::mutex> lock(mu_);
    return SourceLocked(source)->generation.load();
  }
  Pin PinSource(const std::string& source, int64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    return PinLocked(SourceLocked(source), generation);
  }
  /// Pins each of `sources` at its current generation.
  Pins PinSources(const std::vector<std::string>& sources) {
    Pins pins;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& name : sources) {
      if (Find(pins, name) != nullptr) continue;
      Source* source = SourceLocked(name);
      pins.push_back(PinLocked(source, source->generation.load()));
    }
    return pins;
  }
  /// Declares `source` changed; returns its new generation.
  int64_t Bump(const std::string& source) {
    std::lock_guard<std::mutex> lock(mu_);
    Source* s = SourceLocked(source);
    const int64_t generation = ++s->generation;
    ++bumps_;
    for (Listener* listener : listeners_) listener->OnBump(*s);
    return generation;
  }
  int64_t bumps() const {  ///< over all sources
    std::lock_guard<std::mutex> lock(mu_);
    return bumps_;
  }
  void Subscribe(Listener* listener) {
    std::lock_guard<std::mutex> lock(mu_);
    listeners_.push_back(listener);
  }
  void Unsubscribe(Listener* listener) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(listeners_, listener);
  }

 private:
  Source* SourceLocked(const std::string& name) {
    std::unique_ptr<Source>& source = sources_[name];
    if (source == nullptr) {
      source = std::make_unique<Source>();
      source->name = name;
    }
    return source.get();
  }
  Pin PinLocked(Source* source, int64_t generation) {
    ++source->holds[generation];
    auto release = [=, this](void*) {
      std::lock_guard<std::mutex> lock(mu_);
      if (--source->holds[generation] == 0) source->holds.erase(generation);
    };
    return Pin{{source, generation}, std::shared_ptr<void>(nullptr, release)};
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Source>> sources_;
  std::vector<Listener*> listeners_;
  int64_t bumps_ = 0;
};

/// TinyLFU frequency estimate: a count-min sketch (4 rows of counters
/// saturating at 15) behind a doorkeeper bit array (DESIGN.md §4
/// "Admission"). After 10 x width sightings every counter halves and the
/// doorkeeper clears. The width is a power of two, at least 64 and 4 x the
/// entries; doubling copies each row into both halves, keeping estimates.
class FrequencySketch {
 public:
  void Touch(uint64_t hash);
  int Estimate(uint64_t hash) const;
  void Reserve(size_t entries);

 private:
  static constexpr int kRows = 4;
  static constexpr size_t kMinWidth = 64;
  static constexpr size_t kWidthPerEntry = 4;
  void Grow(size_t width);
  size_t Slot(uint64_t mixed, int row) const;
  size_t DoorBit(uint64_t mixed) const;

  size_t width_ = 0;               ///< counters per row; 0 until first use
  std::vector<uint8_t> counters_;  ///< kRows x width_, row-major
  std::vector<uint64_t> door_;     ///< width_ x 8 doorkeeper bits
  size_t samples_ = 0;             ///< sightings since the last halving
};

/// Who makes room for an insert: the LRU tail always (kLru), or a stale
/// tail, or a live one the candidate is looked up more often than
/// (kFrequency; every lookup counts towards its key's frequency).
enum class Admission { kLru, kFrequency };

struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;  ///< to make room, or dropped stale by a bump
  int64_t rejects = 0;    ///< over-budget, stale and admission-losing inserts
  int64_t bytes = 0;
  int64_t entries = 0;
  int64_t peak_bytes = 0;  ///< high-water mark; never exceeds the budget
};

template <typename V>
class BoundedCache : private GenerationRegistry::Listener {
 public:
  using Stamp = GenerationRegistry::Stamp;
  enum class Outcome { kInserted, kDisabled, kOverBudget, kStale, kDuplicate,
                       kRejected };

  /// Follows the bumps of `generations` (not owned; outlives the cache),
  /// or of a registry of its own when null.
  BoundedCache(int64_t budget, Admission admission,
               GenerationRegistry* generations)
      : budget_(budget), admission_(admission),
        own_(generations ? nullptr : std::make_unique<GenerationRegistry>()),
        generations_(generations ? generations : own_.get()) {
    generations_->Subscribe(this);
  }
  ~BoundedCache() { generations_->Unsubscribe(this); }
  BoundedCache(const BoundedCache&) = delete;
  BoundedCache& operator=(const BoundedCache&) = delete;

  bool enabled() const { return budget_ > 0; }
  int64_t budget() const { return budget_; }
  GenerationRegistry& generations() const { return *generations_; }

  /// Takes the first entry under `key` that `match(value, stale)` accepts:
  /// copies it to `out` (if non-null), refreshes it unless stale, counts a
  /// hit; else counts a miss. `count` false counts neither. `match` runs
  /// under the lock, so the value it accepts is the one taken.
  template <typename Match>
  bool Find(const std::string& key, bool count, Match&& match, V* out) {
    const uint64_t hash = std::hash<std::string>{}(key);
    std::lock_guard<std::mutex> lock(mu_);
    if (admission_ == Admission::kFrequency && enabled()) sketch_.Touch(hash);
    if (auto slot = index_.find(key); slot != index_.end()) {
      for (const auto it : slot->second) {
        const bool stale = Stale(it->stamps);
        if (!match(std::as_const(it->value), stale)) continue;
        if (!stale) lru_.splice(lru_.begin(), lru_, it);
        if (out != nullptr) *out = it->value;
        stats_.hits += count ? 1 : 0;
        return true;
      }
    }
    stats_.misses += count ? 1 : 0;
    return false;
  }
  bool Find(const std::string& key, bool count, V* out) {
    return Find(key, count, [](const V&, bool) { return true; }, out);
  }

  /// Inserts `make()` under `key` at `cost`, stamped `stamps`, evicting
  /// until it fits. Refused without calling `make` when disabled, over
  /// budget, stale, a `duplicate(value)` of a live entry under `key`, or
  /// losing admission. Both run under the lock: the decision and the link
  /// are one step.
  template <typename Duplicate, typename Make>
  Outcome Insert(const std::string& key, int64_t cost,
                 std::span<const Stamp> stamps, Duplicate&& duplicate,
                 Make&& make) {
    if (!enabled()) return Outcome::kDisabled;
    const uint64_t hash = std::hash<std::string>{}(key);
    List evicted;  // declared before the lock: victims are freed after it
    std::lock_guard<std::mutex> lock(mu_);
    if (cost > budget_ || Stale(stamps)) {
      ++stats_.rejects;
      return cost > budget_ ? Outcome::kOverBudget : Outcome::kStale;
    }
    if (auto slot = index_.find(key); slot != index_.end()) {
      for (const auto it : slot->second) {
        if (!Stale(it->stamps) && duplicate(std::as_const(it->value))) {
          return Outcome::kDuplicate;
        }
      }
    }
    const int candidate = sketch_.Estimate(hash);  // used by kFrequency
    while (stats_.bytes + cost > budget_) {
      if (!EvictTail(candidate, &evicted)) {
        ++stats_.rejects;
        return Outcome::kRejected;
      }
    }
    lru_.push_front(Node{key, make(), cost, hash, {stamps.begin(), stamps.end()}});
    index_[key].push_back(lru_.begin());
    stats_.bytes += cost;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
    ++stats_.insertions;
    if (admission_ == Admission::kFrequency) sketch_.Reserve(lru_.size());
    return Outcome::kInserted;
  }
  /// Insert where any live entry under `key` is a duplicate.
  template <typename Make>
  Outcome Insert(const std::string& key, int64_t cost,
                 std::span<const Stamp> stamps, Make&& make) {
    return Insert(key, cost, stamps, [](const V&) { return true; }, make);
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s = stats_;
    s.entries = static_cast<int64_t>(lru_.size());
    return s;
  }
  int64_t bytes() const { return stats().bytes; }

 private:
  struct Node {
    std::string key;
    V value;
    int64_t cost = 0;
    uint64_t hash = 0;  ///< the sketch's key hash
    std::vector<Stamp> stamps;
  };
  using List = std::list<Node>;  ///< front = most recently used

  static bool Stale(std::span<const Stamp> stamps) {
    return std::any_of(stamps.begin(), stamps.end(),
                       [](const Stamp& s) { return s.stale(); });
  }
  void Drop(typename List::iterator it, List* dropped) {
    auto slot = index_.find(it->key);
    std::erase(slot->second, it);
    if (slot->second.empty()) index_.erase(slot);
    stats_.bytes -= it->cost;
    ++stats_.evictions;
    dropped->splice(dropped->end(), lru_, it);
  }
  /// Drops the tail for a candidate of frequency `candidate`, unless
  /// admission keeps it; false when nothing was dropped.
  bool EvictTail(int candidate, List* evicted) {
    if (lru_.empty()) return false;
    if (admission_ == Admission::kFrequency && !Stale(lru_.back().stamps) &&
        candidate <= sketch_.Estimate(lru_.back().hash)) {
      return false;
    }
    Drop(std::prev(lru_.end()), evicted);
    return true;
  }

  /// The bump rule: an entry the bump made stale moves behind every live
  /// entry while a pin holds its generation, and is dropped otherwise. Each
  /// entry is visited once: moved ones land behind the unvisited ones.
  void OnBump(const GenerationRegistry::Source& source) override {
    List dropped;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = lru_.begin();
    for (size_t n = lru_.size(); n > 0; --n) {
      const auto next = std::next(it);
      for (const Stamp& s : it->stamps) {
        if (s.source != &source || !s.stale()) continue;
        if (source.holds.count(s.generation) != 0) {
          lru_.splice(lru_.end(), lru_, it);
        } else {
          Drop(it, &dropped);
        }
        break;
      }
      it = next;
    }
  }

  const int64_t budget_;
  const Admission admission_;
  const std::unique_ptr<GenerationRegistry> own_;
  GenerationRegistry* const generations_;

  mutable std::mutex mu_;
  List lru_;
  std::unordered_map<std::string, std::vector<typename List::iterator>> index_;
  FrequencySketch sketch_;
  CacheStats stats_;  ///< all but `entries`, which is lru_.size()
};

}  // namespace mix

#endif  // MIX_CORE_BOUNDED_CACHE_H_
