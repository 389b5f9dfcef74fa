#include "buffer/source_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/check.h"

namespace mix::buffer {

namespace {
/// Fixed accounting overhead per entry: key copy in the index, list node,
/// map node, Entry struct. An estimate — what matters is that it is charged
/// consistently so the budget bounds real growth.
constexpr int64_t kEntryOverheadBytes = 96;

/// Counters saturate here (4-bit TinyLFU counters, stored one per byte).
constexpr uint8_t kMaxCount = 15;

/// splitmix64 finalizer: spreads the key hash, whose low bits also pick the
/// shard (so every key of one shard shares them), over all 64 bits.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

// ---------------------------------------------------------------------------
// FrequencySketch. Row r probes (a + r*b) mod width, with a and b the two
// halves of the mixed hash (double hashing); the doorkeeper probes
// (a + kRows*b) mod its bit count. Both indices are a hash masked by a
// power of two, so after doubling a key's slot is its old slot or the old
// slot + old width — the copy in Grow lands every count where it is read.
// ---------------------------------------------------------------------------

size_t SourceCache::FrequencySketch::Slot(uint64_t mixed, int row) const {
  const uint64_t a = mixed & 0xffffffffu;
  const uint64_t b = (mixed >> 32) | 1;
  return static_cast<size_t>(row) * width_ +
         static_cast<size_t>((a + static_cast<uint64_t>(row) * b) &
                             (width_ - 1));
}

size_t SourceCache::FrequencySketch::DoorBit(uint64_t mixed) const {
  const uint64_t a = mixed & 0xffffffffu;
  const uint64_t b = (mixed >> 32) | 1;
  return static_cast<size_t>((a + kRows * b) & (width_ * 8 - 1));
}

void SourceCache::FrequencySketch::Grow(size_t width) {
  std::vector<uint8_t> counters(kRows * width);
  std::vector<uint64_t> door(width / 8);
  for (int r = 0; r < kRows; ++r) {
    for (size_t i = 0; i < width; ++i) {
      counters[r * width + i] =
          width_ == 0 ? 0 : counters_[r * width_ + (i & (width_ - 1))];
    }
  }
  for (size_t w = 0; w < door.size(); ++w) {
    door[w] = door_.empty() ? 0 : door_[w % door_.size()];
  }
  counters_ = std::move(counters);
  door_ = std::move(door);
  width_ = width;
}

void SourceCache::FrequencySketch::Reserve(size_t entries) {
  size_t width = std::max(width_, kMinWidth);
  while (width < kWidthPerEntry * entries) width *= 2;
  if (width != width_) Grow(width);
}

void SourceCache::FrequencySketch::Touch(uint64_t hash) {
  if (width_ == 0) Grow(kMinWidth);
  const uint64_t mixed = Mix(hash);
  const size_t bit = DoorBit(mixed);
  uint64_t& word = door_[bit / 64];
  const uint64_t mask = uint64_t{1} << (bit % 64);
  if ((word & mask) == 0) {
    word |= mask;  // first sighting this period
  } else {
    for (int r = 0; r < kRows; ++r) {
      uint8_t& c = counters_[Slot(mixed, r)];
      if (c < kMaxCount) ++c;
    }
  }
  if (++samples_ >= 10 * width_) {
    for (uint8_t& c : counters_) c >>= 1;
    std::fill(door_.begin(), door_.end(), 0);
    samples_ = 0;
  }
}

int SourceCache::FrequencySketch::Estimate(uint64_t hash) const {
  if (width_ == 0) return 0;
  const uint64_t mixed = Mix(hash);
  int count = kMaxCount;
  for (int r = 0; r < kRows; ++r) {
    count = std::min<int>(count, counters_[Slot(mixed, r)]);
  }
  const size_t bit = DoorBit(mixed);
  return count + static_cast<int>((door_[bit / 64] >> (bit % 64)) & 1);
}

// ---------------------------------------------------------------------------
// SourceCache.
// ---------------------------------------------------------------------------

SourceCache::SourceCache(Options options) : options_(options) {}

std::string SourceCache::Key(const Pin& pin, char kind, const std::string& id) {
  // 0x1f (unit separator) cannot appear in source names or hole ids, so the
  // concatenation is injective.
  std::string key;
  key.reserve(pin.source.size() + id.size() + 24);
  key += pin.source;
  key += '\x1f';
  key += std::to_string(pin.generation);
  key += '\x1f';
  key += kind;
  key += '\x1f';
  key += id;
  return key;
}

uint64_t SourceCache::HashKey(const std::string& key) {
  return std::hash<std::string>{}(key);
}

std::atomic<int64_t>* SourceCache::GenerationCell(const std::string& source) {
  auto& cell = generations_[source];
  if (cell == nullptr) cell = std::make_unique<std::atomic<int64_t>>(0);
  return cell.get();
}

int64_t SourceCache::Generation(const std::string& source) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  auto it = generations_.find(source);
  return it == generations_.end()
             ? 0
             : it->second->load(std::memory_order_relaxed);
}

SourceCache::Pin SourceCache::PinSource(const std::string& source,
                                        int64_t generation) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return Pin{source, generation, GenerationCell(source)};
}

int64_t SourceCache::BumpGeneration(const std::string& source) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  const int64_t next =
      GenerationCell(source)->fetch_add(1, std::memory_order_relaxed) + 1;
  // Release: an evictor that reads the new count also reads the new
  // generation, so its stale pass cannot miss what this bump made stale.
  bumps_.fetch_add(1, std::memory_order_release);
  return next;
}

const SourceCache::Entry* SourceCache::Lookup(Shard& shard,
                                              const std::string& key,
                                              uint64_t hash) {
  if (options_.byte_budget > 0) shard.sketch.Touch(hash);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++shard.misses;
    return nullptr;
  }
  // A stale entry keeps its place behind the live ones.
  if (!Stale(it->second->second)) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++shard.hits;
  return &it->second->second;
}

std::shared_ptr<const FragmentList> SourceCache::LookupFill(
    const Pin& pin, const std::string& hole_id) {
  const std::string key = Key(pin, 'f', hole_id);
  const uint64_t hash = HashKey(key);
  Shard& shard = ShardAt(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const Entry* entry = Lookup(shard, key, hash);
  return entry == nullptr ? nullptr : entry->fragments;
}

void SourceCache::PublishFill(const Pin& pin, const std::string& hole_id,
                              FragmentList fragments) {
  if (options_.byte_budget <= 0) return;
  const std::string key = Key(pin, 'f', hole_id);
  Entry entry;
  entry.bytes = kEntryOverheadBytes + static_cast<int64_t>(key.size()) +
                FragmentListByteSize(fragments);
  entry.fragments =
      std::make_shared<const FragmentList>(std::move(fragments));
  Insert(pin, key, std::move(entry));
}

bool SourceCache::LookupRoot(const Pin& pin, const std::string& uri,
                             std::string* root_id) {
  const std::string key = Key(pin, 'r', uri);
  const uint64_t hash = HashKey(key);
  Shard& shard = ShardAt(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const Entry* entry = Lookup(shard, key, hash);
  if (entry == nullptr) return false;
  *root_id = entry->root_id;
  return true;
}

void SourceCache::PublishRoot(const Pin& pin, const std::string& uri,
                              const std::string& root_id) {
  if (options_.byte_budget <= 0) return;
  const std::string key = Key(pin, 'r', uri);
  Entry entry;
  entry.root_id = root_id;
  entry.bytes = kEntryOverheadBytes + static_cast<int64_t>(key.size()) +
                static_cast<int64_t>(root_id.size());
  Insert(pin, key, std::move(entry));
}

void SourceCache::SweepStale(Shard& shard) {
  const uint64_t bumps = bumps_.load(std::memory_order_relaxed);
  if (shard.swept_bumps == bumps) return;
  shard.swept_bumps = bumps;
  // Visits each entry once: moved ones land behind the unvisited ones.
  auto it = shard.lru.begin();
  for (size_t n = shard.lru.size(); n > 0; --n) {
    auto next = std::next(it);
    if (Stale(it->second)) shard.lru.splice(shard.lru.end(), shard.lru, it);
    it = next;
  }
}

bool SourceCache::EvictOne(int candidate) {
  // Pass 0 takes a stale tail from any shard, unless a full pass 0 since
  // the last bump found none; pass 1 the next non-empty shard's tail, if
  // the candidate outweighs it.
  const uint64_t bumps = bumps_.load(std::memory_order_acquire);
  for (int pass = bumps == clean_bumps_.load(std::memory_order_relaxed) ? 1 : 0;
       pass < 2; ++pass) {
    for (size_t k = 0; k < kShards; ++k) {
      const uint64_t turn =
          evict_cursor_.fetch_add(1, std::memory_order_relaxed);
      Shard& shard = shards_[turn % kShards];
      int64_t freed = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (pass == 0) SweepStale(shard);
        if (shard.lru.empty()) continue;
        auto& back = shard.lru.back();
        if (pass == 0 && !Stale(back.second)) continue;
        if (pass == 1 && candidate <= shard.sketch.Estimate(back.second.hash)) {
          return false;
        }
        freed = back.second.bytes;
        shard.index.erase(back.first);
        shard.lru.pop_back();
        shard.bytes -= freed;
      }
      bytes_.fetch_sub(freed, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // Only publishes under a live pin are inserted, so until the next bump
    // no shard gains a stale entry.
    if (pass == 0) clean_bumps_.store(bumps, std::memory_order_relaxed);
  }
  return false;
}

void SourceCache::Insert(const Pin& pin, const std::string& key, Entry entry) {
  if (entry.bytes > options_.byte_budget) {
    // Admitting it would force the cache to evict everything and still sit
    // over budget; a fragment this large is cheaper to re-fetch.
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  entry.hash = HashKey(key);
  entry.generation = pin.generation;
  entry.source_generation = pin.live;
  // A publish under a stale pin could only serve sessions already in
  // flight, and would be the next victim: drop it.
  if (Stale(entry)) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& home = ShardAt(entry.hash);
  const int64_t added = entry.bytes;
  // Admission frequency of the candidate, read once room is needed.
  int candidate = -1;
  // Reserve the bytes before the entry becomes reachable: CAS the account
  // up only when the result stays within budget, evicting to make room.
  // Only one shard lock is ever held at a time.
  int64_t cur = bytes_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + added <= options_.byte_budget) {
      if (bytes_.compare_exchange_weak(cur, cur + added,
                                       std::memory_order_relaxed)) {
        // Track the high-water mark of the reservation account (CAS-max:
        // concurrent reservations race, the largest observed value sticks).
        int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
        while (cur + added > peak &&
               !peak_bytes_.compare_exchange_weak(peak, cur + added,
                                                  std::memory_order_relaxed)) {
        }
        break;  // reserved
      }
      continue;  // account moved; `cur` was reloaded by the failed CAS
    }
    if (candidate < 0) {
      std::lock_guard<std::mutex> lock(home.mu);
      candidate = home.sketch.Estimate(entry.hash);
    }
    // A lost comparison drops the candidate. An empty cache whose budget is
    // fully reserved by inserts in flight on other threads drops it too:
    // publishing is best-effort.
    if (!EvictOne(candidate)) {
      rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    cur = bytes_.load(std::memory_order_relaxed);
  }
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(home.mu);
    // Checked again under the lock: an entry that a bump since the check
    // above made stale would sit at the front, out of the stale pass's
    // sight.
    stale = Stale(entry);
    if (!stale && home.index.count(key) == 0) {
      home.bytes += entry.bytes;
      auto it = home.lru.emplace(home.lru.begin(), key, std::move(entry));
      home.index.emplace(key, it);
      home.sketch.Reserve(home.lru.size());
      entries_.fetch_add(1, std::memory_order_relaxed);
      insertions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // The pin went stale, or the first publish won; release the reservation.
  if (stale) rejects_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_sub(added, std::memory_order_relaxed);
}

SourceCache::Stats SourceCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.rejects = rejects_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
  s.shards.reserve(kShards);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ShardStats ss;
    ss.hits = shard.hits;
    ss.misses = shard.misses;
    ss.entries = static_cast<int64_t>(shard.lru.size());
    ss.bytes = shard.bytes;
    s.shards.push_back(ss);
  }
  return s;
}

}  // namespace mix::buffer
