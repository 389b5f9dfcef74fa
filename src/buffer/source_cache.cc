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
}  // namespace

SourceCache::SourceCache(Options options) : options_(options) {}

std::string SourceCache::Key(const std::string& source, int64_t generation,
                             char kind, const std::string& id) {
  // 0x1f (unit separator) cannot appear in source names or hole ids, so the
  // concatenation is injective.
  std::string key;
  key.reserve(source.size() + id.size() + 24);
  key += source;
  key += '\x1f';
  key += std::to_string(generation);
  key += '\x1f';
  key += kind;
  key += '\x1f';
  key += id;
  return key;
}

SourceCache::Shard& SourceCache::ShardFor(const std::string& key) {
  size_t h = std::hash<std::string>{}(key);
  return shards_[h % kShards];
}

int64_t SourceCache::Generation(const std::string& source) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  auto it = generations_.find(source);
  return it == generations_.end() ? 0 : it->second;
}

int64_t SourceCache::BumpGeneration(const std::string& source) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return ++generations_[source];
}

std::shared_ptr<const FragmentList> SourceCache::LookupFill(
    const std::string& source, int64_t generation, const std::string& hole_id) {
  const std::string key = Key(source, generation, 'f', hole_id);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->second.fragments == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++shard.hits;
  return it->second->second.fragments;
}

void SourceCache::PublishFill(const std::string& source, int64_t generation,
                              const std::string& hole_id,
                              FragmentList fragments) {
  if (options_.byte_budget <= 0) return;
  const std::string key = Key(source, generation, 'f', hole_id);
  Entry entry;
  entry.bytes = kEntryOverheadBytes + static_cast<int64_t>(key.size()) +
                FragmentListByteSize(fragments);
  entry.fragments =
      std::make_shared<const FragmentList>(std::move(fragments));
  Insert(key, std::move(entry));
}

bool SourceCache::LookupRoot(const std::string& source, int64_t generation,
                             const std::string& uri, std::string* root_id) {
  const std::string key = Key(source, generation, 'r', uri);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->second.fragments != nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++shard.hits;
  *root_id = it->second->second.root_id;
  return true;
}

void SourceCache::PublishRoot(const std::string& source, int64_t generation,
                              const std::string& uri,
                              const std::string& root_id) {
  if (options_.byte_budget <= 0) return;
  const std::string key = Key(source, generation, 'r', uri);
  Entry entry;
  entry.root_id = root_id;
  entry.bytes = kEntryOverheadBytes + static_cast<int64_t>(key.size()) +
                static_cast<int64_t>(root_id.size());
  Insert(key, std::move(entry));
}

bool SourceCache::EvictOne() {
  for (size_t k = 0; k < kShards; ++k) {
    const uint64_t turn = evict_cursor_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = shards_[turn % kShards];
    int64_t freed = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.lru.empty()) continue;
      auto& back = shard.lru.back();
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
  return false;
}

void SourceCache::Insert(const std::string& key, Entry entry) {
  if (entry.bytes > options_.byte_budget) {
    // Admitting it would force the cache to evict everything and still sit
    // over budget; a fragment this large is cheaper to re-fetch.
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int64_t added = entry.bytes;
  // Reserve the bytes before the entry becomes reachable: CAS the account
  // up only when the result stays within budget, evicting LRU tails to
  // make room. Only one shard lock is ever held at a time.
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
    if (!EvictOne()) {
      // Every shard is empty yet the budget is fully reserved by inserts
      // still in flight on other threads. Publishing is best-effort — drop.
      rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    cur = bytes_.load(std::memory_order_relaxed);
  }
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.count(key) == 0) {
      shard.bytes += entry.bytes;
      shard.lru.emplace_front(key, std::move(entry));
      shard.index.emplace(key, shard.lru.begin());
      entries_.fetch_add(1, std::memory_order_relaxed);
      insertions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // First publish won; release the loser's reservation.
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
