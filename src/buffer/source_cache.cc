#include "buffer/source_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace mix::buffer {

namespace {
/// Fixed accounting overhead per entry: key copy in the index, list node,
/// map node, Entry struct. An estimate — what matters is that it is charged
/// consistently so the budget bounds real growth.
constexpr int64_t kEntryOverheadBytes = 96;

/// Counters saturate here (4-bit TinyLFU counters, stored one per byte).
constexpr uint8_t kMaxCount = 15;

/// splitmix64 finalizer: spreads the key hash over all 64 bits, whose two
/// halves the sketch's row and doorkeeper indices are taken from.
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

int64_t* SourceCache::GenerationCell(const std::string& source) {
  auto& cell = generations_[source];
  if (cell == nullptr) cell = std::make_unique<int64_t>(0);
  return cell.get();
}

int64_t SourceCache::Generation(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = generations_.find(source);
  return it == generations_.end() ? 0 : *it->second;
}

SourceCache::Pin SourceCache::PinSource(const std::string& source,
                                        int64_t generation) {
  Pin pin{source, generation, nullptr};
  std::lock_guard<std::mutex> lock(mu_);
  pin.live = GenerationCell(source);
  return pin;
}

int64_t SourceCache::BumpGeneration(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t* cell = GenerationCell(source);
  ++*cell;
  // Move the entries this bump made stale behind every live one. Visits
  // each entry once: moved ones land behind the unvisited ones.
  auto it = lru_.begin();
  for (size_t n = lru_.size(); n > 0; --n) {
    auto next = std::next(it);
    if (it->second.source_generation == cell && Stale(it->second)) {
      lru_.splice(lru_.end(), lru_, it);
    }
    it = next;
  }
  return *cell;
}

const SourceCache::Entry* SourceCache::Lookup(const std::string& key,
                                              uint64_t hash, bool count) {
  if (options_.byte_budget > 0) sketch_.Touch(hash);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (count) ++misses_;
    return nullptr;
  }
  // A stale entry keeps its place behind the live ones.
  if (!Stale(it->second->second)) {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  if (count) ++hits_;
  return &it->second->second;
}

std::shared_ptr<const FragmentList> SourceCache::LookupFill(
    const Pin& pin, const std::string& hole_id) {
  const std::string key = Key(pin, 'f', hole_id);
  const uint64_t hash = HashKey(key);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Lookup(key, hash, /*count=*/true);
  return entry == nullptr ? nullptr : entry->fragments;
}

bool SourceCache::ProbeFill(const Pin& pin, const std::string& hole_id) {
  const std::string key = Key(pin, 'f', hole_id);
  const uint64_t hash = HashKey(key);
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(key, hash, /*count=*/false) != nullptr;
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
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Lookup(key, hash, /*count=*/true);
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

bool SourceCache::EvictOne(int candidate, Lru* evicted) {
  if (lru_.empty()) return false;
  const Entry& tail = lru_.back().second;
  // Every stale entry sits behind every live one, so a live tail means
  // there is no stale entry to take first.
  if (!Stale(tail) && candidate <= sketch_.Estimate(tail.hash)) return false;
  bytes_ -= tail.bytes;
  index_.erase(lru_.back().first);
  evicted->splice(evicted->end(), lru_, std::prev(lru_.end()));
  ++evictions_;
  return true;
}

void SourceCache::Insert(const Pin& pin, const std::string& key, Entry entry) {
  entry.hash = HashKey(key);
  entry.generation = pin.generation;
  entry.source_generation = pin.live;
  // Declared before the lock, so victims are freed after it is released.
  Lru evicted;
  std::lock_guard<std::mutex> lock(mu_);
  // An entry larger than the budget would force the cache to evict
  // everything and still sit over budget; a fragment this large is cheaper
  // to re-fetch. A publish under a stale pin could only serve sessions
  // already in flight, and would be the next victim.
  if (entry.bytes > options_.byte_budget || Stale(entry)) {
    ++rejects_;
    return;
  }
  if (index_.count(key) != 0) return;  // the first publish won
  // Admission frequency of the candidate, read once room is needed.
  int candidate = -1;
  while (bytes_ + entry.bytes > options_.byte_budget) {
    if (candidate < 0) candidate = sketch_.Estimate(entry.hash);
    if (!EvictOne(candidate, &evicted)) {
      ++rejects_;
      return;
    }
  }
  bytes_ += entry.bytes;
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  auto it = lru_.emplace(lru_.begin(), key, std::move(entry));
  index_.emplace(key, it);
  sketch_.Reserve(lru_.size());
  ++insertions_;
}

SourceCache::Stats SourceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.rejects = rejects_;
  s.bytes = bytes_;
  s.entries = static_cast<int64_t>(lru_.size());
  s.peak_bytes = peak_bytes_;
  return s;
}

int64_t SourceCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace mix::buffer
