#include "core/bounded_cache.h"

namespace mix {

namespace {
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

/// (a + k*b) & mask, with a and b the two halves of the mixed hash (double
/// hashing). Row r probes k = r, the doorkeeper k = kRows. Every mask is a
/// power of two minus one, so after doubling a key's slot is its old slot
/// or the old slot + old width — the copy in Grow lands every count where
/// it is read.
size_t Probe(uint64_t mixed, uint64_t k, size_t mask) {
  return static_cast<size_t>(((mixed & 0xffffffffu) + k * ((mixed >> 32) | 1)) &
                             mask);
}
}  // namespace

size_t FrequencySketch::Slot(uint64_t mixed, int row) const {
  return static_cast<size_t>(row) * width_ + Probe(mixed, row, width_ - 1);
}

size_t FrequencySketch::DoorBit(uint64_t mixed) const {
  return Probe(mixed, kRows, width_ * 8 - 1);
}

void FrequencySketch::Grow(size_t width) {
  std::vector<uint8_t> counters(kRows * width);
  std::vector<uint64_t> door(width / 8);
  for (size_t i = 0; width_ > 0 && i < counters.size(); ++i) {
    counters[i] = counters_[i / width * width_ + (i % width & (width_ - 1))];
  }
  for (size_t w = 0; !door_.empty() && w < door.size(); ++w) {
    door[w] = door_[w % door_.size()];
  }
  counters_ = std::move(counters);
  door_ = std::move(door);
  width_ = width;
}

void FrequencySketch::Reserve(size_t entries) {
  size_t width = std::max(width_, kMinWidth);
  while (width < kWidthPerEntry * entries) width *= 2;
  if (width != width_) Grow(width);
}

void FrequencySketch::Touch(uint64_t hash) {
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

int FrequencySketch::Estimate(uint64_t hash) const {
  if (width_ == 0) return 0;
  const uint64_t mixed = Mix(hash);
  int count = kMaxCount;
  for (int r = 0; r < kRows; ++r) {
    count = std::min<int>(count, counters_[Slot(mixed, r)]);
  }
  const size_t bit = DoorBit(mixed);
  return count + static_cast<int>((door_[bit / 64] >> (bit % 64)) & 1);
}

}  // namespace mix
