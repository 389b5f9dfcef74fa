#include "buffer/source_cache.h"

#include <utility>

namespace mix::buffer {

namespace {
/// Fixed accounting overhead per entry: key copy in the index, list node,
/// map node, entry struct. An estimate — what matters is that it is charged
/// consistently so the budget bounds real growth.
constexpr int64_t kEntryOverheadBytes = 96;
}  // namespace

SourceCache::SourceCache(Options options, GenerationRegistry* generations)
    // Fragments admit by frequency: scans must not flush the reused set.
    : core_(options.byte_budget, Admission::kFrequency, generations) {}

std::string SourceCache::Key(const Pin& pin, char kind, const std::string& id) {
  // 0x1f (unit separator) cannot appear in source names or hole ids, so the
  // concatenation is injective.
  std::string key;
  key.reserve(pin.stamp.source->name.size() + id.size() + 24);
  key += pin.stamp.source->name;
  key += '\x1f';
  key += std::to_string(pin.stamp.generation);
  key += '\x1f';
  key += kind;
  key += '\x1f';
  key += id;
  return key;
}

std::shared_ptr<const FragmentList> SourceCache::LookupFill(
    const Pin& pin, const std::string& hole_id) {
  Cached hit;
  core_.Find(Key(pin, 'f', hole_id), /*count=*/true, &hit);
  return std::move(hit.fragments);
}

bool SourceCache::ProbeFill(const Pin& pin, const std::string& hole_id) {
  return core_.Find(Key(pin, 'f', hole_id), /*count=*/false, nullptr);
}

void SourceCache::PublishFill(const Pin& pin, const std::string& hole_id,
                              FragmentList fragments) {
  if (!core_.enabled()) return;
  const std::string key = Key(pin, 'f', hole_id);
  const int64_t bytes = kEntryOverheadBytes +
                        static_cast<int64_t>(key.size()) +
                        FragmentListByteSize(fragments);
  core_.Insert(key, bytes, {&pin.stamp, 1}, [&fragments] {
    return Cached{std::make_shared<const FragmentList>(std::move(fragments)),
                  {}};
  });
}

bool SourceCache::LookupRoot(const Pin& pin, const std::string& uri,
                             std::string* root_id) {
  Cached hit;
  if (!core_.Find(Key(pin, 'r', uri), /*count=*/true, &hit)) return false;
  *root_id = std::move(hit.root_id);
  return true;
}

void SourceCache::PublishRoot(const Pin& pin, const std::string& uri,
                              const std::string& root_id) {
  if (!core_.enabled()) return;
  const std::string key = Key(pin, 'r', uri);
  const int64_t bytes = kEntryOverheadBytes +
                        static_cast<int64_t>(key.size()) +
                        static_cast<int64_t>(root_id.size());
  core_.Insert(key, bytes, {&pin.stamp, 1},
               [&root_id] { return Cached{nullptr, root_id}; });
}

}  // namespace mix::buffer
