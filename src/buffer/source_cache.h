// Cross-session shared source-fragment cache (DESIGN.md §4 "Shared
// source-fragment & plan caches"). N concurrent sessions browsing the same
// view re-issue N identical get_root/fill exchanges; LXP hole ids are
// stateless encodings of source positions (`t:<table>:<row>`,
// `x:<node>:<lo>:<hi>`, ...), so the fragment list refining a hole id is a
// pure function that this cache memoizes:
//
//   (source id, generation, hole/root key)  ->  immutable fragment list
//
// The fragment tier of the cache core (core/bounded_cache.h): entries cost
// their serialized-size estimate plus fixed overhead against a byte budget,
// and TinyLFU admission lets a cyclic scan larger than the budget pass
// without displacing the reused set. The buffer publishes a fill only after
// it validated and spliced, so degraded `#unavailable` splices never enter.
#ifndef MIX_BUFFER_SOURCE_CACHE_H_
#define MIX_BUFFER_SOURCE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "buffer/lxp.h"
#include "core/bounded_cache.h"

namespace mix::buffer {

class SourceCache {
 public:
  struct Options {
    /// Byte budget of the whole cache; <= 0 disables the cache (lookups
    /// miss, publishes are dropped).
    int64_t byte_budget = int64_t{64} << 20;
  };

  /// `generations` (not owned): the registry the service's tiers share.
  explicit SourceCache(Options options,
                       GenerationRegistry* generations = nullptr);
  SourceCache() : SourceCache(Options()) {}

  SourceCache(const SourceCache&) = delete;
  SourceCache& operator=(const SourceCache&) = delete;

  /// A session's hold on one source: the generation it reads and publishes
  /// under.
  using Pin = GenerationRegistry::Pin;

  int64_t Generation(const std::string& source) {
    return core_.generations().Generation(source);
  }
  Pin PinSource(const std::string& source, int64_t generation) {
    return core_.generations().PinSource(source, generation);
  }
  /// Bumps `source` in the registry (every tier follows it).
  int64_t BumpGeneration(const std::string& source) {
    return core_.generations().Bump(source);
  }

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
  /// are deterministic — so dropping the loser is free). A refused publish
  /// (stale pin, duplicate, over budget, lost admission) never allocates.
  void PublishFill(const Pin& pin, const std::string& hole_id,
                   FragmentList fragments);

  /// Cached get_root answer for `uri`, or false.
  bool LookupRoot(const Pin& pin, const std::string& uri,
                  std::string* root_id);
  void PublishRoot(const Pin& pin, const std::string& uri,
                   const std::string& root_id);

  /// `rejects` counts publishes dropped without insertion: a single entry
  /// exceeded the whole budget, the candidate was not more frequent than
  /// the victim it would displace, or it was published under a stale pin.
  using Stats = CacheStats;
  Stats stats() const { return core_.stats(); }

  int64_t bytes() const { return core_.bytes(); }
  int64_t byte_budget() const { return core_.budget(); }

 private:
  /// A fill entry carries `fragments`, a root entry `root_id`.
  struct Cached {
    std::shared_ptr<const FragmentList> fragments;
    std::string root_id;
  };

  static std::string Key(const Pin& pin, char kind, const std::string& id);

  BoundedCache<Cached> core_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_SOURCE_CACHE_H_
