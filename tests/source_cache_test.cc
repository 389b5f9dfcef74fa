// Tests for the cross-session shared source-fragment cache (DESIGN.md §4)
// and the compiled-plan cache: byte-budget accounting and LRU eviction,
// generation-bump invalidation (E9 freshness), hit/miss metrics, the
// no-publish-of-degraded-fills guarantee, canonical plan keying, and a
// multithreaded hammer that the TSan CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "buffer/source_cache.h"
#include "mediator/plan_cache.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace mix::buffer {
namespace {

FragmentList OneElement(const std::string& label) {
  return {Fragment::Element(label)};
}

TEST(SourceCacheTest, HitMissAndStats) {
  SourceCache cache(SourceCache::Options{1 << 20, 4});
  EXPECT_EQ(cache.LookupFill("homes", 0, "t:homes:0"), nullptr);

  cache.PublishFill("homes", 0, "t:homes:0", OneElement("row"));
  auto hit = cache.LookupFill("homes", 0, "t:homes:0");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].label, "row");

  // Other generation, other source, other hole: all distinct keys.
  EXPECT_EQ(cache.LookupFill("homes", 1, "t:homes:0"), nullptr);
  EXPECT_EQ(cache.LookupFill("schools", 0, "t:homes:0"), nullptr);
  EXPECT_EQ(cache.LookupFill("homes", 0, "t:homes:10"), nullptr);

  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

TEST(SourceCacheTest, RootEntriesRoundTrip) {
  SourceCache cache(SourceCache::Options{1 << 20, 4});
  std::string root_id;
  EXPECT_FALSE(cache.LookupRoot("homes", 0, "homes.xml", &root_id));
  cache.PublishRoot("homes", 0, "homes.xml", "x:0:0:3");
  ASSERT_TRUE(cache.LookupRoot("homes", 0, "homes.xml", &root_id));
  EXPECT_EQ(root_id, "x:0:0:3");
  // Root and fill keys never collide, even for equal id strings.
  EXPECT_EQ(cache.LookupFill("homes", 0, "homes.xml"), nullptr);
}

TEST(SourceCacheTest, ByteBudgetNeverExceededAndLruEvicts) {
  // Measure one entry's charge (all four entries below have equal-length
  // keys and payloads), then budget exactly three of them.
  int64_t per_entry;
  {
    SourceCache probe(SourceCache::Options{1 << 20, 1});
    probe.PublishFill("s", 0, "a", OneElement("aa"));
    per_entry = probe.stats().bytes;
    ASSERT_GT(per_entry, 0);
  }
  const int64_t budget = 3 * per_entry;
  // One shard: the LRU order is exact, so eviction order is deterministic.
  SourceCache cache(SourceCache::Options{budget, 1});
  cache.PublishFill("s", 0, "a", OneElement("aa"));
  cache.PublishFill("s", 0, "b", OneElement("bb"));
  cache.PublishFill("s", 0, "c", OneElement("cc"));
  ASSERT_EQ(cache.stats().evictions, 0) << "budget sized for three entries";

  // Touch "a": it becomes most-recently-used, so the next eviction takes "b".
  ASSERT_NE(cache.LookupFill("s", 0, "a"), nullptr);
  cache.PublishFill("s", 0, "d", OneElement("dd"));

  SourceCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_NE(cache.LookupFill("s", 0, "a"), nullptr) << "MRU must survive";
  EXPECT_EQ(cache.LookupFill("s", 0, "b"), nullptr) << "LRU must be evicted";
  EXPECT_NE(cache.LookupFill("s", 0, "d"), nullptr);

  // The byte account matches the entries actually reachable.
  int64_t entries = cache.stats().entries;
  EXPECT_EQ(entries, 3);
}

TEST(SourceCacheTest, OversizeEntryRejected) {
  SourceCache cache(SourceCache::Options{128, 2});
  FragmentList big;
  for (int i = 0; i < 64; ++i) big.push_back(Fragment::Element("padpadpad"));
  cache.PublishFill("s", 0, "huge", std::move(big));
  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.rejects, 1);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(cache.LookupFill("s", 0, "huge"), nullptr);
}

TEST(SourceCacheTest, DisabledCacheDropsEverything) {
  SourceCache cache(SourceCache::Options{0, 2});
  cache.PublishFill("s", 0, "a", OneElement("x"));
  EXPECT_EQ(cache.LookupFill("s", 0, "a"), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(SourceCacheTest, DuplicatePublishRaceLeaksNoBytes) {
  // Satellite check for the reserve-then-insert protocol: PublishFill
  // reserves its bytes (CAS on the global account) BEFORE taking the shard
  // lock, and first-publish-wins means every concurrent duplicate loses the
  // insert. A loser that failed to release its reservation would leak
  // account bytes on every race — invisible to entry counts, fatal to the
  // budget (the account creeps up until all inserts are rejected).
  //
  // Baseline: one entry's exact charge (key width fixed so all keys cost
  // the same).
  int64_t per_entry;
  {
    SourceCache probe(SourceCache::Options{1 << 20, 1});
    probe.PublishFill("s", 0, "k:00", OneElement("vv"));
    per_entry = probe.stats().bytes;
    ASSERT_GT(per_entry, 0);
  }

  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kRounds = 64;
  SourceCache cache(SourceCache::Options{1 << 20, 8});
  auto key = [](int i) {
    return std::string("k:") + (i < 10 ? "0" : "") + std::to_string(i);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kKeys; ++i) {
          cache.PublishFill("s", 0, key(i), OneElement("vv"));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one copy of each key survives, and the byte account is exactly
  // kKeys entries — every losing duplicate returned its reservation.
  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.bytes, kKeys * per_entry);
  EXPECT_EQ(stats.insertions, kKeys);
  EXPECT_EQ(stats.evictions, 0);
  // The global reservation account agrees with what the shards hold.
  int64_t shard_sum = 0;
  for (const auto& ss : stats.shards) shard_sum += ss.bytes;
  EXPECT_EQ(stats.bytes, shard_sum);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_NE(cache.LookupFill("s", 0, key(i)), nullptr);
  }
}

TEST(SourceCacheTest, GenerationBumpInvalidatesWithoutScrubbing) {
  SourceCache cache(SourceCache::Options{1 << 20, 4});
  int64_t g0 = cache.Generation("homes");
  EXPECT_EQ(g0, 0);
  cache.PublishFill("homes", g0, "t:homes:0", OneElement("old"));

  int64_t g1 = cache.BumpGeneration("homes");
  EXPECT_EQ(g1, g0 + 1);
  EXPECT_EQ(cache.Generation("homes"), g1);
  // New sessions (pinned to g1) miss and re-fetch from the live wrapper...
  EXPECT_EQ(cache.LookupFill("homes", g1, "t:homes:0"), nullptr);
  // ...while in-flight sessions of the old generation keep their consistent
  // snapshot: stale entries are unreachable to new pins, not scrubbed.
  EXPECT_NE(cache.LookupFill("homes", g0, "t:homes:0"), nullptr);
  // Other sources are unaffected.
  EXPECT_EQ(cache.Generation("schools"), 0);
}

// ---------------------------------------------------------------------------
// Buffer integration: cache-aware BufferComponents.
// ---------------------------------------------------------------------------

const char* kHomes =
    "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]],"
    "home[addr[Nowhere],zip[99999]]]";

BufferComponent::Options CacheOptions(SourceCache* cache, int64_t generation) {
  BufferComponent::Options opts;
  opts.source_cache = cache;
  opts.cache_source = "homes";
  opts.cache_generation = generation;
  return opts;
}

TEST(SourceCacheBufferTest, SecondBufferServedEntirelyFromCache) {
  auto doc = testing::Doc(kHomes);
  SourceCache cache(SourceCache::Options{1 << 20, 4});

  wrappers::XmlLxpWrapper wrapper1(doc.get());
  BufferComponent buffer1(&wrapper1, "homes.xml", CacheOptions(&cache, 0));
  std::string first = testing::MaterializeToTerm(&buffer1);
  EXPECT_EQ(first, kHomes);
  EXPECT_GT(wrapper1.fills_served(), 0);

  // A second buffer (a second session) over its OWN wrapper instance: every
  // root/fill answer comes from the shared cache — zero wrapper exchanges —
  // and the materialized answer is byte-identical.
  wrappers::XmlLxpWrapper wrapper2(doc.get());
  BufferComponent buffer2(&wrapper2, "homes.xml", CacheOptions(&cache, 0));
  EXPECT_EQ(testing::MaterializeToTerm(&buffer2), first);
  EXPECT_EQ(wrapper2.fills_served(), 0);

  BufferComponent::Stats s2 = buffer2.stats();
  EXPECT_GT(s2.cache_hits, 0);
  EXPECT_EQ(s2.cache_misses, 0);
  EXPECT_EQ(s2.fills, buffer1.stats().fills)
      << "cache hits count as fills (same open-tree refinements)";
}

TEST(SourceCacheBufferTest, PinnedGenerationIgnoresNewerEntries) {
  auto doc = testing::Doc(kHomes);
  SourceCache cache(SourceCache::Options{1 << 20, 4});

  wrappers::XmlLxpWrapper wrapper1(doc.get());
  BufferComponent buffer1(&wrapper1, "homes.xml", CacheOptions(&cache, 0));
  testing::MaterializeToTerm(&buffer1);

  cache.BumpGeneration("homes");
  // A buffer pinned to the new generation cannot see gen-0 entries: it goes
  // to its wrapper (the E9 re-derivation) and republishes under gen 1.
  wrappers::XmlLxpWrapper wrapper2(doc.get());
  BufferComponent buffer2(&wrapper2, "homes.xml",
                          CacheOptions(&cache, cache.Generation("homes")));
  EXPECT_EQ(testing::MaterializeToTerm(&buffer2), kHomes);
  EXPECT_GT(wrapper2.fills_served(), 0);
  EXPECT_EQ(buffer2.stats().cache_hits, 0);
}

/// A wrapper whose root handshake works but every fill fails — the flaky
/// source whose degraded splices must never reach the shared cache.
class FillsAlwaysFailWrapper : public LxpWrapper {
 public:
  std::string GetRoot(const std::string&) override { return "h:root"; }
  FragmentList Fill(const std::string&) override { return {}; }
  Status TryFillMany(const std::vector<std::string>&, const FillBudget&,
                     HoleFillList*) override {
    return Status::Unavailable("source down");
  }
};

TEST(SourceCacheBufferTest, DegradedFillsAreNeverPublished) {
  SourceCache cache(SourceCache::Options{1 << 20, 4});
  FillsAlwaysFailWrapper wrapper;
  BufferComponent buffer(&wrapper, "down.xml", CacheOptions(&cache, 0));

  // Navigating forces the root fill to fail and degrade to #unavailable.
  (void)buffer.Root();
  EXPECT_GT(buffer.degraded_holes(), 0);

  // The only cache insertion is the (successful) get_root answer; the
  // degraded splice left no fill entry behind to poison other sessions.
  EXPECT_EQ(cache.LookupFill("homes", 0, "h:root"), nullptr);
  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);  // root id only
  std::string root_id;
  EXPECT_TRUE(cache.LookupRoot("homes", 0, "down.xml", &root_id));
}

// ---------------------------------------------------------------------------
// Compiled-plan cache.
// ---------------------------------------------------------------------------

const char* kQuery = R"(
CONSTRUCT <answer> $H {$H} </answer> {}
WHERE homesSrc homes.home $H
)";

TEST(PlanCacheTest, CanonicalKeyNormalizesOutsideLiterals) {
  using mediator::CanonicalXmasKey;
  EXPECT_EQ(CanonicalXmasKey("a   b\n\t c"), "a b c");
  EXPECT_EQ(CanonicalXmasKey("  lead and trail  "), "lead and trail");
  EXPECT_EQ(CanonicalXmasKey("x % a comment\ny"), "x y");
  // Whitespace and '%' inside single-quoted literals are content.
  EXPECT_EQ(CanonicalXmasKey("$V = 'a   b'"), "$V = 'a   b'");
  EXPECT_EQ(CanonicalXmasKey("$V = '100%'  AND x"), "$V = '100%' AND x");
  // Reformatted copies of one query collapse to the same key.
  EXPECT_EQ(CanonicalXmasKey("CONSTRUCT  <a>\n</a> {}"),
            CanonicalXmasKey("CONSTRUCT <a> </a> {}"));
}

TEST(PlanCacheTest, ReformattedQueryHitsSameSharedPlan) {
  mediator::PlanCache cache(mediator::PlanCache::Options{8});
  auto first = cache.GetOrCompile(kQuery);
  ASSERT_TRUE(first.ok());
  // Same query, different formatting + a comment: cache hit, same object.
  std::string reformatted =
      "CONSTRUCT <answer> $H {$H} </answer> {}   % construct clause\n"
      "WHERE homesSrc homes.home   $H\n";
  auto second = cache.GetOrCompile(reformatted);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());

  mediator::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(PlanCacheTest, FailuresAreNotCached) {
  mediator::PlanCache cache(mediator::PlanCache::Options{8});
  EXPECT_FALSE(cache.GetOrCompile("THIS IS NOT XMAS").ok());
  EXPECT_FALSE(cache.GetOrCompile("THIS IS NOT XMAS").ok());
  mediator::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 0);
}

TEST(PlanCacheTest, CapacityEvictsLeastRecentlyUsed) {
  mediator::PlanCache cache(mediator::PlanCache::Options{1});
  ASSERT_TRUE(cache.GetOrCompile(kQuery).ok());
  std::string other =
      "CONSTRUCT <b> $H {$H} </b> {} WHERE homesSrc homes.home $H";
  ASSERT_TRUE(cache.GetOrCompile(other).ok());
  EXPECT_EQ(cache.stats().entries, 1);
  // kQuery was evicted: compiling it again is a miss.
  ASSERT_TRUE(cache.GetOrCompile(kQuery).ok());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 3);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (runs under TSan in CI): concurrent publishes, lookups,
// and generation bumps over an undersized budget. The invariant sampled
// throughout: the byte account never exceeds the budget.
// ---------------------------------------------------------------------------

TEST(SourceCacheTest, ConcurrentHammerStaysWithinBudget) {
  constexpr int64_t kBudget = 4096;
  SourceCache cache(SourceCache::Options{kBudget, 4});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> over_budget{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &over_budget, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string hole = "h:" + std::to_string((t * 7 + i) % 64);
        int64_t gen = cache.Generation("src");
        if (i % 3 == 0) {
          cache.PublishFill("src", gen, hole, OneElement("e"));
        } else if (i % 97 == 0) {
          cache.BumpGeneration("src");
        } else {
          auto hit = cache.LookupFill("src", gen, hole);
          if (hit != nullptr && hit->empty()) over_budget = true;  // corrupt
        }
        if (cache.bytes() > kBudget) over_budget = true;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(over_budget.load());
  SourceCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_GT(stats.evictions, 0) << "undersized budget must churn";
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace mix::buffer
