// Tests for the cross-session shared source-fragment cache (DESIGN.md §4)
// and the compiled-plan cache: byte-budget accounting, LRU eviction behind
// frequency-gated (TinyLFU) admission, scan resistance, generation-bump
// invalidation (E9 freshness) with stale generations evicted first,
// hit/miss metrics, the no-publish-of-degraded-fills guarantee, canonical
// plan keying, and multithreaded hammers that the TSan CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "buffer/source_cache.h"
#include "core/bounded_cache.h"
#include "mediator/plan_cache.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace mix::buffer {
namespace {

FragmentList OneElement(const std::string& label) {
  return {Fragment::Element(label)};
}

TEST(SourceCacheTest, HitMissAndStats) {
  SourceCache cache(SourceCache::Options{1 << 20});
  const SourceCache::Pin homes = cache.PinSource("homes", 0);
  EXPECT_EQ(cache.LookupFill(homes, "t:homes:0"), nullptr);

  cache.PublishFill(homes, "t:homes:0", OneElement("row"));
  auto hit = cache.LookupFill(homes, "t:homes:0");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].label, "row");

  // Other generation, other source, other hole: all distinct keys.
  EXPECT_EQ(cache.LookupFill(cache.PinSource("homes", 1), "t:homes:0"),
            nullptr);
  EXPECT_EQ(cache.LookupFill(cache.PinSource("schools", 0), "t:homes:0"),
            nullptr);
  EXPECT_EQ(cache.LookupFill(homes, "t:homes:10"), nullptr);

  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

TEST(SourceCacheTest, RootEntriesRoundTrip) {
  SourceCache cache(SourceCache::Options{1 << 20});
  const SourceCache::Pin homes = cache.PinSource("homes", 0);
  std::string root_id;
  EXPECT_FALSE(cache.LookupRoot(homes, "homes.xml", &root_id));
  cache.PublishRoot(homes, "homes.xml", "x:0:0:3");
  ASSERT_TRUE(cache.LookupRoot(homes, "homes.xml", &root_id));
  EXPECT_EQ(root_id, "x:0:0:3");
  // Root and fill keys never collide, even for equal id strings.
  EXPECT_EQ(cache.LookupFill(homes, "homes.xml"), nullptr);
}

/// The charge of one fill entry `id` of source `source` holding
/// OneElement("vv").
int64_t EntryCharge(const std::string& source, const std::string& id) {
  SourceCache probe;
  probe.PublishFill(probe.PinSource(source, 0), id, OneElement("vv"));
  return probe.stats().bytes;
}

/// Reads `id` the way a buffer does: look it up, and on a miss fetch the
/// fill and publish it. True on a hit.
bool LookupOrPublish(SourceCache* cache, const SourceCache::Pin& pin,
                     const std::string& id) {
  if (cache->LookupFill(pin, id) != nullptr) return true;
  cache->PublishFill(pin, id, OneElement("vv"));
  return false;
}

TEST(SourceCacheTest, ByteBudgetNeverExceededAndLruEvicts) {
  // Equal-length keys and payloads.
  const std::string a = "k100";
  const std::string b = "k101";
  const std::string c = "k102";
  const std::string d = "k103";
  const std::string e = "k104";
  // Budget exactly three entries.
  const int64_t per_entry = EntryCharge("s", a);
  ASSERT_GT(per_entry, 0);
  const int64_t budget = 3 * per_entry;
  SourceCache cache(SourceCache::Options{budget});
  const SourceCache::Pin s = cache.PinSource("s", 0);
  // The buffer's order: a lookup misses, then the fetched fill is published.
  for (const std::string& id : {a, b, c}) {
    EXPECT_FALSE(LookupOrPublish(&cache, s, id));
  }
  ASSERT_EQ(cache.stats().evictions, 0) << "budget sized for three entries";

  // Touch a: it becomes most-recently-used, so the next eviction takes b.
  ASSERT_NE(cache.LookupFill(s, a), nullptr);
  // Two sessions miss d before one publishes it: d is wanted more often than
  // the LRU tail b, so it displaces b.
  EXPECT_EQ(cache.LookupFill(s, d), nullptr);
  EXPECT_FALSE(LookupOrPublish(&cache, s, d));

  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_NE(cache.LookupFill(s, a), nullptr) << "MRU must survive";
  EXPECT_EQ(cache.LookupFill(s, b), nullptr) << "LRU must be evicted";
  EXPECT_NE(cache.LookupFill(s, d), nullptr);

  // The byte account matches the entries actually reachable.
  EXPECT_EQ(cache.stats().entries, 3);

  // e, missed once, is not wanted more often than the new LRU tail c: it is
  // dropped, and c stays.
  EXPECT_FALSE(LookupOrPublish(&cache, s, e));
  stats = cache.stats();
  EXPECT_EQ(stats.rejects, 1);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(cache.LookupFill(s, e), nullptr);
  EXPECT_NE(cache.LookupFill(s, c), nullptr);
}

TEST(SourceCacheTest, EvictionTakesTheGlobalLeastRecentlyUsedEntry) {
  // Eight keys whose hashes fall in four residues mod 8 — four of the
  // eight lock stripes a striped cache would split them into, each with its
  // own LRU tail — fill a budget of eight entries, in key order, twice.
  auto key = [](int i) {
    return std::string("h:") + (i < 10 ? "0" : "") + std::to_string(i);
  };
  const int64_t per_entry = EntryCharge("s", key(0));
  SourceCache cache(SourceCache::Options{8 * per_entry});
  const SourceCache::Pin s = cache.PinSource("s", 0);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) LookupOrPublish(&cache, s, key(i));
  }
  ASSERT_EQ(cache.stats().entries, 8);
  // Three candidates, each wanted more often than any cached key, evict
  // the three least recently used entries in order: h:00, h:01, h:02.
  for (int i = 8; i < 11; ++i) {
    for (int miss = 0; miss < 3; ++miss) {
      ASSERT_EQ(cache.LookupFill(s, key(i)), nullptr);
    }
    cache.PublishFill(s, key(i), OneElement("vv"));
    EXPECT_EQ(cache.stats().evictions, i - 7);
  }
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(cache.LookupFill(s, key(i)) != nullptr, i >= 3)
        << "key " << key(i);
  }
}

TEST(SourceCacheTest, HotSetSurvivesCyclicScanLargerThanBudget) {
  // Budget: 16 scan entries. A scan cycles through 64 keys (4x the budget);
  // after every 8th scan step one of 4 hot keys is read, so each hot key
  // recurs every 32 scan steps. Under LRU those 32 inserts evict it before
  // every reuse; a frequency-gated cache keeps the hot set and turns scan
  // entries away instead.
  auto scan_id = [](int i) {
    return std::string("scan:") + (i < 10 ? "0" : "") + std::to_string(i);
  };
  const int64_t per_entry = EntryCharge("s", scan_id(0));
  SourceCache cache(SourceCache::Options{16 * per_entry});
  const SourceCache::Pin s = cache.PinSource("s", 0);
  constexpr int kCycles = 12;
  int hot_lookups = 0;
  int hot_hits = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      LookupOrPublish(&cache, s, scan_id(i));
      if (i % 8 != 7) continue;
      const bool hit =
          LookupOrPublish(&cache, s, "hot:" + std::to_string((i / 8) % 4));
      if (cycle == kCycles - 1) {
        ++hot_lookups;
        hot_hits += hit ? 1 : 0;
      }
    }
    ASSERT_LE(cache.bytes(), cache.byte_budget());
  }
  EXPECT_EQ(hot_hits, hot_lookups) << "the hot set must stay cached";
  EXPECT_GT(cache.stats().rejects, 0) << "scan entries are turned away";
}

TEST(SourceCacheTest, StaleGenerationEvictedBeforeLiveEntries) {
  // Two sources with equal-length names, so every entry costs the same.
  const int64_t per_entry = EntryCharge("aa", "k:0");
  SourceCache cache(SourceCache::Options{8 * per_entry});
  const SourceCache::Pin bb = cache.PinSource("bb", 0);
  const SourceCache::Pin aa = cache.PinSource("aa", 0);
  for (int i = 0; i < 4; ++i) {
    LookupOrPublish(&cache, bb, "k:" + std::to_string(i));
    LookupOrPublish(&cache, aa, "k:" + std::to_string(i));
  }
  // Read aa's entries again: they are now the most recent and the most
  // frequent entries in the cache.
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(cache.LookupFill(aa, "k:" + std::to_string(i)), nullptr);
  }
  ASSERT_EQ(cache.stats().entries, 8);
  cache.BumpGeneration("aa");

  // Four new live entries, each missed once: by frequency alone they would
  // lose to every live entry, but the stale generation goes first.
  for (int i = 4; i < 8; ++i) {
    EXPECT_FALSE(LookupOrPublish(&cache, bb, "k:" + std::to_string(i)));
  }
  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 4);
  EXPECT_EQ(stats.rejects, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(cache.LookupFill(bb, "k:" + std::to_string(i)), nullptr)
        << "live entry k:" << i << " was evicted";
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.LookupFill(aa, "k:" + std::to_string(i)), nullptr)
        << "stale entry k:" << i << " outlived a live one";
  }

  // A session still pinned to aa's old generation publishes into the full
  // cache: its stale entry displaces nothing.
  cache.PublishFill(aa, "k:9", OneElement("vv"));
  stats = cache.stats();
  EXPECT_EQ(stats.rejects, 1);
  EXPECT_EQ(stats.evictions, 4);
  EXPECT_EQ(stats.entries, 8);
  EXPECT_EQ(cache.LookupFill(aa, "k:9"), nullptr);

  // No stale entry is left: a new session's once-missed candidate loses to
  // the live tail, after a stale pass that found nothing.
  const SourceCache::Pin aa1 = cache.PinSource("aa", 1);
  EXPECT_FALSE(LookupOrPublish(&cache, aa1, "k:0"));
  EXPECT_EQ(cache.stats().rejects, 2);
  // A second bump makes bb's entries stale in turn: they go first again.
  cache.BumpGeneration("bb");
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(LookupOrPublish(&cache, aa1, "k:" + std::to_string(i)));
  }
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 8);
  EXPECT_EQ(stats.rejects, 2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(cache.LookupFill(aa1, "k:" + std::to_string(i)), nullptr);
  }
}

TEST(SourceCacheTest, OversizeEntryRejected) {
  SourceCache cache(SourceCache::Options{128});
  const SourceCache::Pin s = cache.PinSource("s", 0);
  FragmentList big;
  for (int i = 0; i < 64; ++i) big.push_back(Fragment::Element("padpadpad"));
  cache.PublishFill(s, "huge", std::move(big));
  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.rejects, 1);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(cache.LookupFill(s, "huge"), nullptr);
}

TEST(SourceCacheTest, DisabledCacheDropsEverything) {
  SourceCache cache(SourceCache::Options{0});
  const SourceCache::Pin s = cache.PinSource("s", 0);
  cache.PublishFill(s, "a", OneElement("x"));
  EXPECT_EQ(cache.LookupFill(s, "a"), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(SourceCacheTest, DuplicatePublishRaceLeaksNoBytes) {
  // First publish wins: every concurrent duplicate loses the insert. A
  // loser that charged its bytes anyway would leak account bytes on every
  // race — invisible to entry counts, fatal to the budget (the account
  // creeps up until all inserts are rejected).
  //
  // Baseline: one entry's exact charge (key width fixed so all keys cost
  // the same).
  int64_t per_entry;
  {
    SourceCache probe;
    probe.PublishFill(probe.PinSource("s", 0), "k:00", OneElement("vv"));
    per_entry = probe.stats().bytes;
    ASSERT_GT(per_entry, 0);
  }

  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kRounds = 64;
  SourceCache cache(SourceCache::Options{1 << 20});
  const SourceCache::Pin s = cache.PinSource("s", 0);
  auto key = [](int i) {
    return std::string("k:") + (i < 10 ? "0" : "") + std::to_string(i);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kKeys; ++i) {
          cache.PublishFill(s, key(i), OneElement("vv"));
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
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_NE(cache.LookupFill(s, key(i)), nullptr);
  }
}

TEST(SourceCacheTest, GenerationBumpInvalidatesWithoutScrubbing) {
  SourceCache cache(SourceCache::Options{1 << 20});
  int64_t g0 = cache.Generation("homes");
  EXPECT_EQ(g0, 0);
  const SourceCache::Pin old_pin = cache.PinSource("homes", g0);
  cache.PublishFill(old_pin, "t:homes:0", OneElement("old"));

  int64_t g1 = cache.BumpGeneration("homes");
  EXPECT_EQ(g1, g0 + 1);
  EXPECT_EQ(cache.Generation("homes"), g1);
  // New sessions (pinned to g1) miss and re-fetch from the live wrapper...
  EXPECT_EQ(cache.LookupFill(cache.PinSource("homes", g1), "t:homes:0"),
            nullptr);
  // ...while in-flight sessions of the old generation keep their consistent
  // snapshot: stale entries are unreachable to new pins, not scrubbed.
  EXPECT_NE(cache.LookupFill(old_pin, "t:homes:0"), nullptr);
  // Other sources are unaffected.
  EXPECT_EQ(cache.Generation("schools"), 0);
}

// ---------------------------------------------------------------------------
// Buffer integration: cache-aware BufferComponents.
// ---------------------------------------------------------------------------

const char* kHomes =
    "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]],"
    "home[addr[Nowhere],zip[99999]]]";

/// Buffer options sharing `cache` under source "homes", pinned to its
/// current generation.
BufferComponent::Options CacheOptions(SourceCache* cache) {
  BufferComponent::Options opts;
  opts.source_cache = cache;
  opts.cache_source = "homes";
  opts.cache_generation = cache->Generation("homes");
  return opts;
}

TEST(SourceCacheBufferTest, SecondBufferServedEntirelyFromCache) {
  auto doc = testing::Doc(kHomes);
  SourceCache cache(SourceCache::Options{1 << 20});

  wrappers::XmlLxpWrapper wrapper1(doc.get());
  BufferComponent buffer1(&wrapper1, "homes.xml", CacheOptions(&cache));
  std::string first = testing::MaterializeToTerm(&buffer1);
  EXPECT_EQ(first, kHomes);
  EXPECT_GT(wrapper1.fills_served(), 0);

  // A second buffer (a second session) over its OWN wrapper instance: every
  // root/fill answer comes from the shared cache — zero wrapper exchanges —
  // and the materialized answer is byte-identical.
  wrappers::XmlLxpWrapper wrapper2(doc.get());
  BufferComponent buffer2(&wrapper2, "homes.xml", CacheOptions(&cache));
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
  SourceCache cache(SourceCache::Options{1 << 20});

  wrappers::XmlLxpWrapper wrapper1(doc.get());
  BufferComponent buffer1(&wrapper1, "homes.xml", CacheOptions(&cache));
  testing::MaterializeToTerm(&buffer1);

  cache.BumpGeneration("homes");
  // A buffer pinned to the new generation cannot see gen-0 entries: it goes
  // to its wrapper (the E9 re-derivation) and republishes under gen 1.
  wrappers::XmlLxpWrapper wrapper2(doc.get());
  BufferComponent buffer2(&wrapper2, "homes.xml", CacheOptions(&cache));
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
  SourceCache cache(SourceCache::Options{1 << 20});
  FillsAlwaysFailWrapper wrapper;
  BufferComponent buffer(&wrapper, "down.xml", CacheOptions(&cache));

  // Navigating forces the root fill to fail and degrade to #unavailable.
  (void)buffer.Root();
  EXPECT_GT(buffer.degraded_holes(), 0);

  // The only cache insertion is the (successful) get_root answer; the
  // degraded splice left no fill entry behind to poison other sessions.
  const SourceCache::Pin homes = cache.PinSource("homes", 0);
  EXPECT_EQ(cache.LookupFill(homes, "h:root"), nullptr);
  SourceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);  // root id only
  std::string root_id;
  EXPECT_TRUE(cache.LookupRoot(homes, "down.xml", &root_id));
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
  SourceCache cache(SourceCache::Options{kBudget});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> over_budget{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &over_budget, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string hole = "h:" + std::to_string((t * 7 + i) % 64);
        const SourceCache::Pin pin =
            cache.PinSource("src", cache.Generation("src"));
        if (i % 3 == 0) {
          cache.PublishFill(pin, hole, OneElement("e"));
        } else if (i % 97 == 0) {
          cache.BumpGeneration("src");
        } else {
          auto hit = cache.LookupFill(pin, hole);
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

TEST(SourceCacheTest, ConcurrentAdmissionAndStaleEvictionKeepTheAccount) {
  // Sessions over two sources pin a generation for 50 reads at a time, so
  // bumps on other threads leave them reading and publishing a stale
  // generation: stale hits, stale publishes, stale evictions and rejected
  // candidates all race with live admissions on a budget of ~24 entries.
  const int64_t kBudget = 24 * EntryCharge("s0", "h:00");
  SourceCache cache(SourceCache::Options{kBudget});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;
  std::atomic<bool> over_budget{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &over_budget, kBudget, t] {
      const std::string source = "s" + std::to_string(t % 2);
      SourceCache::Pin pin;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 50 == 0) {
          pin = cache.PinSource(source, cache.Generation(source));
        }
        if (i % 331 == 0) cache.BumpGeneration(source);
        // A hot quarter of the keys is read 4x as often as the rest.
        const int k = i % 5 == 0 ? (t * 13 + i) % 96 : (t + i) % 24;
        LookupOrPublish(&cache, pin,
                        std::string("h:") + (k < 10 ? "0" : "") +
                            std::to_string(k));
        if (cache.bytes() > kBudget) over_budget = true;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(over_budget.load());
  SourceCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_LE(stats.peak_bytes, kBudget);
  EXPECT_EQ(stats.insertions - stats.evictions, stats.entries);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.rejects, 0);
  EXPECT_GT(stats.hits, 0);
  // Every surviving entry is reachable: a lookup of every key any session
  // could have published finds exactly `entries` of them.
  int64_t reachable = 0;
  for (const std::string source : {"s0", "s1"}) {
    for (int64_t g = 0; g <= cache.Generation(source); ++g) {
      const SourceCache::Pin pin = cache.PinSource(source, g);
      for (int k = 0; k < 96; ++k) {
        const std::string id =
            std::string("h:") + (k < 10 ? "0" : "") + std::to_string(k);
        reachable += cache.LookupFill(pin, id) != nullptr ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(reachable, stats.entries);
}

// ---------------------------------------------------------------------------
// The cache core every tier is built on.
// ---------------------------------------------------------------------------

TEST(CacheCoreTest, RefusedInsertNeverBuildsItsValue) {
  GenerationRegistry generations;
  BoundedCache<int> cache(/*budget=*/2, Admission::kFrequency, &generations);
  const GenerationRegistry::Pin pin = generations.PinSource("s", 0);
  int made = 0;
  auto make = [&made] { return ++made; };
  auto insert = [&](const std::string& key, int64_t cost) {
    return cache.Insert(key, cost, {&pin.stamp, 1}, make);
  };
  using Outcome = BoundedCache<int>::Outcome;
  EXPECT_EQ(insert("a", 1), Outcome::kInserted);
  EXPECT_EQ(insert("b", 1), Outcome::kInserted);
  EXPECT_EQ(insert("a", 1), Outcome::kDuplicate);
  EXPECT_EQ(insert("c", 3), Outcome::kOverBudget);
  // "c" is not looked up more often than the LRU tail "a": it loses.
  EXPECT_EQ(insert("c", 1), Outcome::kRejected);
  generations.Bump("s");
  EXPECT_EQ(insert("d", 1), Outcome::kStale);
  EXPECT_EQ(made, 2);
  EXPECT_EQ(cache.stats().rejects, 3);
}

TEST(CacheCoreTest, BumpKeepsPinnedGenerationsAndDropsTheRest) {
  // One registry, two tiers: a bump applies the same rule to both.
  GenerationRegistry generations;
  BoundedCache<int> fragments(/*budget=*/8, Admission::kFrequency,
                              &generations);
  BoundedCache<int> views(/*budget=*/8, Admission::kLru, &generations);
  auto held = std::make_unique<GenerationRegistry::Pins>(
      generations.PinSources({"held", "free"}));
  const GenerationRegistry::Stamp stamps[] = {(*held)[0].stamp,
                                              (*held)[1].stamp};
  for (BoundedCache<int>* cache : {&fragments, &views}) {
    cache->Insert("held", 1, {&stamps[0], 1}, [] { return 1; });
    cache->Insert("free", 1, {&stamps[1], 1}, [] { return 2; });
  }
  // Only the held generation stays pinned through the bumps.
  GenerationRegistry::Pin keep = generations.PinSource("held", 0);
  held.reset();
  generations.Bump("held");
  generations.Bump("free");
  for (BoundedCache<int>* cache : {&fragments, &views}) {
    int value = 0;
    EXPECT_TRUE(cache->Find("held", /*count=*/true, &value));
    EXPECT_EQ(value, 1);
    EXPECT_FALSE(cache->Find("free", /*count=*/true, &value));
    EXPECT_EQ(cache->stats().entries, 1);
    EXPECT_EQ(cache->stats().evictions, 1);
  }
  EXPECT_EQ(generations.bumps(), 2);
}

}  // namespace
}  // namespace mix::buffer
