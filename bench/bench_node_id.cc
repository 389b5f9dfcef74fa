// Microbenchmarks for the node-id hot path: minting Skolem-style ids,
// structural equality/hashing, container lookups, and the pass-through
// forwarding (`fw(...)`) ids of ValueSpace (Figs. 9/10's <id,p> rows).
//
// Every DOM-VXD command that crosses an operator boundary mints ids, so
// ns/op here multiplies through the whole plan. These benchmarks use only
// the stable public API (string-tag construction, ValueSpace, DocNavigable)
// so the same binary shape runs against any revision — the JSON emitted by
// scripts/run_bench.sh is the perf trajectory across PRs (with
// NODE_ID_PARENT set, it also carries rows of this source built against a
// parent checkout's library). Each benchmark runs 5 repetitions and reports
// only the aggregates (bench_stats.h).
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "algebra/value_space.h"
#include "bench_stats.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;

// Minting a binding-level id b(inst, i) over a small cycling range of i —
// the repeated re-mint pattern of operators re-serving navigations from
// already-issued bindings.
void BM_MintBindingIdCycling(benchmark::State& state) {
  int64_t instance = 7;
  int64_t i = 0;
  for (auto _ : state) {
    NodeId id("gd_b", {instance, i & 63});
    benchmark::DoNotOptimize(id);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MintBindingIdCycling)->Apply(bench::FiveRepetitions);

// Minting always-fresh binding ids — the forward-iteration pattern
// (every NextBinding hands out a new handle).
void BM_MintBindingIdFresh(benchmark::State& state) {
  int64_t instance = 7;
  int64_t i = 0;
  for (auto _ : state) {
    NodeId id("gd_b", {instance, i});
    benchmark::DoNotOptimize(id);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MintBindingIdFresh)->Apply(bench::FiveRepetitions);

// Nested mint: jn_b(inst, lb, ri) embedding an input binding id — the join
// shape, one level of structural nesting.
void BM_MintNestedId(benchmark::State& state) {
  int64_t instance = 9;
  NodeId inner("src", {int64_t{3}, int64_t{41}});
  int64_t i = 0;
  for (auto _ : state) {
    NodeId id("jn_b", {instance, inner, i & 63});
    benchmark::DoNotOptimize(id);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MintNestedId)->Apply(bench::FiveRepetitions);

// Structural equality between ids built independently (not shared reps) —
// the comparison done by every unordered container probe.
void BM_StructuralEquality(benchmark::State& state) {
  NodeId inner_a("src", {int64_t{1}, int64_t{17}});
  NodeId inner_b("src", {int64_t{1}, int64_t{17}});
  NodeId a("jn_b", {int64_t{5}, inner_a, int64_t{12}});
  NodeId b("jn_b", {int64_t{5}, inner_b, int64_t{12}});
  for (auto _ : state) {
    bool eq = a == b;
    benchmark::DoNotOptimize(eq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StructuralEquality)->Apply(bench::FiveRepetitions);

// unordered_map keyed by NodeId — groupBy's seq_index_, ValueSpace's
// handle table, client-side pointer maps.
void BM_UnorderedMapLookup(benchmark::State& state) {
  std::unordered_map<NodeId, int64_t, NodeIdHash> map;
  std::vector<NodeId> keys;
  for (int64_t i = 0; i < 256; ++i) {
    NodeId id("gb_b", {int64_t{4}, i});
    map[id] = i;
    // Re-mint (not copy) so lookups measure structural equality unless
    // reps are shared by interning.
    keys.emplace_back("gb_b", std::vector<NodeIdComponent>{int64_t{4}, i});
  }
  size_t k = 0;
  for (auto _ : state) {
    auto it = map.find(keys[k & 255]);
    benchmark::DoNotOptimize(it);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapLookup)->Apply(bench::FiveRepetitions);

// The pass-through path: wrap a source ref into fw(owner, handle, inner),
// navigate down, rewrap the result — one operator level of Fig. 9's
// <id, p_i> forwarding, repeated over the same subtree as a client
// revisiting issued handles does.
void BM_ValueSpacePassThrough(benchmark::State& state) {
  auto doc = xml::MakeHomesDoc(64, 8);
  xml::DocNavigable nav(doc.get());
  algebra::ValueSpace space(algebra::NextOperatorInstance());
  std::vector<NodeId> homes;
  for (auto child = nav.Down(nav.Root()); child.has_value();
       child = nav.Right(*child)) {
    homes.push_back(*child);
  }
  size_t k = 0;
  int64_t ops = 0;
  for (auto _ : state) {
    NodeId wrapped = space.Wrap(algebra::ValueRef{&nav, homes[k % homes.size()]});
    // Descend two levels through the forwarding space.
    std::optional<NodeId> down = space.Down(wrapped);
    if (down.has_value()) {
      benchmark::DoNotOptimize(space.Fetch(*down));
      std::optional<NodeId> right = space.Right(*down);
      benchmark::DoNotOptimize(right);
    }
    ops += 4;
    ++k;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_ValueSpacePassThrough)->Apply(bench::FiveRepetitions);

// Deep nesting: mint a chain id(id(id(...))) — stacked-mediator ids grow
// structurally with plan depth; hashing/equality must stay cheap.
void BM_MintDeeplyNested(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    NodeId id("src", {int64_t{1}, int64_t{0}});
    for (int d = 0; d < depth; ++d) {
      id = NodeId("fw", {int64_t{d}, int64_t{0}, id});
    }
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations() * (depth + 1));
}
BENCHMARK(BM_MintDeeplyNested)
    ->Arg(4)
    ->Arg(16)
    ->Apply(bench::FiveRepetitions);

// Hash of an already-built id (precomputed — should be a load).
void BM_HashPrecomputed(benchmark::State& state) {
  NodeId id("jn_b", {int64_t{5}, NodeId("src", {int64_t{1}, int64_t{17}}),
                     int64_t{12}});
  for (auto _ : state) {
    size_t h = id.Hash();
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashPrecomputed)->Apply(bench::FiveRepetitions);

}  // namespace
