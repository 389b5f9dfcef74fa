#include "core/node_id.h"

#include <array>
#include <atomic>
#include <functional>
#include <new>
#include <utility>

#include "core/check.h"

namespace mix {

namespace {

size_t CombineHash(size_t seed, size_t value) {
  // Boost-style hash combining.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

size_t HashComponent(const NodeIdComponent& c) {
  if (const auto* i = std::get_if<int64_t>(&c)) {
    return std::hash<int64_t>()(*i);
  }
  if (const auto* s = std::get_if<std::string>(&c)) {
    return std::hash<std::string>()(*s);
  }
  return std::get<NodeId>(c).Hash();
}

size_t HashParts(Atom tag, const NodeIdComponent* components, size_t arity) {
  size_t h = AtomHash()(tag);
  for (size_t i = 0; i < arity; ++i) {
    h = CombineHash(h, HashComponent(components[i]));
  }
  return h;
}

bool ComponentEquals(const NodeIdComponent& a, const NodeIdComponent& b) {
  if (a.index() != b.index()) return false;
  switch (a.index()) {
    case 0:
      return *std::get_if<int64_t>(&a) == *std::get_if<int64_t>(&b);
    case 1:
      return *std::get_if<std::string>(&a) == *std::get_if<std::string>(&b);
    default:
      // NodeId::operator== takes the shared-rep pointer fast path.
      return *std::get_if<NodeId>(&a) == *std::get_if<NodeId>(&b);
  }
}

// ---------------------------------------------------------------------------
// Rep block pool: per-thread free list recycling the allocate_shared blocks
// (rep + control block in one allocation). Thread-local, so Take/Give touch
// no shared state and need no locking; a block freed on a different thread
// than it was allocated on simply joins that thread's list (all pooled
// blocks are the same size). The list drains to operator delete at thread
// exit.
//
// The list is short (kMaxFree). A session's ids are released by whichever
// worker runs its last command, so some threads free far more blocks than
// they mint: their lists sit full, and blocks parked there are memory no
// other thread can reuse. At 4096 blocks (~0.9 MB) a list, the peak memory
// of a server under one fixed load varied by up to 2.5 MB from run to run,
// with which thread happened to free what; 256 blocks (~56 KB) bound that
// while a thread's own mint/release churn still recycles.
// ---------------------------------------------------------------------------

class RepPool {
 public:
  /// Forces construction of this thread's pool state. The intern cache
  /// calls this from its own constructor so the pool's thread_local is
  /// constructed FIRST and therefore destroyed LAST: cache teardown at
  /// thread exit releases shared_ptrs whose deleter calls Give(), which
  /// would otherwise touch an already-destroyed thread_local (UB). With
  /// multiple worker threads minting ids (the mixd service), threads exit
  /// while their caches still hold reps, so the ordering matters.
  static void Warm() { Tls(); }

  static void* Take(size_t size) {
    Local& local = Tls();
    if (local.free != nullptr && size == local.block_size) {
      FreeNode* block = local.free;
      local.free = block->next;
      --local.count;
      return block;
    }
    return ::operator new(size);
  }

  static void Give(void* block, size_t size) {
    Local& local = Tls();
    if (local.block_size == 0) local.block_size = size;
    if (size == local.block_size && local.count < kMaxFree) {
      auto* node = static_cast<FreeNode*>(block);
      node->next = local.free;
      local.free = node;
      ++local.count;
      return;
    }
    ::operator delete(block);
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr size_t kMaxFree = 256;

  struct Local {
    FreeNode* free = nullptr;
    size_t count = 0;
    /// All pooled blocks are allocate_shared<Rep> blocks of one size,
    /// learned from the first deallocation; other sizes fall through to
    /// operator new/delete.
    size_t block_size = 0;

    ~Local() {
      while (free != nullptr) {
        FreeNode* next = free->next;
        ::operator delete(free);
        free = next;
      }
    }
  };

  static Local& Tls() {
    thread_local Local local;
    return local;
  }
};

template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    if (n == 1) return static_cast<T*>(RepPool::Take(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) {
    if (n == 1) {
      RepPool::Give(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const {
    return false;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Rep: shared immutable term representation with in-situ small components.
// ---------------------------------------------------------------------------

struct NodeId::Rep {
  static constexpr uint32_t kInlineArity = 4;

  Atom tag;
  uint32_t arity = 0;
  size_t hash = 0;
  /// Components live in `inline_comps` for arity <= kInlineArity, otherwise
  /// all of them live in `overflow` (the inline slots stay unused).
  std::array<NodeIdComponent, kInlineArity> inline_comps;
  std::vector<NodeIdComponent> overflow;

  const NodeIdComponent* data() const {
    return arity <= kInlineArity ? inline_comps.data() : overflow.data();
  }

  bool Matches(Atom t, const NodeIdComponent* components, size_t n) const {
    if (tag != t || arity != n) return false;
    const NodeIdComponent* mine = data();
    for (size_t i = 0; i < n; ++i) {
      if (!ComponentEquals(mine[i], components[i])) return false;
    }
    return true;
  }
};

namespace {

// ---------------------------------------------------------------------------
// Bounded hash-consing cache: direct-mapped and thread-local, so probing and
// inserting are lock-free. A slot conflict simply evicts (outstanding ids
// keep their reps alive via shared_ptr), so memory stays bounded at
// kInternSlots reps per minting thread. Ids minted on different threads
// never share a rep — operator== falls back to structural comparison for
// them, exactly as it does across an eviction.
//
// Admission policy: a miss does not immediately cache the fresh rep.
// Forward scans mint millions of ids exactly once, and caching those would
// turn every mint into an eviction (a shared_ptr release + rep destruction
// per mint — measurably slower than not caching at all). Instead each slot
// remembers the hash of its last rejected key (`seen`); only a key minted
// *twice* is admitted. Recurring ids (re-mints of issued handles, wrap ids
// on the pass-through path) are cached from their second sighting, one-shot
// ids never displace them.
// ---------------------------------------------------------------------------

constexpr size_t kInternSlots = 2048;

/// Rep pointer and doorkeeper share a slot so a mint touches one cache line.
struct InternSlot {
  std::shared_ptr<const NodeId::Rep> rep;
  /// Doorkeeper: hash of the most recent rejected miss.
  size_t seen = 0;
};

struct InternCache {
  InternCache() { RepPool::Warm(); }  // pool TLS must outlive the cache
  std::array<InternSlot, kInternSlots> slots;
};

InternCache& Cache() {
  thread_local InternCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const NodeId::Rep> NodeId::Mint(Atom tag,
                                                NodeIdComponent* components,
                                                size_t arity) {
  size_t hash = HashParts(tag, components, arity);
  InternSlot& slot = Cache().slots[(hash ^ (hash >> 13)) & (kInternSlots - 1)];
  std::shared_ptr<const Rep>& cached = slot.rep;
  if (cached != nullptr && cached->hash == hash &&
      cached->Matches(tag, components, arity)) {
    return cached;
  }
  auto rep = std::allocate_shared<Rep>(PoolAllocator<Rep>());
  rep->tag = tag;
  rep->arity = static_cast<uint32_t>(arity);
  rep->hash = hash;
  if (arity <= Rep::kInlineArity) {
    for (size_t i = 0; i < arity; ++i) {
      rep->inline_comps[i] = std::move(components[i]);
    }
  } else {
    rep->overflow.assign(std::make_move_iterator(components),
                         std::make_move_iterator(components + arity));
  }
  if (slot.seen == hash) {
    cached = rep;
  } else {
    slot.seen = hash;
  }
  return rep;
}

NodeId::NodeId(std::string tag, std::vector<NodeIdComponent> components)
    : rep_(Mint(Atom::Intern(tag), components.data(), components.size())) {}

NodeId::NodeId(Atom tag) : rep_(Mint(tag, nullptr, 0)) {}

NodeId::NodeId(Atom tag, NodeIdComponent c0) {
  NodeIdComponent comps[] = {std::move(c0)};
  rep_ = Mint(tag, comps, 1);
}

NodeId::NodeId(Atom tag, NodeIdComponent c0, NodeIdComponent c1) {
  NodeIdComponent comps[] = {std::move(c0), std::move(c1)};
  rep_ = Mint(tag, comps, 2);
}

NodeId::NodeId(Atom tag, NodeIdComponent c0, NodeIdComponent c1,
               NodeIdComponent c2) {
  NodeIdComponent comps[] = {std::move(c0), std::move(c1), std::move(c2)};
  rep_ = Mint(tag, comps, 3);
}

NodeId::NodeId(Atom tag, NodeIdComponent c0, NodeIdComponent c1,
               NodeIdComponent c2, NodeIdComponent c3) {
  NodeIdComponent comps[] = {std::move(c0), std::move(c1), std::move(c2),
                             std::move(c3)};
  rep_ = Mint(tag, comps, 4);
}

NodeId::NodeId(Atom tag, std::vector<NodeIdComponent> components)
    : rep_(Mint(tag, components.data(), components.size())) {}

Atom NodeId::tag_atom() const {
  MIX_CHECK(valid());
  return rep_->tag;
}

const std::string& NodeId::tag() const {
  MIX_CHECK(valid());
  return rep_->tag.name();
}

size_t NodeId::arity() const {
  MIX_CHECK(valid());
  return rep_->arity;
}

const NodeIdComponent& NodeId::ComponentAt(size_t i) const {
  MIX_CHECK(valid());
  MIX_CHECK(i < rep_->arity);
  return rep_->data()[i];
}

int64_t NodeId::IntAt(size_t i) const {
  const auto* v = std::get_if<int64_t>(&ComponentAt(i));
  MIX_CHECK_MSG(v != nullptr, "NodeId component is not an int");
  return *v;
}

const std::string& NodeId::StrAt(size_t i) const {
  const auto* v = std::get_if<std::string>(&ComponentAt(i));
  MIX_CHECK_MSG(v != nullptr, "NodeId component is not a string");
  return *v;
}

const NodeId& NodeId::IdAt(size_t i) const {
  const auto* v = std::get_if<NodeId>(&ComponentAt(i));
  MIX_CHECK_MSG(v != nullptr, "NodeId component is not a NodeId");
  return *v;
}

bool NodeId::EqualsSlow(const NodeId& other) const {
  // rep_ == other.rep_ was already ruled out by the inline fast path.
  if (!rep_ || !other.rep_) return false;
  if (rep_->hash != other.rep_->hash) return false;
  return rep_->Matches(other.rep_->tag, other.rep_->data(), other.rep_->arity);
}

size_t NodeId::Hash() const {
  if (!rep_) return 0;
  return rep_->hash;
}

std::string NodeId::ToString() const {
  if (!rep_) return "<null>";
  std::string s = rep_->tag.name();
  if (rep_->arity == 0) return s;
  s += "(";
  const NodeIdComponent* comps = rep_->data();
  for (size_t i = 0; i < rep_->arity; ++i) {
    if (i > 0) s += ",";
    const NodeIdComponent& c = comps[i];
    if (const auto* v = std::get_if<int64_t>(&c)) {
      s += std::to_string(*v);
    } else if (const auto* str = std::get_if<std::string>(&c)) {
      s += "'" + *str + "'";
    } else {
      s += std::get<NodeId>(c).ToString();
    }
  }
  s += ")";
  return s;
}

}  // namespace mix
