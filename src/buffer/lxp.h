// The Lean XML fragment Protocol (LXP), paper Section 4.
//
// LXP has exactly two commands:
//
//   get_root(URI)    -> hole[id]     — handle for the root of a source view;
//   fill(hole[id])   -> [T*]         — a fragment list refining that hole.
//
// Holes (Def. 3) are reserved elements `hole[id]` representing zero or more
// unexplored sibling elements (Def. 4). A fill may be *liberal* (Ex. 7):
// holes may appear at arbitrary positions, subject to the progress
// conditions the paper imposes for termination: a non-empty fill cannot
// consist only of holes, and no two holes may be adjacent.
//
// `Fragment` is the value exchanged by fills — an open tree. Wrappers decide
// the granularity: a relational wrapper ships n tuples per fill, a Web
// wrapper ships a page, etc. The generic buffer (buffer.h) grafts fragments
// into its open tree and never needs wrapper-specific code.
#ifndef MIX_BUFFER_LXP_H_
#define MIX_BUFFER_LXP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/source_capability.h"
#include "core/status.h"
#include "xml/tree.h"

namespace mix::buffer {

class FillFuture;  // async_fill.h — completion handle for in-flight fills.

/// One node of an open tree fragment: an element/leaf or a hole.
struct Fragment {
  bool is_hole = false;
  std::string hole_id;              ///< valid when is_hole.
  std::string label;                ///< valid when !is_hole.
  bool is_text = false;             ///< cosmetic (serialization only).
  std::vector<Fragment> children;   ///< valid when !is_hole.

  static Fragment Hole(std::string id);
  static Fragment Element(std::string label, std::vector<Fragment> children = {});
  static Fragment Text(std::string content);

  /// Deep-copies an in-memory subtree (no holes) into a fragment.
  static Fragment FromXmlSubtree(const xml::Node* node);

  /// Serialized-size estimate in bytes, used for channel accounting.
  int64_t ByteSize() const;

  /// Term rendering, holes as `hole[id]` — for tests against Ex. 6/7.
  std::string ToTerm() const;
};

using FragmentList = std::vector<Fragment>;

int64_t FragmentListByteSize(const FragmentList& list);

/// One element of a batched fill response (`LxpWrapper::FillMany`): the
/// refined hole and its fragment list. Each list obeys the same progress
/// conditions as a single fill.
struct HoleFill {
  std::string hole_id;
  FragmentList fragments;
};

using HoleFillList = std::vector<HoleFill>;

int64_t HoleFillListByteSize(const HoleFillList& fills);

/// Bounds on how far a batched fill may run ahead of the requested holes.
/// Negative values mean unbounded. `{}` (both unbounded) asks the wrapper to
/// refine the requested holes *completely* — chase every continuation hole
/// its own responses introduce at the top level, leaving the affected
/// sibling lists hole-free.
struct FillBudget {
  /// Stop chasing once this many top-level (non-hole) fragments have been
  /// emitted across the whole batch — demand paging: "I need k more
  /// siblings, stop as soon as you have shipped them". The buffer's
  /// single-hole demand fill asks for {elements = 1}: "I need the first
  /// element" — one fill from a wrapper that keeps the progress conditions.
  int64_t elements = -1;
  /// Stop chasing once this many fills have been performed (the requested
  /// holes always count, and are always all served) — speculation depth:
  /// "run at most k fills ahead". A readahead flight asks for its buffer's
  /// chase depth: 1 at first, doubling per consumed flight up to the
  /// buffer's max_in_flight (buffer.h).
  int64_t fills = -1;
};

/// Parses a hole id's numeric field: a non-empty run of decimal digits that
/// fits an int64_t, nothing else. The wrappers' CheckHole overrides use it.
bool ParseHoleIndex(std::string_view text, int64_t* out);

/// The capability a wrapper advertises to the plan optimizer, under the
/// name wrappers override `Capability()` with.
using PushdownCapability = SourceCapability;

/// The LXP server role, implemented by every wrapper.
///
/// Contract (paper Section 4): all ids handed out via GetRoot/embedded holes
/// remain valid; Fill must satisfy the progress conditions (a non-empty
/// result is not all holes; no two adjacent holes) and the sequence of
/// refinements must be extendable to the complete source tree.
class LxpWrapper {
 public:
  virtual ~LxpWrapper() = default;

  /// Capability advertisement for the plan optimizer. The default is the
  /// empty capability: no σ, no pushdown (correct for CSV/XML/scripted
  /// wrappers, which serve exactly one fixed view).
  virtual PushdownCapability Capability() const { return {}; }

  /// get_root: establishes the connection and returns the root hole id.
  virtual std::string GetRoot(const std::string& uri) = 0;

  /// fill: refines the hole into a fragment list.
  virtual FragmentList Fill(const std::string& hole_id) = 0;

  /// fill_many: coalesced fills — one request/response exchange refining
  /// several holes. Returns one entry per requested hole (in request
  /// order), each satisfying the single-fill contract; within `budget` the
  /// wrapper may append further entries for *top-level* continuation holes
  /// its own responses introduced, so a k-step hole chase costs one
  /// exchange instead of k. Entries are ordered so that each filled hole
  /// already exists once the entries before it are spliced.
  ///
  /// The default implementation loops Fill() over the requested holes and
  /// never chases (safe for any wrapper, including scripted ones).
  virtual HoleFillList FillMany(const std::vector<std::string>& holes,
                                const FillBudget& budget);

  /// Status-returning variants — the fallible face of the same protocol.
  /// The buffer calls exactly two faces: TryGetRoot and BeginFillMany (whose
  /// sync shim runs TryFillMany). Every fill it issues, a single hole's
  /// included, is one fill_many exchange. A wrapper backed by a real network
  /// (the framed stub, a fault-injecting decorator) overrides them to report
  /// transport failures as Status instead of fabricating empty results,
  /// which is what lets the buffer retry, back off, or degrade instead of
  /// aborting. The defaults delegate to the legacy methods and always
  /// succeed, so existing in-process wrappers need no changes. TryFill is
  /// the single-hole convenience for wrappers that forward to one another.
  /// The defaults first check every requested hole with CheckHole, so a
  /// peer's id that the wrapper never issued comes back as
  /// kInvalidArgument instead of reaching Fill's invariant checks.
  virtual Status TryGetRoot(const std::string& uri, std::string* out);
  virtual Status TryFill(const std::string& hole_id, FragmentList* out);
  virtual Status TryFillMany(const std::vector<std::string>& holes,
                             const FillBudget& budget, HoleFillList* out);

  /// Async submit/complete seam. BeginFillMany submits one batched fill
  /// exchange and returns a completion handle immediately; the caller
  /// overlaps other work and later Wait()s (or registers OnComplete).
  ///
  /// The default is a *sync shim*: it runs TryFillMany inline and returns
  /// an already-completed future — deterministic immediate completion, so
  /// every existing wrapper (scripted, XML, CSV, relational, the
  /// fault-injecting decorator) participates in the async engine unchanged
  /// and byte-identically. Only wrappers backed by a real async transport
  /// (FramedLxpWrapper over TcpFrameTransport) override this to put a
  /// readahead flight genuinely in flight.
  ///
  /// Thread-safety contract: unless a wrapper documents otherwise, callers
  /// must not invoke Begin*/Try*/Fill concurrently on one wrapper — the
  /// concurrency lives *between* wrappers (one per source) and inside the
  /// transport, not inside a wrapper instance.
  virtual std::shared_ptr<FillFuture> BeginFillMany(
      const std::vector<std::string>& holes, const FillBudget& budget);

 protected:
  /// OK when `hole_id` is one this wrapper could have issued, i.e. Fill
  /// may be called with it; kInvalidArgument otherwise. The default
  /// accepts every id (scripted wrappers and decorators check nothing of
  /// their own).
  virtual Status CheckHole(const std::string& hole_id) const;

  /// Budgeted chasing loop shared by the concrete wrappers: serves each
  /// requested hole via Fill(), then keeps filling top-level holes
  /// introduced by its own responses (FIFO) while the budget allows.
  /// Nested holes (unexplored children) are never chased — they do not
  /// block the sibling lists the caller is completing, and filling them
  /// would ship bytes the client never asked for.
  ///
  /// Adaptive fill sizing: a chase that keeps producing full chunks with a
  /// continuation hole is a scan, and per-chunk cursor re-seeks dominate at
  /// small chunks (the PR 2 batched-full-scan regression). ChaseFills
  /// therefore grows a fill-size hint geometrically (2x per consecutive
  /// continued fill, capped by the remaining element budget and
  /// kMaxFillSizeHint) and offers it to the wrapper via SetFillSizeHint
  /// before each continuation fill. Demand chases only: a fill-bounded
  /// (speculative/readahead) chase keeps the wrapper's configured chunk, so
  /// a speculation budget of k fills cannot balloon into k oversized ones,
  /// and its fills have the fragment boundaries — hence the hole ids — of
  /// one-fill exchanges: a chased readahead flight splices exactly what a
  /// window-0 buffer would, and its SourceCache entries serve sessions
  /// with any window.
  HoleFillList ChaseFills(const std::vector<std::string>& holes,
                          const FillBudget& budget);

  /// Ceiling for the adaptive hint. Deliberately modest: inside a chase the
  /// exchange is already coalesced (messages don't shrink with bigger
  /// fills), so the hint only amortizes per-fill overhead — and oversized
  /// fragment lists lose on allocator/cache locality (the E3 chunk sweep
  /// puts the per-fill sweet spot near a few hundred elements).
  static constexpr int64_t kMaxFillSizeHint = 512;

  /// Suggested element count for the NEXT Fill() call; 0 resets to the
  /// wrapper's configured chunk. Honoring it is optional (default no-op) —
  /// wrappers with stateless cursor encodings simply serve
  /// max(configured chunk, hint) elements.
  virtual void SetFillSizeHint(int64_t elements) { (void)elements; }
};

/// Scripted wrapper for tests: replays a fixed hole-id → fragment-list map
/// (e.g. the Ex. 7 trace verbatim).
class ScriptedLxpWrapper : public LxpWrapper {
 public:
  ScriptedLxpWrapper(std::string root_hole_id,
                     std::map<std::string, FragmentList> fills)
      : root_(std::move(root_hole_id)), fills_(std::move(fills)) {}

  std::string GetRoot(const std::string& uri) override;
  FragmentList Fill(const std::string& hole_id) override;

  /// Fill requests received, in order (for asserting minimality).
  const std::vector<std::string>& fill_log() const { return fill_log_; }

 private:
  std::string root_;
  std::map<std::string, FragmentList> fills_;
  std::vector<std::string> fill_log_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_LXP_H_
