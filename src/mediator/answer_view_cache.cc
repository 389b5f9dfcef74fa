#include "mediator/answer_view_cache.h"

#include <algorithm>
#include <cstdlib>

#include "xml/materialize.h"

namespace mix::mediator {

namespace {

using Kind = PlanNode::Kind;
using Op = algebra::CompareOp;

/// Label the buffer splices in for holes that exhausted their retries
/// (buffer.h); answers containing it are partial and must not be shared.
constexpr char kUnavailableLabel[] = "#unavailable";

void CollectSources(const PlanNode& n, std::vector<std::string>* out) {
  if (n.kind == Kind::kSource) out->push_back(n.source_name);
  for (const PlanPtr& c : n.children) CollectSources(*c, out);
}

/// The node binding `var` in a binding-stream subtree, or nullptr.
const PlanNode* FindProducer(const PlanNode& n, const std::string& var) {
  switch (n.kind) {
    case Kind::kSource:
    case Kind::kCachedView:
      if (n.var == var) return &n;
      break;
    case Kind::kGetDescendants:
    case Kind::kGroupBy:
    case Kind::kConcatenate:
    case Kind::kCreateElement:
    case Kind::kWrapList:
    case Kind::kConst:
    case Kind::kRename:
      if (n.out_var == var) return &n;
      break;
    default:
      break;
  }
  for (const PlanPtr& c : n.children) {
    if (const PlanNode* p = FindProducer(*c, var)) return p;
  }
  return nullptr;
}

bool Contains(const algebra::VarList& vars, const std::string& v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

/// Same full-literal numeric parse as algebra::CompareAtoms.
bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

/// (v oi a) ⇒ (v oc b) given cmp = sign(compare(a, b)), for one fixed
/// total order.
bool ImpliesWithOrder(Op oi, Op oc, int cmp) {
  switch (oc) {
    case Op::kEq:
      return oi == Op::kEq && cmp == 0;
    case Op::kNe:
      switch (oi) {
        case Op::kEq:
          return cmp != 0;
        case Op::kNe:
          return cmp == 0;
        case Op::kLt:  // v < a and a <= b  ⇒  v < b  ⇒  v != b
          return cmp <= 0;
        case Op::kLe:
          return cmp < 0;
        case Op::kGt:
          return cmp >= 0;
        case Op::kGe:
          return cmp > 0;
      }
      return false;
    case Op::kLt:
      return (oi == Op::kLt && cmp <= 0) || (oi == Op::kLe && cmp < 0) ||
             (oi == Op::kEq && cmp < 0);
    case Op::kLe:
      return (oi == Op::kLt || oi == Op::kLe || oi == Op::kEq) && cmp <= 0;
    case Op::kGt:
      return (oi == Op::kGt && cmp >= 0) || (oi == Op::kGe && cmp > 0) ||
             (oi == Op::kEq && cmp > 0);
    case Op::kGe:
      return (oi == Op::kGt || oi == Op::kGe || oi == Op::kEq) && cmp >= 0;
  }
  return false;
}

std::vector<ViewPredicate> SortedPreds(std::vector<ViewPredicate> preds) {
  std::sort(preds.begin(), preds.end(),
            [](const ViewPredicate& a, const ViewPredicate& b) {
              if (a.var != b.var) return a.var < b.var;
              if (a.op != b.op) return a.op < b.op;
              return a.constant < b.constant;
            });
  return preds;
}

bool SamePredSet(const std::vector<ViewPredicate>& a,
                 const std::vector<ViewPredicate>& b) {
  return SortedPreds(a) == SortedPreds(b);
}

/// Every cached conjunct implied by some incoming conjunct (Pi ⇒ Pc).
bool AllImplied(const std::vector<ViewPredicate>& cached,
                const std::vector<ViewPredicate>& incoming) {
  for (const ViewPredicate& want : cached) {
    bool ok = false;
    for (const ViewPredicate& have : incoming) {
      if (PredicateImplies(have, want)) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

/// Serving plan for an exact match: replay the snapshot document.
PlanPtr BuildDocServingPlan(const ViewShape& shape) {
  std::string var = shape.create_out.empty() ? "view" : shape.create_out;
  return PlanNode::TupleDestroy(
      PlanNode::CachedView(kAnswerViewSourceName, var, /*children=*/false),
      var);
}

/// Serving plan for a predicate-subsumed match: re-filter the snapshot
/// root's children with the FULL incoming select chain, then rebuild the
/// crown with the incoming plan's own variable names.
PlanPtr BuildChildrenServingPlan(const ViewShape& shape) {
  PlanPtr inner = PlanNode::CachedView(kAnswerViewSourceName,
                                       shape.grouped_var, /*children=*/true);
  for (auto it = shape.preds.rbegin(); it != shape.preds.rend(); ++it) {
    inner = PlanNode::Select(std::move(inner),
                             algebra::BindingPredicate::VarConst(
                                 it->var, it->op, it->constant));
  }
  inner = PlanNode::GroupBy(std::move(inner), {}, shape.grouped_var,
                            shape.group_out);
  inner = PlanNode::CreateElement(std::move(inner), /*label_is_constant=*/true,
                                  shape.root_label, shape.group_out,
                                  shape.create_out);
  return PlanNode::TupleDestroy(std::move(inner), shape.create_out);
}

}  // namespace

bool PredicateImplies(const ViewPredicate& have, const ViewPredicate& want) {
  if (have.var != want.var) return false;
  double na = 0;
  double nb = 0;
  bool have_num = ParseNumber(have.constant, &na);
  bool want_num = ParseNumber(want.constant, &nb);
  // Mixed numeric-ness: a value that parses as a number compares
  // numerically against one constant and lexicographically against the
  // other — no single order covers both, so claim nothing.
  if (have_num != want_num) return false;
  int raw = have.constant.compare(want.constant);
  int lex = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
  if (!have_num) return ImpliesWithOrder(have.op, want.op, lex);
  int num = na < nb ? -1 : (na > nb ? 1 : 0);
  // Numeric values see the numeric order, non-numeric values the
  // lexicographic one; implication must hold under both.
  return ImpliesWithOrder(have.op, want.op, num) &&
         ImpliesWithOrder(have.op, want.op, lex);
}

ViewShape ComputeViewShape(const PlanNode& raw_plan) {
  ViewShape shape;
  if (raw_plan.kind != Kind::kTupleDestroy || raw_plan.children.size() != 1) {
    return shape;
  }
  CollectSources(raw_plan, &shape.sources);
  std::sort(shape.sources.begin(), shape.sources.end());
  shape.sources.erase(
      std::unique(shape.sources.begin(), shape.sources.end()),
      shape.sources.end());

  PlanPtr work = raw_plan.Clone();
  // Strip a transparent project under tupleDestroy: it only narrows the
  // binding schema, and tupleDestroy reads a single variable.
  while (work->children[0]->kind == Kind::kProject) {
    PlanNode* proj = work->children[0].get();
    std::string destroyed = work->var;
    if (destroyed.empty()) {
      if (proj->vars.size() != 1) break;
      destroyed = proj->vars[0];
    }
    if (!Contains(proj->vars, destroyed)) break;
    PlanPtr inner = std::move(proj->children[0]);
    work->children[0] = std::move(inner);
    work->var = destroyed;
  }

  PlanNode* ce = work->children[0].get();
  if (ce->kind == Kind::kCreateElement && ce->label_is_constant &&
      ce->children.size() == 1) {
    PlanNode* gb = ce->children[0].get();
    if (gb->kind == Kind::kGroupBy && gb->vars.empty() &&
        ce->x_var == gb->out_var &&
        (work->var.empty() || work->var == ce->out_var)) {
      // Re-grouping is only sound when the grouped values cannot be list
      // nodes (createElement flattens lists, so a second grouping pass
      // would flatten one level deeper). Accept only plain tree
      // producers; anything else stays exact-match-only.
      const PlanNode* producer =
          FindProducer(*gb->children[0], gb->grouped_var);
      if (producer != nullptr && (producer->kind == Kind::kSource ||
                                  producer->kind == Kind::kGetDescendants ||
                                  producer->kind == Kind::kCreateElement ||
                                  producer->kind == Kind::kConst)) {
        shape.factored = true;
        shape.root_label = ce->label;
        shape.create_out = ce->out_var;
        shape.group_out = gb->out_var;
        shape.grouped_var = gb->grouped_var;
        // Strip the chain of var-constant selects on the grouped var.
        PlanPtr* cur = &gb->children[0];
        while ((*cur)->kind == Kind::kSelect) {
          const algebra::BindingPredicate& p = *(*cur)->predicate;
          if (p.is_var_var() || p.left_var() != gb->grouped_var) break;
          shape.preds.push_back({p.left_var(), p.op(), p.constant()});
          PlanPtr inner = std::move((*cur)->children[0]);
          *cur = std::move(inner);
        }
      }
    }
  }

  shape.base_key = work->ToString();
  shape.valid = true;
  return shape;
}

AnswerViewCache::AnswerViewCache(Options options,
                                 GenerationRegistry* generations)
    // Views are pure LRU, as their tests pin down.
    : core_(options.byte_budget, Admission::kLru, generations) {}

AnswerViewCache::Match AnswerViewCache::TryMatch(const ViewShape& shape) {
  Match m;
  if (!enabled()) return m;
  bool seen = false;       // some entry shares the base key
  bool predicate = false;  // a live one's predicates do not subsume
  auto match = [&](const std::shared_ptr<const AnswerSnapshot>& entry,
                   bool stale) {
    seen = true;
    if (stale || !shape.valid) return false;
    const ViewShape& cached = entry->shape;
    if (SamePredSet(cached.preds, shape.preds)) {
      m.plan = BuildDocServingPlan(shape);
    } else if (shape.factored && cached.factored &&
               AllImplied(cached.preds, shape.preds)) {
      m.plan = BuildChildrenServingPlan(shape);
    } else {
      predicate = true;
      return false;
    }
    return true;
  };
  if (!core_.Find(shape.base_key, /*count=*/true, match, &m.snapshot)) {
    Reject(!shape.valid ? "shape"
           : !seen      ? "absent"
           : predicate  ? "predicate"
                        : "stale");
  }
  return m;
}

void AnswerViewCache::Publish(const ViewShape& shape,
                              const std::vector<SubtreeEntry>& entries,
                              const GenerationRegistry::Pins& pins) {
  if (!enabled()) return;
  if (!shape.valid) return Reject("shape");
  int64_t bytes = 0;
  for (const SubtreeEntry& e : entries) {
    if (e.truncated) return Reject("truncated");
    if (e.label.name() == kUnavailableLabel) return Reject("degraded");
    bytes += static_cast<int64_t>(e.label.name().size()) + kViewNodeOverheadBytes;
  }
  if (shape.factored && !entries.empty() &&
      entries[0].label.name() != shape.root_label) {
    return Reject("shape");
  }
  if (bytes > core_.budget()) return Reject("budget");

  // Build the snapshot outside the lock; a losing duplicate is dropped.
  auto snap = std::make_shared<AnswerSnapshot>();
  snap->doc = std::make_unique<xml::Document>();
  xml::Node* root = xml::BuildFromSubtreeEntries(entries, snap->doc.get());
  if (root == nullptr) return Reject("malformed");
  snap->doc->set_root(root);
  snap->nav = std::make_unique<xml::DocNavigable>(snap->doc.get());
  snap->shape = shape;

  // The view is stamped with the donor's pins of the sources it reads.
  std::vector<GenerationRegistry::Stamp> stamps;
  for (const std::string& src : shape.sources) {
    const GenerationRegistry::Pin* pin = GenerationRegistry::Find(pins, src);
    if (pin == nullptr) return Reject("stale");
    stamps.push_back(pin->stamp);
  }
  using Outcome = decltype(core_)::Outcome;
  const Outcome outcome = core_.Insert(
      shape.base_key, bytes, stamps,
      [&shape](const std::shared_ptr<const AnswerSnapshot>& e) {
        return SamePredSet(e->shape.preds, shape.preds);
      },
      [&snap] { return std::move(snap); });
  if (outcome == Outcome::kStale) Reject("stale");
  if (outcome == Outcome::kDuplicate) Reject("duplicate");
}

AnswerViewCache::Stats AnswerViewCache::stats() const {
  const CacheStats core = core_.stats();
  Stats s;
  s.hits = core.hits;
  s.misses = core.misses;
  s.publishes = core.insertions;
  s.evictions = core.evictions;
  s.invalidations = core_.generations().bumps();
  s.bytes = core.bytes;
  s.entries = core.entries;
  std::lock_guard<std::mutex> lock(rejects_mu_);
  s.rejects = rejects_;
  return s;
}

}  // namespace mix::mediator
