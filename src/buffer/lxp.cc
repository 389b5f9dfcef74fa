#include "buffer/lxp.h"

#include <charconv>

#include <deque>
#include <utility>

#include "buffer/async_fill.h"
#include "core/check.h"

namespace mix::buffer {

Fragment Fragment::Hole(std::string id) {
  Fragment f;
  f.is_hole = true;
  f.hole_id = std::move(id);
  return f;
}

Fragment Fragment::Element(std::string label, std::vector<Fragment> children) {
  Fragment f;
  f.label = std::move(label);
  f.children = std::move(children);
  return f;
}

Fragment Fragment::Text(std::string content) {
  Fragment f;
  f.label = std::move(content);
  f.is_text = true;
  return f;
}

Fragment Fragment::FromXmlSubtree(const xml::Node* node) {
  MIX_CHECK(node != nullptr);
  if (node->kind == xml::NodeKind::kText) return Text(node->label);
  Fragment f = Element(node->label);
  f.children.reserve(node->children.size());
  for (const xml::Node* c : node->children) {
    f.children.push_back(FromXmlSubtree(c));
  }
  return f;
}

int64_t Fragment::ByteSize() const {
  if (is_hole) {
    // <hole id="..."/>
    return 12 + static_cast<int64_t>(hole_id.size());
  }
  // Open+close tag overhead plus label bytes.
  int64_t n = 5 + 2 * static_cast<int64_t>(label.size());
  for (const Fragment& c : children) n += c.ByteSize();
  return n;
}

std::string Fragment::ToTerm() const {
  if (is_hole) return "hole[" + hole_id + "]";
  if (children.empty()) return label;
  std::string out = label + "[";
  bool first = true;
  for (const Fragment& c : children) {
    if (!first) out += ",";
    first = false;
    out += c.ToTerm();
  }
  out += "]";
  return out;
}

int64_t FragmentListByteSize(const FragmentList& list) {
  int64_t n = 0;
  for (const Fragment& f : list) n += f.ByteSize();
  return n;
}

int64_t HoleFillListByteSize(const HoleFillList& fills) {
  int64_t n = 0;
  for (const HoleFill& f : fills) {
    // Per-entry framing: the echoed hole id plus its fragment list.
    n += 8 + static_cast<int64_t>(f.hole_id.size()) +
         FragmentListByteSize(f.fragments);
  }
  return n;
}

HoleFillList LxpWrapper::FillMany(const std::vector<std::string>& holes,
                                  const FillBudget& budget) {
  (void)budget;
  HoleFillList out;
  out.reserve(holes.size());
  for (const std::string& id : holes) out.push_back(HoleFill{id, Fill(id)});
  return out;
}

Status LxpWrapper::TryGetRoot(const std::string& uri, std::string* out) {
  *out = GetRoot(uri);
  return Status::OK();
}

bool ParseHoleIndex(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && text.front() != '-';
}

Status LxpWrapper::CheckHole(const std::string& hole_id) const {
  (void)hole_id;
  return Status::OK();
}

Status LxpWrapper::TryFill(const std::string& hole_id, FragmentList* out) {
  Status checked = CheckHole(hole_id);
  if (!checked.ok()) return checked;
  *out = Fill(hole_id);
  return Status::OK();
}

Status LxpWrapper::TryFillMany(const std::vector<std::string>& holes,
                               const FillBudget& budget, HoleFillList* out) {
  for (const std::string& hole : holes) {
    Status checked = CheckHole(hole);
    if (!checked.ok()) return checked;
  }
  *out = FillMany(holes, budget);
  return Status::OK();
}

std::shared_ptr<FillFuture> LxpWrapper::BeginFillMany(
    const std::vector<std::string>& holes, const FillBudget& budget) {
  // Sync shim: run the exchange inline and hand back a resolved future.
  // Deterministic immediate completion — the async engine degenerates to
  // the exact synchronous call sequence over wrappers that don't override.
  HoleFillList fills;
  Status status = TryFillMany(holes, budget, &fills);
  return FillFuture::Resolved(std::move(status), std::move(fills));
}

HoleFillList LxpWrapper::ChaseFills(const std::vector<std::string>& holes,
                                    const FillBudget& budget) {
  HoleFillList out;
  std::deque<std::string> pending;
  int64_t elements = 0;
  int64_t fills = 0;
  int64_t last_elements = 0;
  bool last_continued = false;
  auto serve = [&](std::string id) {
    FragmentList list = Fill(id);
    ++fills;
    last_elements = 0;
    last_continued = false;
    for (const Fragment& f : list) {
      if (f.is_hole) {
        pending.push_back(f.hole_id);
        last_continued = true;
      } else {
        ++elements;
        ++last_elements;
      }
    }
    out.push_back(HoleFill{std::move(id), std::move(list)});
  };
  for (const std::string& id : holes) serve(id);
  // Grow fill sizes only on demand chases: a fill-bounded chase is the
  // readahead speculating, its budget is counted in fills, and its fills
  // must cut the chain where one-fill exchanges do (same hole ids, same
  // cache entries, whatever the buffer's chase depth).
  const bool adaptive = budget.fills < 0;
  int64_t hint = 0;
  while (!pending.empty() &&
         (budget.elements < 0 || elements < budget.elements) &&
         (budget.fills < 0 || fills < budget.fills)) {
    if (adaptive) {
      if (last_continued) {
        // The previous fill ran to its size limit and left a continuation:
        // double down. Never ask for more than the caller still wants.
        hint = std::min(std::max(hint * 2, last_elements * 2),
                        kMaxFillSizeHint);
        int64_t offer = hint;
        if (budget.elements >= 0) {
          offer = std::min(offer, budget.elements - elements);
        }
        SetFillSizeHint(offer);
      } else {
        hint = 0;
        SetFillSizeHint(0);
      }
    }
    std::string next = std::move(pending.front());
    pending.pop_front();
    serve(next);
  }
  if (adaptive) SetFillSizeHint(0);
  return out;
}

std::string ScriptedLxpWrapper::GetRoot(const std::string& uri) {
  (void)uri;
  return root_;
}

FragmentList ScriptedLxpWrapper::Fill(const std::string& hole_id) {
  fill_log_.push_back(hole_id);
  auto it = fills_.find(hole_id);
  MIX_CHECK_MSG(it != fills_.end(), ("no scripted fill for " + hole_id).c_str());
  return it->second;
}

}  // namespace mix::buffer
