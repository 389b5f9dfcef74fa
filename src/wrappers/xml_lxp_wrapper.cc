#include "wrappers/xml_lxp_wrapper.h"

#include <algorithm>
#include <string_view>

#include "core/check.h"

namespace mix::wrappers {

using buffer::Fragment;
using buffer::FragmentList;
using buffer::FillBudget;
using buffer::HoleFillList;

namespace {

/// Hole ids address a child range: "x:<node>:<lo>:<hi>" = children of arena
/// node <node> at positions [lo, hi).
std::string HoleId(int64_t node_index, int64_t lo, int64_t hi) {
  return "x:" + std::to_string(node_index) + ":" + std::to_string(lo) + ":" +
         std::to_string(hi);
}

bool ParseHoleId(std::string_view id, int64_t* node_index, int64_t* lo,
                 int64_t* hi) {
  if (id.substr(0, 2) != "x:") return false;
  id.remove_prefix(2);
  const size_t a = id.find(':');
  if (a == std::string_view::npos) return false;
  const size_t b = id.find(':', a + 1);
  if (b == std::string_view::npos) return false;
  return buffer::ParseHoleIndex(id.substr(0, a), node_index) &&
         buffer::ParseHoleIndex(id.substr(a + 1, b - a - 1), lo) &&
         buffer::ParseHoleIndex(id.substr(b + 1), hi);
}

}  // namespace

XmlLxpWrapper::XmlLxpWrapper(const xml::Document* doc, Options options)
    : doc_(doc), options_(options) {
  MIX_CHECK(doc_ != nullptr && doc_->root() != nullptr);
  MIX_CHECK(options_.chunk >= 1);
}

std::string XmlLxpWrapper::GetRoot(const std::string& uri) {
  (void)uri;
  return "xroot";
}

Fragment XmlLxpWrapper::FragmentFor(const xml::Node* child) {
  if (options_.inline_limit > 0 &&
      xml::SubtreeSize(child) <= options_.inline_limit) {
    return Fragment::FromXmlSubtree(child);
  }
  if (child->kind == xml::NodeKind::kText) {
    return Fragment::Text(child->label);
  }
  if (child->children.empty()) {
    return Fragment::Element(child->label);
  }
  Fragment f = Fragment::Element(child->label);
  f.children.push_back(Fragment::Hole(
      HoleId(child->index, 0, static_cast<int64_t>(child->children.size()))));
  return f;
}

FragmentList XmlLxpWrapper::Fill(const std::string& hole_id) {
  ++fills_served_;
  if (hole_id == "xroot") {
    return {FragmentFor(doc_->root())};
  }
  MIX_CHECK_MSG(CheckHole(hole_id).ok(),
                "foreign hole id passed to XmlLxpWrapper");
  int64_t node_index = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  ParseHoleId(hole_id, &node_index, &lo, &hi);
  const xml::Node* parent = doc_->NodeAt(node_index);

  int64_t take = std::min<int64_t>(EffectiveChunk(), hi - lo);
  FragmentList out;
  if (take == 0) return out;

  if (options_.policy == FillPolicy::kLeftToRight) {
    // [e_lo ... e_{lo+take-1}, hole(lo+take, hi)?]
    for (int64_t i = lo; i < lo + take; ++i) {
      out.push_back(FragmentFor(parent->children[static_cast<size_t>(i)]));
    }
    if (lo + take < hi) {
      out.push_back(Fragment::Hole(HoleId(node_index, lo + take, hi)));
    }
  } else {
    // Liberal (Ex. 7 style): [hole(lo, hi-take)?, e_{hi-take} ... e_{hi-1}]
    int64_t front_end = hi - take;
    if (front_end > lo) {
      out.push_back(Fragment::Hole(HoleId(node_index, lo, front_end)));
    }
    for (int64_t i = front_end; i < hi; ++i) {
      out.push_back(FragmentFor(parent->children[static_cast<size_t>(i)]));
    }
  }
  return out;
}

Status XmlLxpWrapper::CheckHole(const std::string& hole_id) const {
  if (hole_id == "xroot") return Status::OK();
  int64_t node_index = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  if (!ParseHoleId(hole_id, &node_index, &lo, &hi) ||
      node_index >= doc_->node_count() || lo > hi ||
      hi > static_cast<int64_t>(doc_->NodeAt(node_index)->children.size())) {
    return Status::InvalidArgument("XmlLxpWrapper issued no hole id '" +
                                   hole_id + "'");
  }
  return Status::OK();
}

HoleFillList XmlLxpWrapper::FillMany(const std::vector<std::string>& holes,
                            const FillBudget& budget) {
  return ChaseFills(holes, budget);
}

}  // namespace mix::wrappers
