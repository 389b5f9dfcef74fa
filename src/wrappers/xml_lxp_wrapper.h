// LXP wrapper over an XML document source.
//
// Models the paper's XML/OODB sources (Fig. 1) and its streaming policy for
// huge documents: "start streaming of huge documents by sending complete
// elements if their size does not exceed a certain limit (say 50K)". Fills
// return up to `chunk` children at a time; children whose subtree size is at
// most `inline_limit` nodes ship completely, larger children ship as a
// labeled element with a child hole.
//
// Hole ids encode all state ("whenever feasible, it is usually better to
// encode all necessary information into the hole id"): `x:<node>:<child>`
// addresses the children of arena node `<node>` starting at position
// `<child>`.
#ifndef MIX_WRAPPERS_XML_LXP_WRAPPER_H_
#define MIX_WRAPPERS_XML_LXP_WRAPPER_H_

#include <algorithm>
#include <string>

#include "buffer/lxp.h"
#include "xml/tree.h"

namespace mix::wrappers {

class XmlLxpWrapper : public buffer::LxpWrapper {
 public:
  enum class FillPolicy {
    /// Children explored left-to-right, at most one hole at the end — the
    /// restrictive LXP policy of Section 4.
    kLeftToRight,
    /// Liberal policy (Ex. 7): returns the chunk from the *right* end of the
    /// unexplored range with a hole at the front, exercising the buffer's
    /// generalized chase.
    kRightToLeft,
  };

  struct Options {
    /// Children returned per fill.
    int chunk = 8;
    /// Subtrees of at most this many nodes ship completely; larger ones
    /// ship as label + hole. <=0 means "always label + hole".
    int64_t inline_limit = 4;
    FillPolicy policy = FillPolicy::kLeftToRight;
  };

  /// `doc` is not owned and must outlive the wrapper.
  XmlLxpWrapper(const xml::Document* doc, Options options);
  explicit XmlLxpWrapper(const xml::Document* doc)
      : XmlLxpWrapper(doc, Options()) {}

  std::string GetRoot(const std::string& uri) override;
  buffer::FragmentList Fill(const std::string& hole_id) override;
  /// Batched fills with continuation-hole chasing: the hole-id encodings
  /// are stateless, so the shared budgeted chase loop applies directly.
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override;

  int64_t fills_served() const { return fills_served_; }

 protected:
  Status CheckHole(const std::string& hole_id) const override;
  /// Adaptive fill sizing from the shared chase loop: long sibling scans
  /// serve max(chunk, hint) children per fill.
  void SetFillSizeHint(int64_t elements) override {
    fill_size_hint_ = elements;
  }

 private:
  int64_t EffectiveChunk() const {
    return fill_size_hint_ > 0
               ? std::max<int64_t>(options_.chunk, fill_size_hint_)
               : options_.chunk;
  }

  buffer::Fragment FragmentFor(const xml::Node* child);

  const xml::Document* doc_;
  Options options_;
  int64_t fills_served_ = 0;
  int64_t fill_size_hint_ = 0;
};

}  // namespace mix::wrappers

#endif  // MIX_WRAPPERS_XML_LXP_WRAPPER_H_
