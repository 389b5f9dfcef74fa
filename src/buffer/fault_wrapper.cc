#include "buffer/fault_wrapper.h"

#include <utility>

#include "core/check.h"

namespace mix::buffer {

using net::FaultDecision;
using net::FaultKind;

FaultyLxpWrapper::FaultyLxpWrapper(LxpWrapper* inner, const net::FaultSpec& spec,
                                   uint64_t seed)
    : inner_(inner), policy_(spec, seed) {
  MIX_CHECK(inner_ != nullptr);
}

FaultyLxpWrapper::FaultyLxpWrapper(std::unique_ptr<LxpWrapper> inner,
                                   const net::FaultSpec& spec, uint64_t seed)
    : owned_(std::move(inner)), inner_(owned_.get()), policy_(spec, seed) {
  MIX_CHECK(inner_ != nullptr);
}

std::string FaultyLxpWrapper::GetRoot(const std::string& uri) {
  return inner_->GetRoot(uri);
}

FragmentList FaultyLxpWrapper::Fill(const std::string& hole_id) {
  return inner_->Fill(hole_id);
}

HoleFillList FaultyLxpWrapper::FillMany(const std::vector<std::string>& holes,
                                        const FillBudget& budget) {
  return inner_->FillMany(holes, budget);
}

Status FaultyLxpWrapper::TryGetRoot(const std::string& uri, std::string* out) {
  FaultDecision d = policy_.Decide("get_root");
  // A corrupted root id is indistinguishable from a refusal to the buffer
  // (there is no structure to validate yet), so every corruption kind on
  // get_root degenerates to a failed exchange.
  if (d.kind != FaultKind::kNone) return policy_.FailStatus();
  return inner_->TryGetRoot(uri, out);
}

Status FaultyLxpWrapper::TryFillMany(const std::vector<std::string>& holes,
                                     const FillBudget& budget,
                                     HoleFillList* out) {
  FaultDecision d =
      policy_.Decide(holes.empty() ? std::string("fill_many") : holes.front());
  if (d.kind == FaultKind::kFail) return policy_.FailStatus();
  Status s = inner_->TryFillMany(holes, budget, out);
  if (!s.ok()) return s;
  switch (d.kind) {
    case FaultKind::kTruncate:
      // Drop the first entry — a *requested* hole goes unanswered, which
      // the batch validation must flag as an incomplete response.
      if (!out->empty()) out->erase(out->begin());
      break;
    case FaultKind::kGarble:
      if (!out->empty()) {
        HoleFill& first = out->front();
        first.fragments.push_back(Fragment::Hole(first.hole_id + "#g1"));
        first.fragments.push_back(Fragment::Hole(first.hole_id + "#g2"));
      }
      break;
    case FaultKind::kDuplicate:
      // The same hole refined twice in one response.
      if (!out->empty()) out->push_back(out->front());
      break;
    default:
      break;
  }
  return s;
}

}  // namespace mix::buffer
