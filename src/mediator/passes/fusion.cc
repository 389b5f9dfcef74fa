// Operator fusion: removes whole transducer layers from the plan.
//
// Rule A — select/getDescendants fusion: a selection directly above a
// getDescendants whose output it tests becomes the gd's inline filter
// (PlanNode::predicate). The operator then skips non-qualifying matches
// during its own scan instead of materializing a binding, handing it up
// a layer, and discarding it there — one fewer operator hop per
// navigation, and no cursors stored for filtered-out matches.
//
// Rule B — dead-constructor elimination: createElement / const / wrapList /
// concatenate nodes whose output variable nothing consumes are spliced
// out. These operators map bindings 1:1 and synthesize their value from
// existing variables, so removal never changes cardinality, ordering,
// grouping, or distinct-ness — only the schema, which is legal exactly
// when the plan still analyzes (tentative splice, re-analyze, revert on
// failure). Stacked mediators hit this constantly: the inner mediator's
// construction layer is dead once the outer plan only navigates part of
// it. Applies only under a tupleDestroy root with an explicit root
// variable — on a bare binding-stream plan every schema variable is
// output.
#include <algorithm>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

using Kind = PlanNode::Kind;

bool IsConstructor(Kind k) {
  return k == Kind::kCreateElement || k == Kind::kConst ||
         k == Kind::kWrapList || k == Kind::kConcatenate;
}

class FusionPass : public Pass {
 public:
  const char* name() const override { return "fusion"; }

  Result<int> Run(PlanPtr* root, const OptimizerOptions& options,
                  AnnotationTable* table) override {
    int changes = FuseSelects(root);

    if ((*root)->kind == Kind::kTupleDestroy && !(*root)->var.empty()) {
      // Splice one candidate at a time (a splice invalidates other slots),
      // remembering nodes whose removal failed to analyze so they are not
      // retried forever.
      std::vector<const PlanNode*> failed;
      for (;;) {
        PlanPtr* slot = FindDeadConstructor(root, root->get(), failed);
        if (slot == nullptr) break;
        // Tentative splice; revert unless the plan still analyzes.
        PlanPtr removed = std::move(*slot);
        *slot = std::move(removed->children[0]);
        if (AnalyzeIr(**root, options.sources, table).ok()) {
          ++changes;
          continue;
        }
        failed.push_back(removed.get());
        removed->children[0] = std::move(*slot);
        *slot = std::move(removed);
        // The failed analysis left the table partial: rebuild it for the
        // restored tree.
        Status restored = AnalyzeIr(**root, options.sources, table);
        if (!restored.ok()) return restored;
      }
    }
    return changes;
  }

 private:
  int FuseSelects(PlanPtr* slot) {
    PlanNode* node = slot->get();
    int changes = 0;
    if (node->kind == Kind::kSelect) {
      PlanNode* child = node->children[0].get();
      std::vector<std::string> vars = InputVars(*node);
      if (child->kind == Kind::kGetDescendants &&
          !child->predicate.has_value() &&
          std::find(vars.begin(), vars.end(), child->out_var) != vars.end()) {
        child->predicate = node->predicate;
        PlanPtr select = std::move(*slot);
        *slot = std::move(select->children[0]);
        ++changes;
      }
    }
    for (PlanPtr& c : slot->get()->children) changes += FuseSelects(&c);
    return changes;
  }

  /// First constructor (pre-order) whose output nothing consumes, skipping
  /// nodes whose removal already failed to analyze.
  PlanPtr* FindDeadConstructor(PlanPtr* slot, const PlanNode* root,
                               const std::vector<const PlanNode*>& failed) {
    PlanNode* node = slot->get();
    if (IsConstructor(node->kind) && CountVarUses(*root, node->out_var) == 0 &&
        std::find(failed.begin(), failed.end(), node) == failed.end()) {
      return slot;
    }
    for (PlanPtr& c : node->children) {
      PlanPtr* found = FindDeadConstructor(&c, root, failed);
      if (found != nullptr) return found;
    }
    return nullptr;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeFusionPass() {
  return std::make_unique<FusionPass>();
}

}  // namespace mix::mediator::passes
