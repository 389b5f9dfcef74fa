// Browsability classifier pass (legacy rewrite rule 1, promoted to an
// analysis-driven rewrite): a label-chain getDescendants whose anchoring
// value navigates a σ-capable source switches to σ sibling scans, which
// upgrades it from browsable to bounded browsable (paper Section 2, end).
// σ-capability is resolved per source through the analyzed variable
// provenance — a plan mixing relational and CSV legs only upgrades the
// legs whose wrapper answers σ.
#include "mediator/passes/pass.h"
#include "pathexpr/path_expr.h"

namespace mix::mediator::passes {

namespace {

class BrowsabilityPass : public Pass {
 public:
  const char* name() const override { return "browsability"; }

  Result<int> Run(PlanPtr* root, const OptimizerOptions& options,
                  AnnotationTable* table) override {
    return Walk(root->get(), options, *table);
  }

 private:
  int Walk(PlanNode* node, const OptimizerOptions& options,
           const AnnotationTable& table) {
    int changes = 0;
    if (node->kind == PlanNode::Kind::kGetDescendants && !node->use_sigma &&
        SigmaAvailable(*node, options, table)) {
      auto path = pathexpr::PathExpr::Parse(node->path);
      if (path.ok() && path.value().IsLabelChain()) {
        node->use_sigma = true;
        ++changes;
      }
    }
    for (PlanPtr& c : node->children) {
      changes += Walk(c.get(), options, table);
    }
    return changes;
  }

  bool SigmaAvailable(const PlanNode& gd, const OptimizerOptions& options,
                      const AnnotationTable& table) {
    const auto& child_src = table.at(gd.children[0].get()).var_source;
    auto v = child_src.find(gd.parent_var);
    if (v == child_src.end() || v->second.empty()) return false;
    auto cap = options.sources.find(v->second);
    return cap != options.sources.end() && cap->second.sigma;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeBrowsabilityPass() {
  return std::make_unique<BrowsabilityPass>();
}

}  // namespace mix::mediator::passes
