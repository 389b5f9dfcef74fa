// Projections that keep their input's full schema (same variables, same
// order) are identity maps: drop them (legacy rewrite rule 3).
#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

class ProjectPrunePass : public Pass {
 public:
  const char* name() const override { return "project_prune"; }

  Result<int> Run(PlanPtr* root, const OptimizerOptions&,
                  AnnotationTable* table) override {
    return Walk(root, *table);
  }

 private:
  int Walk(PlanPtr* slot, const AnnotationTable& table) {
    int changes = 0;
    while ((*slot)->kind == PlanNode::Kind::kProject &&
           table.at((*slot)->children[0].get()).schema == (*slot)->vars) {
      PlanPtr project = std::move(*slot);
      *slot = std::move(project->children[0]);
      ++changes;
    }
    for (PlanPtr& c : (*slot)->children) changes += Walk(&c, table);
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeProjectPrunePass() {
  return std::make_unique<ProjectPrunePass>();
}

}  // namespace mix::mediator::passes
