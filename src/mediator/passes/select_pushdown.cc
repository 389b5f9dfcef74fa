// Selections sink toward the sources (legacy rewrite rule 2): below the
// join side that binds all predicate variables, below getDescendants whose
// output the predicate ignores, and below groupBy when the predicate only
// reads group variables (those pass through unchanged, so filtering groups
// equals filtering bindings). Earlier filtering means lazier scans.
//
// Runs its own internal fixpoint: selections are schema-preserving, so a
// rotation invalidates no annotation this pass reads (the moved select's
// own schema is patched locally).
#include <algorithm>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

using Kind = PlanNode::Kind;

bool Contains(const algebra::VarList& vars, const std::string& v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

bool AllIn(const std::vector<std::string>& vars,
           const algebra::VarList& schema) {
  for (const std::string& v : vars) {
    if (!Contains(schema, v)) return false;
  }
  return true;
}

class SelectPushdownPass : public Pass {
 public:
  const char* name() const override { return "select_pushdown"; }

  Result<int> Run(PlanPtr* root, const OptimizerOptions&,
                  AnnotationTable* table) override {
    int total = 0;
    for (int i = 0; i < 64; ++i) {
      int changes = Walk(root, table);
      if (changes == 0) break;
      total += changes;
    }
    return total;
  }

 private:
  /// One top-down sweep; stops and restarts at each rotation (the reshaped
  /// subtree is revisited by the next sweep).
  int Walk(PlanPtr* slot, AnnotationTable* table) {
    PlanNode* node = slot->get();
    if (node->kind == Kind::kSelect) {
      PlanNode* child = node->children[0].get();
      std::vector<std::string> vars = InputVars(*node);

      if (child->kind == Kind::kJoin) {
        for (size_t side = 0; side < 2; ++side) {
          if (!AllIn(vars, table->at(child->children[side].get()).schema)) {
            continue;
          }
          // select(join(a, b)) -> join(select(a), b) (or the right side).
          PlanPtr select = std::move(*slot);
          PlanPtr join = std::move(select->children[0]);
          PlanPtr target = std::move(join->children[side]);
          table->at(select.get()).schema = table->at(target.get()).schema;
          select->children[0] = std::move(target);
          join->children[side] = std::move(select);
          *slot = std::move(join);
          return 1;
        }
      } else if (child->kind == Kind::kGetDescendants &&
                 !Contains(vars, child->out_var)) {
        // select(getDescendants(c)) -> getDescendants(select(c)).
        PlanPtr select = std::move(*slot);
        PlanPtr gd = std::move(select->children[0]);
        PlanPtr input = std::move(gd->children[0]);
        table->at(select.get()).schema = table->at(input.get()).schema;
        select->children[0] = std::move(input);
        gd->children[0] = std::move(select);
        *slot = std::move(gd);
        return 1;
      } else if (child->kind == Kind::kGroupBy && AllIn(vars, child->vars)) {
        // select(groupBy(c)) -> groupBy(select(c)).
        PlanPtr select = std::move(*slot);
        PlanPtr gb = std::move(select->children[0]);
        PlanPtr input = std::move(gb->children[0]);
        table->at(select.get()).schema = table->at(input.get()).schema;
        select->children[0] = std::move(input);
        gb->children[0] = std::move(select);
        *slot = std::move(gb);
        return 1;
      }
    }
    int changes = 0;
    for (PlanPtr& c : slot->get()->children) changes += Walk(&c, table);
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeSelectPushdownPass() {
  return std::make_unique<SelectPushdownPass>();
}

}  // namespace mix::mediator::passes
