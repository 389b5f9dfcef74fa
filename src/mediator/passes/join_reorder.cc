// Join reordering by estimated fan-out. Nested-loop join output order is
// lexicographic in leaf order, and both reassociation patterns below
// preserve leaf order and output schema order, so the rewritten plan's
// answer is byte-identical — only the intermediate cardinality (and with
// it the scan work per navigation) changes.
//
//   join_p(join_q(A,B), C)  ->  join_q(A, join_p(B,C))
//       legal iff vars(p) subset schema(B)+schema(C)
//   join_p(A, join_q(B,C))  ->  join_q(join_p(A,B), C)
//       legal iff vars(p) subset schema(A)+schema(B)
//
// Applied only when the new intermediate join's estimate beats the old
// one by a strict 25% margin — the margin keeps the two mirrored patterns
// from oscillating. Each predicate travels with its join node (cache /
// index flags stay coherent). One rotation per invocation: annotations go
// stale on reshape, and the PassManager re-analyzes between passes.
#include <algorithm>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

using Kind = PlanNode::Kind;

bool AllIn(const std::vector<std::string>& vars, const algebra::VarList& a,
           const algebra::VarList& b) {
  for (const std::string& v : vars) {
    if (std::find(a.begin(), a.end(), v) == a.end() &&
        std::find(b.begin(), b.end(), v) == b.end()) {
      return false;
    }
  }
  return true;
}

/// Mirrors AnalyzeIr's join fan-out rule for a hypothetical join.
double JoinEst(const PlanNode& join, double left, double right) {
  return left * right *
         (join.predicate->op() == algebra::CompareOp::kEq ? 0.1 : 0.5);
}

class JoinReorderPass : public Pass {
 public:
  const char* name() const override { return "join_reorder"; }

  Result<int> Run(PlanPtr* root, const OptimizerOptions&,
                  AnnotationTable* table) override {
    return Walk(root, *table);
  }

 private:
  int Walk(PlanPtr* slot, const AnnotationTable& table) {
    PlanNode* p = slot->get();
    if (p->kind == Kind::kJoin) {
      std::vector<std::string> pvars = InputVars(*p);

      PlanNode* q = p->children[0].get();
      if (q->kind == Kind::kJoin) {
        // join_p(join_q(A,B), C) -> join_q(A, join_p(B,C)).
        const Annotation& a = table.at(q->children[0].get());
        const Annotation& b = table.at(q->children[1].get());
        const Annotation& c = table.at(p->children[1].get());
        if (AllIn(pvars, b.schema, c.schema) &&
            JoinEst(*p, b.fanout, c.fanout) <
                0.75 * JoinEst(*q, a.fanout, b.fanout)) {
          PlanPtr p_owned = std::move(*slot);
          PlanPtr q_owned = std::move(p_owned->children[0]);
          PlanPtr a_owned = std::move(q_owned->children[0]);
          PlanPtr b_owned = std::move(q_owned->children[1]);
          PlanPtr c_owned = std::move(p_owned->children[1]);
          p_owned->children[0] = std::move(b_owned);
          p_owned->children[1] = std::move(c_owned);
          q_owned->children[0] = std::move(a_owned);
          q_owned->children[1] = std::move(p_owned);
          *slot = std::move(q_owned);
          return 1;
        }
      }

      q = p->children[1].get();
      if (q->kind == Kind::kJoin) {
        // join_p(A, join_q(B,C)) -> join_q(join_p(A,B), C).
        const Annotation& a = table.at(p->children[0].get());
        const Annotation& b = table.at(q->children[0].get());
        const Annotation& c = table.at(q->children[1].get());
        if (AllIn(pvars, a.schema, b.schema) &&
            JoinEst(*p, a.fanout, b.fanout) <
                0.75 * JoinEst(*q, b.fanout, c.fanout)) {
          PlanPtr p_owned = std::move(*slot);
          PlanPtr q_owned = std::move(p_owned->children[1]);
          PlanPtr a_owned = std::move(p_owned->children[0]);
          PlanPtr b_owned = std::move(q_owned->children[0]);
          PlanPtr c_owned = std::move(q_owned->children[1]);
          p_owned->children[0] = std::move(a_owned);
          p_owned->children[1] = std::move(b_owned);
          q_owned->children[0] = std::move(p_owned);
          q_owned->children[1] = std::move(c_owned);
          *slot = std::move(q_owned);
          return 1;
        }
      }
    }
    for (PlanPtr& child : slot->get()->children) {
      int changes = Walk(&child, table);
      if (changes != 0) return changes;
    }
    return 0;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeJoinReorderPass() {
  return std::make_unique<JoinReorderPass>();
}

}  // namespace mix::mediator::passes
