// Algebraic evaluation plans (paper Section 3, Fig. 4).
//
// A Plan is the logical tree of XMAS algebra operators a query compiles to.
// It is a pure description: the same plan can be
//   * instantiated as a tree of lazy mediators (instantiate.h),
//   * evaluated eagerly by the reference evaluator (reference_eval.h),
//   * analyzed for navigational complexity (browsability.h), and
//   * rewritten in place by the optimizer passes (passes/pass.h).
#ifndef MIX_MEDIATOR_PLAN_H_
#define MIX_MEDIATOR_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/binding_stream.h"
#include "core/status.h"

namespace mix::mediator {

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

struct PlanNode {
  enum class Kind {
    kSource,
    kGetDescendants,
    kSelect,
    kJoin,
    kGroupBy,
    kConcatenate,
    kCreateElement,
    kOrderBy,
    kMaterialize,
    kUnion,
    kDifference,
    kDistinct,
    kProject,
    kWrapList,
    kConst,
    kRename,
    kCachedView,
    kTupleDestroy,
  };

  Kind kind = Kind::kSource;
  std::vector<PlanPtr> children;

  // --- parameters (validity depends on kind) ---
  std::string source_name;                            // kSource
  /// kSource: optimizer-chosen view URI override. Empty = open the source
  /// under its registered URI. Non-empty (set by the wrapper-pushdown
  /// pass) = the instantiator must open THIS view instead — the plan is
  /// only correct against it, because selections it absorbs have been
  /// removed from the operator tree.
  std::string source_uri;
  std::string var;                                    // kSource out / kTupleDestroy
  std::string parent_var;                             // kGetDescendants anchor
  std::string out_var;     // new variable: gd/groupBy/concat/create/wrap/const
  std::string path;        // kGetDescendants path-expression text
  bool use_sigma = false;  // kGetDescendants: σ sibling scans
  /// kSelect/kJoin: the comparison. kGetDescendants: optional inline filter
  /// (select/getDescendants fusion) — a match is emitted only when the
  /// predicate holds on the would-be output binding; may reference out_var.
  std::optional<algebra::BindingPredicate> predicate;
  bool join_cache_inner = true;                        // kJoin
  bool join_index_inner = false;                       // kJoin (eager step)
  bool order_by_occurrence = false;                    // kOrderBy mode
  algebra::VarList vars;       // kGroupBy group / kOrderBy sort / kProject
  std::string grouped_var;     // kGroupBy
  std::string x_var, y_var;    // kConcatenate
  bool label_is_constant = true;
  std::string label;           // kCreateElement (constant or variable name)
  std::string text;            // kConst literal
  /// kCachedView: bind the snapshot root's children (one binding each, in
  /// document order) instead of the root itself.
  bool cached_view_children = false;

  // --- factories ---
  static PlanPtr Source(std::string source_name, std::string var);
  static PlanPtr GetDescendants(PlanPtr child, std::string parent_var,
                                std::string path, std::string out_var);
  static PlanPtr Select(PlanPtr child, algebra::BindingPredicate predicate);
  static PlanPtr Join(PlanPtr left, PlanPtr right,
                      algebra::BindingPredicate predicate);
  static PlanPtr GroupBy(PlanPtr child, algebra::VarList group_vars,
                         std::string grouped_var, std::string out_var);
  static PlanPtr Concatenate(PlanPtr child, std::string x_var,
                             std::string y_var, std::string out_var);
  static PlanPtr CreateElement(PlanPtr child, bool label_is_constant,
                               std::string label, std::string ch_var,
                               std::string out_var);
  static PlanPtr OrderBy(PlanPtr child, algebra::VarList sort_vars);
  /// Occurrence-mode orderBy (cluster by first occurrence of the sort
  /// variables' value identities — the paper's literal orderBy).
  static PlanPtr OrderByOccurrence(PlanPtr child, algebra::VarList sort_vars);
  /// Intermediate eager step (Section 6): drain + replay the child stream.
  static PlanPtr Materialize(PlanPtr child);
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr Difference(PlanPtr left, PlanPtr right);
  static PlanPtr Distinct(PlanPtr child);
  static PlanPtr Project(PlanPtr child, algebra::VarList vars);
  static PlanPtr WrapList(PlanPtr child, std::string x_var,
                          std::string out_var);
  static PlanPtr Const(PlanPtr child, std::string text, std::string out_var);
  static PlanPtr Rename(PlanPtr child, std::string old_var,
                        std::string new_var);
  static PlanPtr TupleDestroy(PlanPtr child, std::string var = "");
  /// Leaf over a registered answer-view snapshot (answer_view_cache.h).
  /// `source_name` names the snapshot in the session's SourceRegistry.
  static PlanPtr CachedView(std::string source_name, std::string var,
                            bool children);

  /// Deep copy. The one place that lists every parameter field: a field
  /// added above must be copied here.
  PlanPtr Clone() const;

  /// Multi-line rendering in Fig. 4 style (operator_{params} per line,
  /// children indented).
  std::string ToString() const;
};

/// Computes (and validates) the output schema of a binding-stream plan
/// node. kTupleDestroy has no binding schema; passing it is an error.
Result<algebra::VarList> ComputeSchema(const PlanNode& node);

/// The single-operator schema rule: output schema of `node` given its
/// children's schemas (node.children is NOT consulted). This is the
/// transition ComputeSchema folds over the tree; the optimizer analysis
/// (mediator/ir.h) uses it to annotate nodes without re-walking subtrees.
Result<algebra::VarList> SchemaTransition(
    const PlanNode& node, const std::vector<algebra::VarList>& child_schemas);

const char* PlanKindName(PlanNode::Kind kind);

/// One operator's line of ToString() — kind and parameters, no indent,
/// children, or newline.
std::string RenderOp(const PlanNode& node);

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_PLAN_H_
