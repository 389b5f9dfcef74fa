// Optimizer pass pipeline over the plan tree (DESIGN.md §6).
//
// Each pass is a self-contained rewrite of a PlanNode tree with explicit
// legality conditions; the PassManager runs the pipeline to fixpoint (a
// pass may expose opportunities for an earlier one), rebuilding the
// annotation table (mediator/ir.h) between passes so every pass may trust
// it on entry.
//
// Default pipeline, in order:
//   select_pushdown  — selections sink below join / getDescendants /
//                      groupBy (legacy rule 2);
//   wrapper_pushdown — selections over relational sources compile into the
//                      wrapper's mini-SQL view URI;
//   fusion           — select/getDescendants fusion and dead-constructor
//                      elimination;
//   project_prune    — full-schema projections drop (legacy rule 3);
//   browsability     — σ enablement per σ-capable source (legacy rule 1,
//                      now an analysis-driven rewrite);
//   join_reorder     — fan-out-driven reassociation (leaf order preserved,
//                      so answers stay byte-identical).
#ifndef MIX_MEDIATOR_PASSES_PASS_H_
#define MIX_MEDIATOR_PASSES_PASS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mediator/ir.h"

namespace mix::mediator::passes {

struct OptimizerOptions {
  /// Per-source capabilities (σ, pushdown, relational catalog). A source
  /// that declares none is only rewritten by the source-independent passes.
  std::map<std::string, SourceCapability> sources;
  /// Called after each pass that changed the tree: (pass name, annotated
  /// DumpIr). Unset => MIX_DUMP_PASSES=1 in the environment dumps to stderr.
  std::function<void(const std::string& pass_name, const std::string& dump)>
      dump_hook;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Applies the pass to *root (which it may re-root); returns the number
  /// of rewrites applied. `*table` is fresh on entry; a pass that reshapes
  /// the tree must either keep the entries it later reads consistent or
  /// not read stale ones.
  virtual Result<int> Run(PlanPtr* root, const OptimizerOptions& options,
                          AnnotationTable* table) = 0;
};

struct PassStats {
  std::string name;
  int applied = 0;  ///< total rewrites across all rounds
};

struct OptimizeReport {
  std::vector<PassStats> passes;  ///< pipeline order
  Browsability before_cls = Browsability::kBoundedBrowsable;
  Browsability after_cls = Browsability::kBoundedBrowsable;
  int rounds = 0;  ///< fixpoint rounds executed

  int applied(const std::string& name) const;
  int total() const;
  std::string ToString() const;
};

class PassManager {
 public:
  /// The full default pipeline in the order documented above.
  static PassManager Default();

  void Add(std::unique_ptr<Pass> pass);

  /// Runs the pipeline to fixpoint (max 64 rounds), re-analyzing between
  /// passes. On failure the tree may be partially rewritten — callers that
  /// need all-or-nothing semantics (OptimizePlan) work on a copy.
  Result<OptimizeReport> Run(PlanPtr* root, const OptimizerOptions& options);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

std::unique_ptr<Pass> MakeSelectPushdownPass();
std::unique_ptr<Pass> MakeWrapperPushdownPass();
std::unique_ptr<Pass> MakeFusionPass();
std::unique_ptr<Pass> MakeProjectPrunePass();
std::unique_ptr<Pass> MakeBrowsabilityPass();
std::unique_ptr<Pass> MakeJoinReorderPass();

/// Runs the Default pipeline on a clone of `*plan` and swaps the clone in
/// on success. On any failure `*plan` is left exactly as passed in.
Result<OptimizeReport> OptimizePlan(PlanPtr* plan,
                                    const OptimizerOptions& options);

/// Deterministic digest of everything that can change the optimized shape
/// (σ/pushdown capabilities, catalogs). Mixed into the PlanCache key
/// so a config change never serves a stale shape.
std::string OptimizerFingerprint(const OptimizerOptions& options);

}  // namespace mix::mediator::passes

#endif  // MIX_MEDIATOR_PASSES_PASS_H_
