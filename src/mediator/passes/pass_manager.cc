#include <cstdio>
#include <cstdlib>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

int OptimizeReport::applied(const std::string& name) const {
  for (const PassStats& p : passes) {
    if (p.name == name) return p.applied;
  }
  return 0;
}

int OptimizeReport::total() const {
  int t = 0;
  for (const PassStats& p : passes) t += p.applied;
  return t;
}

std::string OptimizeReport::ToString() const {
  std::string out = "rounds=" + std::to_string(rounds);
  for (const PassStats& p : passes) {
    out += " " + p.name + "=" + std::to_string(p.applied);
  }
  out += std::string(" cls=") + BrowsabilityName(before_cls) + "->" +
         BrowsabilityName(after_cls);
  return out;
}

PassManager PassManager::Default() {
  PassManager pm;
  pm.Add(MakeSelectPushdownPass());
  pm.Add(MakeWrapperPushdownPass());
  pm.Add(MakeFusionPass());
  pm.Add(MakeProjectPrunePass());
  pm.Add(MakeBrowsabilityPass());
  pm.Add(MakeJoinReorderPass());
  return pm;
}

void PassManager::Add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

Result<OptimizeReport> PassManager::Run(PlanPtr* root,
                                        const OptimizerOptions& options) {
  OptimizeReport report;
  for (const auto& p : passes_) report.passes.push_back({p->name(), 0});

  AnnotationTable table;
  Status analyzed = AnalyzeIr(**root, options.sources, &table);
  if (!analyzed.ok()) return analyzed;
  report.before_cls = table.at(root->get()).cls;

  for (int round = 0; round < 64; ++round) {
    int round_changes = 0;
    for (size_t i = 0; i < passes_.size(); ++i) {
      auto applied = passes_[i]->Run(root, options, &table);
      if (!applied.ok()) return applied.status();
      if (applied.value() == 0) continue;
      round_changes += applied.value();
      report.passes[i].applied += applied.value();
      // Refresh annotations so the next pass sees the new shape.
      analyzed = AnalyzeIr(**root, options.sources, &table);
      if (!analyzed.ok()) {
        return Status::Internal(std::string("pass '") + passes_[i]->name() +
                                "' broke the plan: " + analyzed.ToString());
      }
      if (options.dump_hook) {
        options.dump_hook(passes_[i]->name(), DumpIr(**root, table));
      }
    }
    ++report.rounds;
    if (round_changes == 0) break;
  }
  report.after_cls = table.at(root->get()).cls;
  return report;
}

Result<OptimizeReport> OptimizePlan(PlanPtr* plan,
                                    const OptimizerOptions& options) {
  PlanPtr work = (*plan)->Clone();

  OptimizerOptions effective = options;
  if (!effective.dump_hook && std::getenv("MIX_DUMP_PASSES") != nullptr) {
    effective.dump_hook = [](const std::string& pass,
                             const std::string& dump) {
      std::fprintf(stderr, "-- after %s --\n%s", pass.c_str(), dump.c_str());
    };
  }

  PassManager pm = PassManager::Default();
  auto report = pm.Run(&work, effective);
  if (!report.ok()) return report.status();
  *plan = std::move(work);
  return report;
}

std::string OptimizerFingerprint(const OptimizerOptions& options) {
  std::string fp = "v1";
  // std::map iterates sources in sorted order: deterministic.
  for (const auto& [name, cap] : options.sources) {
    fp += ";" + name + "=";
    if (cap.sigma) fp += "s";
    if (cap.pushdown) fp += "p";
    if (!cap.database.empty()) fp += ":" + cap.database;
    for (const auto& [table, cols] : cap.tables) {
      fp += "," + table + "(";
      for (size_t i = 0; i < cols.size(); ++i) {
        if (i > 0) fp += " ";
        fp += cols[i].name + ":" + std::to_string(static_cast<int>(cols[i].type));
      }
      fp += ")";
    }
  }
  return fp;
}

}  // namespace mix::mediator::passes
