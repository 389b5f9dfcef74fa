#include "mediator/ir.h"

#include <algorithm>
#include <cstdio>

#include "pathexpr/path_expr.h"

namespace mix::mediator {

namespace {

bool IsLabelChain(const std::string& path) {
  auto parsed = pathexpr::PathExpr::Parse(path);
  return parsed.ok() && parsed.value().IsLabelChain();
}

Status Analyze(const PlanNode& n,
               const std::map<std::string, SourceCapability>& caps,
               AnnotationTable* table) {
  using Kind = PlanNode::Kind;
  std::vector<const Annotation*> in;
  for (const PlanPtr& c : n.children) {
    Status s = Analyze(*c, caps, table);
    if (!s.ok()) return s;
    in.push_back(&table->at(c.get()));
  }
  // Element references survive rehashing, so `in` stays valid.
  Annotation& a = (*table)[&n];

  // Schema (kTupleDestroy yields a document, not bindings: empty schema).
  if (n.kind != Kind::kTupleDestroy) {
    std::vector<algebra::VarList> child_schemas;
    for (const Annotation* c : in) child_schemas.push_back(c->schema);
    auto s = SchemaTransition(n, child_schemas);
    if (!s.ok()) return s.status();
    a.schema = std::move(s).ValueOrDie();
  }

  // Provenance: merge children, apply the operator's own bindings, then
  // restrict to the output schema.
  for (const Annotation* c : in) {
    a.var_source.insert(c->var_source.begin(), c->var_source.end());
  }
  switch (n.kind) {
    case Kind::kSource:
      a.var_source[n.var] = n.source_name;
      break;
    case Kind::kGetDescendants: {
      auto it = a.var_source.find(n.parent_var);
      a.var_source[n.out_var] = it == a.var_source.end() ? "" : it->second;
      break;
    }
    case Kind::kGroupBy:
    case Kind::kConcatenate:
    case Kind::kCreateElement:
    case Kind::kWrapList:
    case Kind::kConst:
      // Constructors synthesize their output value.
      a.var_source[n.out_var] = "";
      break;
    case Kind::kCachedView:
      // Snapshot values have no live σ-capable source behind them.
      a.var_source[n.var] = "";
      break;
    case Kind::kRename: {
      auto it = a.var_source.find(n.x_var);
      a.var_source[n.out_var] = it == a.var_source.end() ? "" : it->second;
      break;
    }
    default:
      break;
  }
  for (auto it = a.var_source.begin(); it != a.var_source.end();) {
    bool in_schema = std::find(a.schema.begin(), a.schema.end(),
                               it->first) != a.schema.end();
    it = in_schema ? std::next(it) : a.var_source.erase(it);
  }

  // Source set.
  for (const Annotation* c : in) {
    a.sources.insert(a.sources.end(), c->sources.begin(), c->sources.end());
  }
  if (n.kind == Kind::kSource) a.sources.push_back(n.source_name);
  std::sort(a.sources.begin(), a.sources.end());
  a.sources.erase(std::unique(a.sources.begin(), a.sources.end()),
                  a.sources.end());

  // Browsability, σ-capability resolved per source through provenance.
  bool sigma = false;
  if (n.kind == Kind::kGetDescendants && !in.empty()) {
    auto v = in[0]->var_source.find(n.parent_var);
    if (v != in[0]->var_source.end()) {
      auto c = caps.find(v->second);
      sigma = c != caps.end() && c->second.sigma;
    }
  }
  a.cls = ClassifyOperator(n, sigma, nullptr);
  for (const Annotation* c : in) {
    a.cls = std::max(a.cls, c->cls, [](Browsability x, Browsability y) {
      return static_cast<int>(x) < static_cast<int>(y);
    });
  }

  // Fan-out estimate.
  double in0 = in.empty() ? 1.0 : in[0]->fanout;
  double in1 = in.size() > 1 ? in[1]->fanout : 1.0;
  switch (n.kind) {
    case Kind::kSource:
      a.fanout = 1.0;
      break;
    case Kind::kGetDescendants:
      a.fanout = in0 * (IsLabelChain(n.path) ? 4.0 : 8.0);
      break;
    case Kind::kSelect:
      a.fanout = in0 * (n.predicate->is_var_var() ? 0.5 : 0.25);
      break;
    case Kind::kJoin:
      a.fanout = in0 * in1 *
                 (n.predicate->op() == algebra::CompareOp::kEq ? 0.1 : 0.5);
      break;
    case Kind::kGroupBy:
      a.fanout = in0 * 0.5;
      break;
    case Kind::kDistinct:
      a.fanout = in0 * 0.75;
      break;
    case Kind::kUnion:
      a.fanout = in0 + in1;
      break;
    case Kind::kDifference:
      a.fanout = in0;
      break;
    default:
      a.fanout = in0;
      break;
  }
  return Status::OK();
}

void Dump(const PlanNode& n, const AnnotationTable& table, int depth,
          std::string* out) {
  const Annotation& a = table.at(&n);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += RenderOp(n);
  std::string schema = "{";
  for (size_t i = 0; i < a.schema.size(); ++i) {
    if (i > 0) schema += ",";
    schema += "$" + a.schema[i];
  }
  schema += "}";
  std::string src = "{";
  bool first = true;
  for (const auto& [var, source] : a.var_source) {
    if (!first) src += ",";
    first = false;
    src += var + ":" + (source.empty() ? "-" : source);
  }
  src += "}";
  char fanout[32];
  std::snprintf(fanout, sizeof(fanout), "%.3g", a.fanout);
  *out += " % schema=" + schema + " src=" + src +
          " cls=" + BrowsabilityName(a.cls) + " fanout=" + fanout + "\n";
  for (const PlanPtr& c : n.children) Dump(*c, table, depth + 1, out);
}

}  // namespace

Status AnalyzeIr(const PlanNode& root,
                 const std::map<std::string, SourceCapability>& caps,
                 AnnotationTable* table) {
  table->clear();
  return Analyze(root, caps, table);
}

std::string DumpIr(const PlanNode& root, const AnnotationTable& table) {
  std::string out;
  Dump(root, table, 0, &out);
  return out;
}

std::vector<std::string> InputVars(const PlanNode& op) {
  using Kind = PlanNode::Kind;
  std::vector<std::string> vars;
  auto pred_vars = [&vars](const std::optional<algebra::BindingPredicate>& p) {
    if (!p.has_value()) return;
    vars.push_back(p->left_var());
    if (p->is_var_var()) vars.push_back(p->right_var());
  };
  switch (op.kind) {
    case Kind::kSource:
    case Kind::kCachedView:
    case Kind::kMaterialize:
    case Kind::kUnion:
    case Kind::kDifference:
    case Kind::kDistinct:
      break;
    case Kind::kGetDescendants:
      vars.push_back(op.parent_var);
      pred_vars(op.predicate);
      break;
    case Kind::kSelect:
    case Kind::kJoin:
      pred_vars(op.predicate);
      break;
    case Kind::kGroupBy:
      vars = op.vars;
      vars.push_back(op.grouped_var);
      break;
    case Kind::kConcatenate:
      vars.push_back(op.x_var);
      vars.push_back(op.y_var);
      break;
    case Kind::kCreateElement:
      vars.push_back(op.x_var);
      if (!op.label_is_constant) vars.push_back(op.label);
      break;
    case Kind::kOrderBy:
    case Kind::kProject:
      vars = op.vars;
      break;
    case Kind::kWrapList:
    case Kind::kRename:
      vars.push_back(op.x_var);
      break;
    case Kind::kConst:
      break;
    case Kind::kTupleDestroy:
      if (!op.var.empty()) vars.push_back(op.var);
      break;
  }
  return vars;
}

int CountVarUses(const PlanNode& root, const std::string& var) {
  int count = 0;
  for (const std::string& v : InputVars(root)) {
    if (v == var) ++count;
  }
  for (const PlanPtr& c : root.children) count += CountVarUses(*c, var);
  return count;
}

}  // namespace mix::mediator
