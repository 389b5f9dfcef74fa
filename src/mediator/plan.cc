#include "mediator/plan.h"

#include <algorithm>

#include "core/check.h"

namespace mix::mediator {

namespace {

PlanPtr Make(PlanNode::Kind kind, std::vector<PlanPtr> children) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->children = std::move(children);
  return node;
}

bool Contains(const algebra::VarList& vars, const std::string& v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

Status DupVar(const std::string& v) {
  return Status::InvalidArgument("variable bound twice: $" + v);
}

Status MissingVar(const std::string& v, const char* where) {
  return Status::InvalidArgument("variable $" + v + " not bound below " +
                                 where);
}

}  // namespace

PlanPtr PlanNode::Source(std::string source_name, std::string var) {
  PlanPtr n = Make(Kind::kSource, {});
  n->source_name = std::move(source_name);
  n->var = std::move(var);
  return n;
}

PlanPtr PlanNode::GetDescendants(PlanPtr child, std::string parent_var,
                                 std::string path, std::string out_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kGetDescendants, std::move(c));
  n->parent_var = std::move(parent_var);
  n->path = std::move(path);
  n->out_var = std::move(out_var);
  return n;
}

PlanPtr PlanNode::Select(PlanPtr child, algebra::BindingPredicate predicate) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kSelect, std::move(c));
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right,
                       algebra::BindingPredicate predicate) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(left));
  c.push_back(std::move(right));
  PlanPtr n = Make(Kind::kJoin, std::move(c));
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr PlanNode::GroupBy(PlanPtr child, algebra::VarList group_vars,
                          std::string grouped_var, std::string out_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kGroupBy, std::move(c));
  n->vars = std::move(group_vars);
  n->grouped_var = std::move(grouped_var);
  n->out_var = std::move(out_var);
  return n;
}

PlanPtr PlanNode::Concatenate(PlanPtr child, std::string x_var,
                              std::string y_var, std::string out_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kConcatenate, std::move(c));
  n->x_var = std::move(x_var);
  n->y_var = std::move(y_var);
  n->out_var = std::move(out_var);
  return n;
}

PlanPtr PlanNode::CreateElement(PlanPtr child, bool label_is_constant,
                                std::string label, std::string ch_var,
                                std::string out_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kCreateElement, std::move(c));
  n->label_is_constant = label_is_constant;
  n->label = std::move(label);
  n->x_var = std::move(ch_var);
  n->out_var = std::move(out_var);
  return n;
}

PlanPtr PlanNode::OrderBy(PlanPtr child, algebra::VarList sort_vars) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kOrderBy, std::move(c));
  n->vars = std::move(sort_vars);
  return n;
}

PlanPtr PlanNode::OrderByOccurrence(PlanPtr child,
                                    algebra::VarList sort_vars) {
  PlanPtr n = OrderBy(std::move(child), std::move(sort_vars));
  n->order_by_occurrence = true;
  return n;
}

PlanPtr PlanNode::Materialize(PlanPtr child) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  return Make(Kind::kMaterialize, std::move(c));
}

PlanPtr PlanNode::Union(PlanPtr left, PlanPtr right) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(left));
  c.push_back(std::move(right));
  return Make(Kind::kUnion, std::move(c));
}

PlanPtr PlanNode::Difference(PlanPtr left, PlanPtr right) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(left));
  c.push_back(std::move(right));
  return Make(Kind::kDifference, std::move(c));
}

PlanPtr PlanNode::Distinct(PlanPtr child) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  return Make(Kind::kDistinct, std::move(c));
}

PlanPtr PlanNode::Project(PlanPtr child, algebra::VarList vars) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kProject, std::move(c));
  n->vars = std::move(vars);
  return n;
}

PlanPtr PlanNode::WrapList(PlanPtr child, std::string x_var,
                           std::string out_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kWrapList, std::move(c));
  n->x_var = std::move(x_var);
  n->out_var = std::move(out_var);
  return n;
}

PlanPtr PlanNode::Const(PlanPtr child, std::string text, std::string out_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kConst, std::move(c));
  n->text = std::move(text);
  n->out_var = std::move(out_var);
  return n;
}

PlanPtr PlanNode::Rename(PlanPtr child, std::string old_var,
                         std::string new_var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kRename, std::move(c));
  n->x_var = std::move(old_var);
  n->out_var = std::move(new_var);
  return n;
}

PlanPtr PlanNode::TupleDestroy(PlanPtr child, std::string var) {
  std::vector<PlanPtr> c;
  c.push_back(std::move(child));
  PlanPtr n = Make(Kind::kTupleDestroy, std::move(c));
  n->var = std::move(var);
  return n;
}

PlanPtr PlanNode::CachedView(std::string source_name, std::string var,
                             bool children) {
  PlanPtr n = Make(Kind::kCachedView, {});
  n->source_name = std::move(source_name);
  n->var = std::move(var);
  n->cached_view_children = children;
  return n;
}

PlanPtr PlanNode::Clone() const {
  auto n = std::make_unique<PlanNode>();
  n->kind = kind;
  n->source_name = source_name;
  n->source_uri = source_uri;
  n->var = var;
  n->parent_var = parent_var;
  n->out_var = out_var;
  n->path = path;
  n->use_sigma = use_sigma;
  n->predicate = predicate;
  n->join_cache_inner = join_cache_inner;
  n->join_index_inner = join_index_inner;
  n->order_by_occurrence = order_by_occurrence;
  n->vars = vars;
  n->grouped_var = grouped_var;
  n->x_var = x_var;
  n->y_var = y_var;
  n->label_is_constant = label_is_constant;
  n->label = label;
  n->text = text;
  n->cached_view_children = cached_view_children;
  for (const PlanPtr& c : children) n->children.push_back(c->Clone());
  return n;
}

const char* PlanKindName(PlanNode::Kind kind) {
  switch (kind) {
    case PlanNode::Kind::kSource:
      return "source";
    case PlanNode::Kind::kGetDescendants:
      return "getDescendants";
    case PlanNode::Kind::kSelect:
      return "select";
    case PlanNode::Kind::kJoin:
      return "join";
    case PlanNode::Kind::kGroupBy:
      return "groupBy";
    case PlanNode::Kind::kConcatenate:
      return "concatenate";
    case PlanNode::Kind::kCreateElement:
      return "createElement";
    case PlanNode::Kind::kOrderBy:
      return "orderBy";
    case PlanNode::Kind::kMaterialize:
      return "materialize";
    case PlanNode::Kind::kUnion:
      return "union";
    case PlanNode::Kind::kDifference:
      return "difference";
    case PlanNode::Kind::kDistinct:
      return "distinct";
    case PlanNode::Kind::kProject:
      return "project";
    case PlanNode::Kind::kWrapList:
      return "wrapList";
    case PlanNode::Kind::kConst:
      return "const";
    case PlanNode::Kind::kRename:
      return "rename";
    case PlanNode::Kind::kCachedView:
      return "cachedView";
    case PlanNode::Kind::kTupleDestroy:
      return "tupleDestroy";
  }
  return "?";
}

namespace {

std::string Params(const PlanNode& n) {
  using Kind = PlanNode::Kind;
  auto vars = [](const algebra::VarList& vs) {
    std::string out = "{";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ",";
      out += "$" + vs[i];
    }
    return out + "}";
  };
  switch (n.kind) {
    case Kind::kSource:
      // The uri override is the LAST parameter and runs to the closing
      // bracket verbatim (it may contain commas and quotes; plan_text
      // parses it greedily).
      return "[" + n.source_name + " -> $" + n.var +
             (n.source_uri.empty() ? "" : ", uri=" + n.source_uri) + "]";
    case Kind::kGetDescendants:
      return std::string("[$") + n.parent_var + "," + n.path + " -> $" +
             n.out_var + (n.use_sigma ? ", sigma" : "") +
             (n.predicate.has_value() ? ", where " + n.predicate->ToString()
                                      : "") +
             "]";
    case Kind::kSelect:
    case Kind::kJoin:
      return "[" + n.predicate->ToString() + "]";
    case Kind::kGroupBy:
      return "[" + vars(n.vars) + ",$" + n.grouped_var + " -> $" + n.out_var +
             "]";
    case Kind::kConcatenate:
      return "[$" + n.x_var + ",$" + n.y_var + " -> $" + n.out_var + "]";
    case Kind::kCreateElement:
      return std::string("[") + (n.label_is_constant ? n.label : "$" + n.label) +
             ",$" + n.x_var + " -> $" + n.out_var + "]";
    case Kind::kOrderBy:
      return "[" + vars(n.vars) +
             (n.order_by_occurrence ? ", occurrence" : "") + "]";
    case Kind::kProject:
      return "[" + vars(n.vars) + "]";
    case Kind::kWrapList:
    case Kind::kRename:
      return "[$" + n.x_var + " -> $" + n.out_var + "]";
    case Kind::kConst:
      return "['" + n.text + "' -> $" + n.out_var + "]";
    case Kind::kCachedView:
      return "[" + n.source_name + " -> $" + n.var +
             (n.cached_view_children ? ", children" : "") + "]";
    case Kind::kTupleDestroy:
      return n.var.empty() ? "" : "[$" + n.var + "]";
    default:
      return "";
  }
}

void Render(const PlanNode& n, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += RenderOp(n);
  *out += '\n';
  for (const PlanPtr& c : n.children) Render(*c, depth + 1, out);
}

}  // namespace

std::string RenderOp(const PlanNode& node) {
  return PlanKindName(node.kind) + Params(node);
}

std::string PlanNode::ToString() const {
  std::string out;
  Render(*this, 0, &out);
  return out;
}

Result<algebra::VarList> ComputeSchema(const PlanNode& node) {
  std::vector<algebra::VarList> child_schemas;
  for (const PlanPtr& c : node.children) {
    auto s = ComputeSchema(*c);
    if (!s.ok()) return s.status();
    child_schemas.push_back(std::move(s).ValueOrDie());
  }
  return SchemaTransition(node, child_schemas);
}

Result<algebra::VarList> SchemaTransition(
    const PlanNode& node, const std::vector<algebra::VarList>& child_schemas) {
  using Kind = PlanNode::Kind;
  switch (node.kind) {
    case Kind::kSource:
      return algebra::VarList{node.var};
    case Kind::kGetDescendants: {
      algebra::VarList s = child_schemas[0];
      if (!Contains(s, node.parent_var)) {
        return MissingVar(node.parent_var, "getDescendants");
      }
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      s.push_back(node.out_var);
      if (node.predicate.has_value()) {
        if (!Contains(s, node.predicate->left_var())) {
          return MissingVar(node.predicate->left_var(), "getDescendants");
        }
        if (node.predicate->is_var_var() &&
            !Contains(s, node.predicate->right_var())) {
          return MissingVar(node.predicate->right_var(), "getDescendants");
        }
      }
      return s;
    }
    case Kind::kSelect: {
      const algebra::VarList& s = child_schemas[0];
      if (!Contains(s, node.predicate->left_var())) {
        return MissingVar(node.predicate->left_var(), "select");
      }
      if (node.predicate->is_var_var() &&
          !Contains(s, node.predicate->right_var())) {
        return MissingVar(node.predicate->right_var(), "select");
      }
      return s;
    }
    case Kind::kJoin: {
      algebra::VarList s = child_schemas[0];
      for (const std::string& v : child_schemas[1]) {
        if (Contains(s, v)) return DupVar(v);
        s.push_back(v);
      }
      if (!Contains(s, node.predicate->left_var()) ||
          !Contains(s, node.predicate->right_var())) {
        return MissingVar(node.predicate->left_var(), "join");
      }
      return s;
    }
    case Kind::kGroupBy: {
      const algebra::VarList& in = child_schemas[0];
      algebra::VarList s;
      for (const std::string& v : node.vars) {
        if (!Contains(in, v)) return MissingVar(v, "groupBy");
        s.push_back(v);
      }
      if (!Contains(in, node.grouped_var)) {
        return MissingVar(node.grouped_var, "groupBy");
      }
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      s.push_back(node.out_var);
      return s;
    }
    case Kind::kConcatenate: {
      algebra::VarList s = child_schemas[0];
      if (!Contains(s, node.x_var)) return MissingVar(node.x_var, "concatenate");
      if (!Contains(s, node.y_var)) return MissingVar(node.y_var, "concatenate");
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      s.push_back(node.out_var);
      return s;
    }
    case Kind::kCreateElement: {
      algebra::VarList s = child_schemas[0];
      if (!Contains(s, node.x_var)) {
        return MissingVar(node.x_var, "createElement");
      }
      if (!node.label_is_constant && !Contains(s, node.label)) {
        return MissingVar(node.label, "createElement");
      }
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      s.push_back(node.out_var);
      return s;
    }
    case Kind::kOrderBy: {
      const algebra::VarList& s = child_schemas[0];
      for (const std::string& v : node.vars) {
        if (!Contains(s, v)) return MissingVar(v, "orderBy");
      }
      return s;
    }
    case Kind::kUnion:
    case Kind::kDifference: {
      if (child_schemas[0] != child_schemas[1]) {
        return Status::InvalidArgument(
            std::string(PlanKindName(node.kind)) +
            " requires identical input schemas");
      }
      return child_schemas[0];
    }
    case Kind::kDistinct:
    case Kind::kMaterialize:
      return child_schemas[0];
    case Kind::kProject: {
      const algebra::VarList& s = child_schemas[0];
      for (const std::string& v : node.vars) {
        if (!Contains(s, v)) return MissingVar(v, "project");
      }
      return node.vars;
    }
    case Kind::kWrapList: {
      algebra::VarList s = child_schemas[0];
      if (!Contains(s, node.x_var)) return MissingVar(node.x_var, "wrapList");
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      s.push_back(node.out_var);
      return s;
    }
    case Kind::kConst: {
      algebra::VarList s = child_schemas[0];
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      s.push_back(node.out_var);
      return s;
    }
    case Kind::kRename: {
      algebra::VarList s = child_schemas[0];
      if (!Contains(s, node.x_var)) return MissingVar(node.x_var, "rename");
      if (Contains(s, node.out_var)) return DupVar(node.out_var);
      for (std::string& v : s) {
        if (v == node.x_var) v = node.out_var;
      }
      return s;
    }
    case Kind::kCachedView:
      return algebra::VarList{node.var};
    case Kind::kTupleDestroy:
      return Status::InvalidArgument(
          "tupleDestroy produces a document, not a binding stream");
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace mix::mediator
