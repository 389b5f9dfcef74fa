// Wrapper predicate pushdown: a var-const selection whose variable is
// extracted from a relational source's column compiles into the wrapper's
// mini-SQL view URI, so filtered tuples never cross the wire.
//
// Pattern (all nodes in one tree):
//
//   select[$Z op 'lit']                          -- removed
//     ... getDescendants[$T,<col>._ -> $Z] ...   -- kept (binds the cell)
//           ... getDescendants[$R,<db>.<table>.row -> $T] ...
//                 ... source[name -> $R]         -- gains uri=sql:SELECT...
//
// Legality:
//   * the source's capability has pushdown, database == <db>, and <table>
//     is in its catalog with a column <col>;
//   * type discipline — the XMAS side compares with CompareAtoms (numeric
//     iff both sides parse as numbers) while rdb compares typed values, so
//     only two cases provably agree: an int column with an all-digits
//     constant (both numeric), and a string column with a non-numeric
//     constant (both lexicographic). Double columns never push (text
//     round-tripping is not exact);
//   * $R is consumed exactly once (the db-level getDescendants) — nothing
//     else navigates the raw document we are about to replace;
//   * each variable on the chain has a unique definition (a var bound in
//     both branches of a union is ambiguous) and the source name appears
//     once among the plan's source nodes (a self-joined source shares one
//     buffer component per session, which can serve only one view);
//   * the source has no prior URI override.
//
// The rewrite also repoints the row-level getDescendants at view.row: the
// "sql:" view exports view[row...], not <db>[<table>[...]].
#include <cstdlib>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

using Kind = PlanNode::Kind;

struct VarDef {
  PlanNode* node = nullptr;
  int count = 0;
};

void CollectDefs(PlanNode* n, std::map<std::string, VarDef>* defs,
                 std::map<std::string, int>* source_names) {
  const std::string* bound = nullptr;
  switch (n->kind) {
    case Kind::kSource:
      bound = &n->var;
      (*source_names)[n->source_name] += 1;
      break;
    case Kind::kGetDescendants:
    case Kind::kGroupBy:
    case Kind::kConcatenate:
    case Kind::kCreateElement:
    case Kind::kWrapList:
    case Kind::kConst:
    case Kind::kRename:
      bound = &n->out_var;
      break;
    default:
      break;
  }
  if (bound != nullptr) {
    VarDef& d = (*defs)[*bound];
    d.node = n;
    d.count += 1;
  }
  for (PlanPtr& c : n->children) CollectDefs(c.get(), defs, source_names);
}

void CollectSelectSlots(PlanPtr* slot, std::vector<PlanPtr*>* out) {
  if ((*slot)->kind == Kind::kSelect) out->push_back(slot);
  for (PlanPtr& c : (*slot)->children) CollectSelectSlots(&c, out);
}

/// "<col>._" -> col; empty if the path is not a one-column extraction.
std::string ColumnOf(const std::string& path) {
  if (path.size() < 3 || path.substr(path.size() - 2) != "._") return "";
  std::string col = path.substr(0, path.size() - 2);
  return col.find('.') == std::string::npos ? col : "";
}

/// "<db>.<table>.row" -> {db, table}; empty db on mismatch.
void RowPathOf(const std::string& path, std::string* db, std::string* table) {
  db->clear();
  size_t d1 = path.find('.');
  if (d1 == std::string::npos) return;
  size_t d2 = path.find('.', d1 + 1);
  if (d2 == std::string::npos) return;
  if (path.substr(d2 + 1) != "row") return;
  *db = path.substr(0, d1);
  *table = path.substr(d1 + 1, d2 - d1 - 1);
}

bool IsIntLiteral(const std::string& s) {
  size_t i = s.size() && s[0] == '-' ? 1 : 0;
  if (i == s.size() || s.size() - i > 18) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// CompareAtoms treats a side as numeric iff strtod consumes it fully.
bool IsNumericAtom(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool TypeLegal(ColumnType type, const std::string& constant) {
  if (constant.find('\'') != std::string::npos ||
      constant.find('\n') != std::string::npos ||
      constant.find('\r') != std::string::npos) {
    return false;
  }
  switch (type) {
    case ColumnType::kInt:
      return IsIntLiteral(constant);
    case ColumnType::kString:
      return !IsNumericAtom(constant);
    case ColumnType::kDouble:
      return false;
  }
  return false;
}

struct Candidate {
  PlanPtr* select_slot;
  PlanNode* source;  ///< gains the uri override
  PlanNode* row_gd;  ///< repointed at view.row
  std::string table;
  std::string sql_term;  ///< "col op lit"
};

class WrapperPushdownPass : public Pass {
 public:
  const char* name() const override { return "wrapper_pushdown"; }

  Result<int> Run(PlanPtr* root, const OptimizerOptions& options,
                  AnnotationTable*) override {
    std::map<std::string, VarDef> defs;
    std::map<std::string, int> source_names;
    CollectDefs(root->get(), &defs, &source_names);

    std::vector<PlanPtr*> selects;
    CollectSelectSlots(root, &selects);

    std::vector<Candidate> candidates;
    for (PlanPtr* slot : selects) {
      Candidate c;
      if (Match(**root, **slot, defs, source_names, options, &c)) {
        c.select_slot = slot;
        candidates.push_back(c);
      }
    }
    if (candidates.empty()) return 0;

    // One SQL view per source node, predicates in plan pre-order.
    std::map<PlanNode*, std::string> where;
    for (const Candidate& c : candidates) {
      std::string& w = where[c.source];
      w += w.empty() ? "sql:SELECT * FROM " + c.table + " WHERE " : " AND ";
      w += c.sql_term;
    }
    for (const auto& [source, sql] : where) source->source_uri = sql;
    for (const Candidate& c : candidates) c.row_gd->path = "view.row";

    // Splice deepest-first so shallower collected slots stay valid.
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      PlanPtr select = std::move(*it->select_slot);
      *it->select_slot = std::move(select->children[0]);
    }
    return static_cast<int>(candidates.size());
  }

 private:
  bool Match(const PlanNode& root, const PlanNode& select,
             const std::map<std::string, VarDef>& defs,
             const std::map<std::string, int>& source_names,
             const OptimizerOptions& options, Candidate* out) {
    const auto& pred = select.predicate;
    if (pred->is_var_var()) return false;

    auto unique_def = [&defs](const std::string& var) -> PlanNode* {
      auto it = defs.find(var);
      return it != defs.end() && it->second.count == 1 ? it->second.node
                                                       : nullptr;
    };

    PlanNode* col_gd = unique_def(pred->left_var());
    if (col_gd == nullptr || col_gd->kind != Kind::kGetDescendants ||
        col_gd->predicate.has_value()) {
      return false;
    }
    std::string col = ColumnOf(col_gd->path);
    if (col.empty()) return false;

    PlanNode* row_gd = unique_def(col_gd->parent_var);
    if (row_gd == nullptr || row_gd->kind != Kind::kGetDescendants ||
        row_gd->predicate.has_value()) {
      return false;
    }
    std::string db, table;
    RowPathOf(row_gd->path, &db, &table);
    if (db.empty()) return false;

    PlanNode* source = unique_def(row_gd->parent_var);
    if (source == nullptr || source->kind != Kind::kSource ||
        !source->source_uri.empty()) {
      return false;
    }
    auto names = source_names.find(source->source_name);
    if (names == source_names.end() || names->second != 1) return false;
    if (CountVarUses(root, source->var) != 1) return false;

    auto cap = options.sources.find(source->source_name);
    if (cap == options.sources.end() || !cap->second.pushdown ||
        cap->second.database != db) {
      return false;
    }
    auto cols = cap->second.tables.find(table);
    if (cols == cap->second.tables.end()) return false;
    const SourceCapability::Column* column = nullptr;
    for (const auto& c : cols->second) {
      if (c.name == col) column = &c;
    }
    if (column == nullptr || !TypeLegal(column->type, pred->constant())) {
      return false;
    }

    out->source = source;
    out->row_gd = row_gd;
    out->table = table;
    out->sql_term =
        col + " " + algebra::CompareOpName(pred->op()) + " " +
        (column->type == ColumnType::kString ? "'" + pred->constant() + "'"
                                             : pred->constant());
    return true;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeWrapperPushdownPass() {
  return std::make_unique<WrapperPushdownPass>();
}

}  // namespace mix::mediator::passes
