#include "wrappers/relational_wrapper.h"

#include <cstdlib>

#include "core/check.h"

namespace mix::wrappers {

using buffer::Fragment;
using buffer::FragmentList;
using buffer::FillBudget;
using buffer::HoleFillList;

RelationalLxpWrapper::RelationalLxpWrapper(const rdb::Database* db,
                                           Options options)
    : db_(db), options_(options) {
  MIX_CHECK(db_ != nullptr);
  MIX_CHECK(options_.chunk >= 1);
}

buffer::PushdownCapability RelationalLxpWrapper::Capability() const {
  buffer::PushdownCapability cap;
  cap.pushdown = true;
  cap.database = db_->name();
  for (const std::string& name : db_->table_names()) {
    const rdb::Table* table = db_->GetTable(name);
    std::vector<SourceCapability::Column> cols;
    for (const rdb::Column& c : table->schema().columns()) {
      ColumnType type;
      switch (c.type) {
        case rdb::Type::kInt:
          type = ColumnType::kInt;
          break;
        case rdb::Type::kDouble:
          type = ColumnType::kDouble;
          break;
        default:
          type = ColumnType::kString;
          break;
      }
      cols.push_back({c.name, type});
    }
    cap.tables[name] = std::move(cols);
  }
  return cap;
}

std::string RelationalLxpWrapper::GetRoot(const std::string& uri) {
  if (uri == "db" || uri.empty()) {
    return "dbroot";
  }
  constexpr std::string_view kSqlPrefix = "sql:";
  MIX_CHECK_MSG(uri.rfind(kSqlPrefix, 0) == 0,
                "RelationalLxpWrapper URI must be 'db' or 'sql:<stmt>'");
  auto stmt = rdb::ParseSelect(uri.substr(kSqlPrefix.size()));
  MIX_CHECK_MSG(stmt.ok(), stmt.status().ToString().c_str());
  // LIMIT state cannot be carried across stateless chunked fills (each fill
  // reopens a cursor from the hole id); chunking already bounds transfers.
  MIX_CHECK_MSG(!stmt.value().limit.has_value(),
                "LIMIT is not supported on LXP query views");
  auto bound = rdb::BindSelect(*db_, stmt.value());
  MIX_CHECK_MSG(bound.ok(), bound.status().ToString().c_str());
  RegisteredQuery q;
  q.statement = stmt.value();
  q.result = std::make_unique<rdb::SelectResult>(std::move(bound).ValueOrDie());
  queries_.push_back(std::move(q));
  return "q:" + std::to_string(queries_.size() - 1) + ":root";
}

Fragment RelationalLxpWrapper::RowFragment(const rdb::Schema& schema,
                                           const rdb::Row& row) {
  Fragment f = Fragment::Element("row");
  for (size_t i = 0; i < schema.column_count(); ++i) {
    Fragment att = Fragment::Element(schema.columns()[i].name);
    att.children.push_back(Fragment::Text(row[i].ToString()));
    f.children.push_back(std::move(att));
  }
  return f;
}

FragmentList RelationalLxpWrapper::FillDatabase() {
  // Database level: the schema — one element per table, each with a hole
  // for its rows (the paper returns the relational schema here).
  Fragment db = Fragment::Element(db_->name());
  for (const std::string& name : db_->table_names()) {
    const rdb::Table* table = db_->GetTable(name);
    Fragment t = Fragment::Element(name);
    if (table->row_count() > 0) {
      t.children.push_back(Fragment::Hole("t:" + name + ":0"));
    }
    db.children.push_back(std::move(t));
  }
  return {std::move(db)};
}

FragmentList RelationalLxpWrapper::FillTable(const std::string& table_name,
                                             int64_t from_row) {
  const rdb::Table* table = db_->GetTable(table_name);
  MIX_CHECK_MSG(table != nullptr, "hole id names unknown table");
  MIX_CHECK(from_row >= 0 && from_row <= table->row_count());

  FragmentList out;
  int64_t hi = std::min<int64_t>(from_row + EffectiveChunk(), table->row_count());
  for (int64_t i = from_row; i < hi; ++i) {
    out.push_back(RowFragment(table->schema(), table->row(i)));
    ++rows_scanned_;
  }
  if (hi < table->row_count()) {
    out.push_back(Fragment::Hole("t:" + table_name + ":" + std::to_string(hi)));
  }
  return out;
}

FragmentList RelationalLxpWrapper::FillQuery(int64_t query_id, int64_t from_row,
                                             bool root_fill) {
  MIX_CHECK(query_id >= 0 &&
            query_id < static_cast<int64_t>(queries_.size()));
  const RegisteredQuery& q = queries_[static_cast<size_t>(query_id)];

  // Cursors are recreated per fill and positioned from the hole id — the
  // wrapper keeps no per-hole state (Section 4's id-encoding advice).
  auto cursor = q.result->Open();
  cursor.Seek(from_row);

  FragmentList rows;
  rdb::Row row;
  int64_t produced = 0;
  std::string next_hole;
  // The underlying cursor reports absolute source positions through
  // rows_scanned; we rebuild the absolute position of the *next* match by
  // walking matches one at a time.
  int64_t absolute = from_row;
  const int64_t chunk = EffectiveChunk();
  while (produced < chunk) {
    int64_t scanned_before = cursor.rows_scanned();
    if (!cursor.Next(&row)) break;
    absolute += cursor.rows_scanned() - scanned_before;
    rows.push_back(RowFragment(q.result->schema(), row));
    ++produced;
  }
  // Probe for one more match to decide whether a trailing hole is needed.
  int64_t scanned_before = cursor.rows_scanned();
  if (cursor.Next(&row)) {
    int64_t next_abs = absolute + (cursor.rows_scanned() - scanned_before) - 1;
    next_hole = "q:" + std::to_string(query_id) + ":" + std::to_string(next_abs);
  }
  rows_scanned_ += cursor.rows_scanned();

  if (root_fill) {
    Fragment view = Fragment::Element("view");
    view.children = std::move(rows);
    if (!next_hole.empty()) {
      view.children.push_back(Fragment::Hole(next_hole));
    }
    return {std::move(view)};
  }
  FragmentList out = std::move(rows);
  if (!next_hole.empty()) out.push_back(Fragment::Hole(next_hole));
  return out;
}

Status RelationalLxpWrapper::CheckHole(const std::string& hole_id) const {
  if (hole_id == "dbroot") return Status::OK();
  const std::string_view id(hole_id);
  int64_t n = 0;
  int64_t row = 0;
  bool issued = false;
  if (id.substr(0, 2) == "t:") {
    const size_t colon = id.rfind(':');
    const rdb::Table* table =
        colon > 2 ? db_->GetTable(std::string(id.substr(2, colon - 2)))
                  : nullptr;
    issued = table != nullptr &&
             buffer::ParseHoleIndex(id.substr(colon + 1), &row) &&
             row <= table->row_count();
  } else if (id.substr(0, 2) == "q:") {
    const size_t colon = id.find(':', 2);
    issued = colon != std::string_view::npos &&
             buffer::ParseHoleIndex(id.substr(2, colon - 2), &n) &&
             n < static_cast<int64_t>(queries_.size()) &&
             (id.substr(colon + 1) == "root" ||
              buffer::ParseHoleIndex(id.substr(colon + 1), &row));
  }
  if (!issued) {
    return Status::InvalidArgument("RelationalLxpWrapper issued no hole id '" +
                                   hole_id + "'");
  }
  return Status::OK();
}

FragmentList RelationalLxpWrapper::Fill(const std::string& hole_id) {
  ++fills_served_;
  MIX_CHECK_MSG(CheckHole(hole_id).ok(),
                "foreign hole id passed to RelationalLxpWrapper");
  if (hole_id == "dbroot") return FillDatabase();

  if (hole_id.rfind("t:", 0) == 0) {
    size_t colon = hole_id.rfind(':');
    std::string table = hole_id.substr(2, colon - 2);
    int64_t from_row = std::strtoll(hole_id.c_str() + colon + 1, nullptr, 10);
    return FillTable(table, from_row);
  }

  size_t colon = hole_id.find(':', 2);
  int64_t query_id = std::strtoll(hole_id.c_str() + 2, nullptr, 10);
  std::string rest = hole_id.substr(colon + 1);
  if (rest == "root") return FillQuery(query_id, 0, /*root_fill=*/true);
  return FillQuery(query_id, std::strtoll(rest.c_str(), nullptr, 10),
                   /*root_fill=*/false);
}

HoleFillList RelationalLxpWrapper::FillMany(const std::vector<std::string>& holes,
                                   const FillBudget& budget) {
  return ChaseFills(holes, budget);
}

}  // namespace mix::wrappers
