#include "wrappers/csv_wrapper.h"

#include <cstdlib>

#include "core/check.h"

namespace mix::wrappers {

using buffer::Fragment;
using buffer::FragmentList;
using buffer::FillBudget;
using buffer::HoleFillList;

Result<CsvTable> ParseCsv(std::string_view text) {
  CsvTable table;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&]() -> Status {
    if (record.empty()) return Status::OK();
    if (table.columns.empty()) {
      table.columns = std::move(record);
    } else {
      if (record.size() != table.columns.size()) {
        return Status::ParseError(
            "CSV row " + std::to_string(table.rows.size() + 2) + " has " +
            std::to_string(record.size()) + " fields, header has " +
            std::to_string(table.columns.size()));
      }
      table.rows.push_back(std::move(record));
    }
    record.clear();
    return Status::OK();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::ParseError("CSV: quote inside unquoted field");
        }
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // the next field exists even if empty
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n': {
        if (!field.empty() || field_started || !record.empty()) end_field();
        Status s = end_record();
        if (!s.ok()) return s;
        break;
      }
      default:
        field.push_back(c);
        field_started = true;
    }
  }
  if (in_quotes) return Status::ParseError("CSV: unterminated quoted field");
  if (!field.empty() || field_started || !record.empty()) end_field();
  Status s = end_record();
  if (!s.ok()) return s;
  if (table.columns.empty()) {
    return Status::ParseError("CSV: missing header record");
  }
  return table;
}

CsvLxpWrapper::CsvLxpWrapper(const CsvTable* table, Options options)
    : table_(table), options_(options) {
  MIX_CHECK(table_ != nullptr);
  MIX_CHECK(options_.chunk >= 1);
}

std::string CsvLxpWrapper::GetRoot(const std::string& uri) {
  (void)uri;
  return "c:root";
}

Fragment CsvLxpWrapper::RowFragment(size_t row) const {
  Fragment f = Fragment::Element("row");
  const auto& values = table_->rows[row];
  for (size_t i = 0; i < table_->columns.size(); ++i) {
    Fragment col = Fragment::Element(table_->columns[i]);
    col.children.push_back(Fragment::Text(values[i]));
    f.children.push_back(std::move(col));
  }
  return f;
}

Status CsvLxpWrapper::CheckHole(const std::string& hole_id) const {
  if (hole_id == "c:root") return Status::OK();
  int64_t from = 0;
  if (hole_id.rfind("c:", 0) != 0 ||
      !buffer::ParseHoleIndex(std::string_view(hole_id).substr(2), &from) ||
      from > static_cast<int64_t>(table_->rows.size())) {
    return Status::InvalidArgument("CsvLxpWrapper issued no hole id '" +
                                   hole_id + "'");
  }
  return Status::OK();
}

FragmentList CsvLxpWrapper::Fill(const std::string& hole_id) {
  ++fills_served_;
  MIX_CHECK_MSG(CheckHole(hole_id).ok(),
                "foreign hole id passed to CsvLxpWrapper");
  if (hole_id == "c:root") {
    Fragment root = Fragment::Element("csv");
    if (!table_->rows.empty()) {
      root.children.push_back(Fragment::Hole("c:0"));
    }
    return {std::move(root)};
  }
  size_t from = static_cast<size_t>(std::strtoll(hole_id.c_str() + 2,
                                                 nullptr, 10));
  size_t to = std::min(table_->rows.size(),
                       from + static_cast<size_t>(EffectiveChunk()));
  FragmentList out;
  for (size_t i = from; i < to; ++i) out.push_back(RowFragment(i));
  if (to < table_->rows.size()) {
    out.push_back(Fragment::Hole("c:" + std::to_string(to)));
  }
  return out;
}

HoleFillList CsvLxpWrapper::FillMany(const std::vector<std::string>& holes,
                            const FillBudget& budget) {
  return ChaseFills(holes, budget);
}

}  // namespace mix::wrappers
