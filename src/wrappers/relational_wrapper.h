// The relational LXP wrapper (paper Section 4).
//
// Exports a relational database as an XML view and answers LXP fills by
// advancing relational cursors. Two views are supported:
//
// 1. Whole-database view (`GetRoot("db")`), matching the paper's schema:
//
//      db_name[ table1[hole], ..., tablek[hole] ]
//
//    with row chunks of `chunk` tuples per fill and a trailing hole
//    `t:<table>:<row>` (the paper's `db_name.table.row_number` encoding:
//    all wrapper state lives in the hole id, no lookup table needed).
//
// 2. Query-result views: `GetRoot("sql:<SELECT ...>")` registers a mini-SQL
//    query (the paper: "the source generates a URI to identify the query
//    result") and exports view[row...] in Fig. 6's format, also chunked.
//
// Rows ship complete — "the wrapper does not have to deal with navigations
// at the attribute level". Row elements use the constant label "row"
// (Fig. 6 uses positional names row1..rown for presentation; a constant
// label is what path expressions need).
#ifndef MIX_WRAPPERS_RELATIONAL_WRAPPER_H_
#define MIX_WRAPPERS_RELATIONAL_WRAPPER_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lxp.h"
#include "rdb/database.h"
#include "rdb/sql.h"

namespace mix::wrappers {

class RelationalLxpWrapper : public buffer::LxpWrapper {
 public:
  struct Options {
    /// Tuples per fill (the paper's parameter n).
    int chunk = 10;
  };

  /// `db` is not owned and must outlive the wrapper.
  RelationalLxpWrapper(const rdb::Database* db, Options options);
  explicit RelationalLxpWrapper(const rdb::Database* db)
      : RelationalLxpWrapper(db, Options()) {}

  /// Predicate pushdown capability: the optimizer may rewrite a plan's
  /// source to a "sql:SELECT ... WHERE ..." query view, in which case the
  /// WHERE clause runs against the relational cursors and filtered rows
  /// never become fragments. σ stays off: crossing row holes still costs
  /// one fill per chunk, so sibling selection is not a bounded exchange.
  buffer::PushdownCapability Capability() const override;

  /// URIs: "db" for the whole-database view, "sql:<stmt>" for a query view.
  std::string GetRoot(const std::string& uri) override;
  buffer::FragmentList Fill(const std::string& hole_id) override;
  /// Batched fills with continuation-hole chasing: the hole-id encodings
  /// are stateless, so the shared budgeted chase loop applies directly.
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override;

  int64_t fills_served() const { return fills_served_; }
  /// Total source rows the wrapper's cursors stepped over (I/O proxy).
  int64_t rows_scanned() const { return rows_scanned_; }

 protected:
  Status CheckHole(const std::string& hole_id) const override;
  /// Adaptive fill sizing from the shared chase loop: full scans serve
  /// max(chunk, hint) rows per fill, amortizing the per-fill cursor reopen.
  void SetFillSizeHint(int64_t elements) override {
    fill_size_hint_ = elements;
  }

 private:
  int64_t EffectiveChunk() const {
    return fill_size_hint_ > 0
               ? std::max<int64_t>(options_.chunk, fill_size_hint_)
               : options_.chunk;
  }

  buffer::Fragment RowFragment(const rdb::Schema& schema, const rdb::Row& row);
  buffer::FragmentList FillDatabase();
  buffer::FragmentList FillTable(const std::string& table, int64_t from_row);
  buffer::FragmentList FillQuery(int64_t query_id, int64_t from_row,
                                 bool root_fill);

  const rdb::Database* db_;
  Options options_;
  int64_t fill_size_hint_ = 0;
  int64_t fills_served_ = 0;
  int64_t rows_scanned_ = 0;

  struct RegisteredQuery {
    rdb::SelectStatement statement;
    std::unique_ptr<rdb::SelectResult> result;
  };
  std::vector<RegisteredQuery> queries_;
};

}  // namespace mix::wrappers

#endif  // MIX_WRAPPERS_RELATIONAL_WRAPPER_H_
