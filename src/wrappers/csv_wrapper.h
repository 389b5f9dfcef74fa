// LXP wrapper for CSV files — a third source species for the Fig. 1
// architecture (flat files are the classic "legacy source" of mediator
// systems). The CSV text is parsed once (header row = column names,
// RFC-4180-style quoting) and exported as
//
//   csv[ row[col1[v], col2[v], ...]* ]
//
// with `chunk` rows per LXP fill and `c:<row>` hole ids — the same
// granularity scheme as the relational wrapper, so every Section 4
// buffering result applies unchanged.
#ifndef MIX_WRAPPERS_CSV_WRAPPER_H_
#define MIX_WRAPPERS_CSV_WRAPPER_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/lxp.h"
#include "core/status.h"

namespace mix::wrappers {

/// Parsed CSV content.
struct CsvTable {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Parses CSV text: first record is the header. Handles quoted fields
/// ("a,b", doubled quotes), CRLF/LF, and a missing trailing newline.
/// Rows with a different arity than the header are a ParseError.
Result<CsvTable> ParseCsv(std::string_view text);

class CsvLxpWrapper : public buffer::LxpWrapper {
 public:
  struct Options {
    int chunk = 25;
  };

  /// `table` is not owned and must outlive the wrapper.
  CsvLxpWrapper(const CsvTable* table, Options options);
  explicit CsvLxpWrapper(const CsvTable* table)
      : CsvLxpWrapper(table, Options()) {}

  std::string GetRoot(const std::string& uri) override;
  buffer::FragmentList Fill(const std::string& hole_id) override;
  /// Batched fills with continuation-hole chasing: the hole-id encodings
  /// are stateless, so the shared budgeted chase loop applies directly.
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override;

  int64_t fills_served() const { return fills_served_; }

 protected:
  Status CheckHole(const std::string& hole_id) const override;
  /// Adaptive fill sizing from the shared chase loop: full scans serve
  /// max(chunk, hint) rows per fill.
  void SetFillSizeHint(int64_t elements) override {
    fill_size_hint_ = elements;
  }

 private:
  int64_t EffectiveChunk() const {
    return fill_size_hint_ > 0
               ? std::max<int64_t>(options_.chunk, fill_size_hint_)
               : options_.chunk;
  }

  buffer::Fragment RowFragment(size_t row) const;

  const CsvTable* table_;
  Options options_;
  int64_t fills_served_ = 0;
  int64_t fill_size_hint_ = 0;
};

}  // namespace mix::wrappers

#endif  // MIX_WRAPPERS_CSV_WRAPPER_H_
