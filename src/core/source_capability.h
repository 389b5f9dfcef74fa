// What the wrapper behind a source can absorb beyond plain LXP. The wrapper
// advertises it (buffer::LxpWrapper::Capability) and the plan optimizer
// reads it (mediator::passes::OptimizerOptions), so it lives below both.
#ifndef MIX_CORE_SOURCE_CAPABILITY_H_
#define MIX_CORE_SOURCE_CAPABILITY_H_

#include <map>
#include <string>
#include <vector>

namespace mix {

/// Column types a pushdown-capable source exposes. Mirrors rdb::Type, which
/// neither the buffer nor the mediator links.
enum class ColumnType { kInt, kDouble, kString };

/// Queried per source (capability is not a global bool), so a plan mixing
/// relational and CSV legs only rewrites the legs that honor it. The
/// default is the empty capability: no σ, no pushdown.
struct SourceCapability {
  /// Source answers σ (sibling label selection) in one exchange:
  /// label-chain getDescendants over it is bounded browsable.
  bool sigma = false;
  /// Source accepts a "sql:SELECT ..." view URI whose WHERE clause it
  /// evaluates itself: comparison predicates can be compiled into the view
  /// so filtered tuples never cross the wire.
  bool pushdown = false;
  /// Root label of the exported database document (the <db> in
  /// db.<table>.row paths). Only meaningful when `pushdown`.
  std::string database;
  struct Column {
    std::string name;
    ColumnType type = ColumnType::kString;
  };
  /// table name -> columns, for pushdown type-legality checks.
  std::map<std::string, std::vector<Column>> tables;
};

}  // namespace mix

#endif  // MIX_CORE_SOURCE_CAPABILITY_H_
