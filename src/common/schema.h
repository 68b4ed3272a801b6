// Relation schemas: ordered lists of named, typed columns.

#ifndef IMP_COMMON_SCHEMA_H_
#define IMP_COMMON_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace imp {

/// One column of a relation schema.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kNull;

  bool operator==(const ColumnDef& o) const {
    return name == o.name && type == o.type;
  }
};

/// True when a value of type `got` may be stored in a column of type
/// `want`: the same type, NULL, or an INT that widens into a DOUBLE. The
/// one typing rule of the write boundary (ConformRows) and the binder.
inline bool FitsColumnType(ValueType got, ValueType want) {
  return got == want || got == ValueType::kNull ||
         (got == ValueType::kInt && want == ValueType::kDouble);
}

/// Ordered column list. Column resolution supports both bare names ("a")
/// and qualified names ("r.a"); the binder stores qualified names when two
/// inputs would otherwise clash.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }
  const ColumnDef& column(size_t i) const { return columns_.at(i); }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  void AddColumn(std::string name, ValueType type) {
    columns_.push_back(ColumnDef{std::move(name), type});
  }

  /// Resolve a (possibly qualified) column name to its index.
  /// Returns nullopt when the name is absent or ambiguous.
  std::optional<size_t> IndexOf(const std::string& name) const;

  /// Concatenate two schemas (join output), qualifying clashing names with
  /// the given input qualifiers when necessary.
  static Schema Concat(const Schema& left, const Schema& right);

  /// "name:TYPE, name:TYPE, ..." for plan printing.
  std::string ToString() const;

  bool operator==(const Schema& o) const { return columns_ == o.columns_; }

 private:
  std::vector<ColumnDef> columns_;
};

}  // namespace imp

#endif  // IMP_COMMON_SCHEMA_H_
