#ifndef MGJOIN_EXEC_TABLE_H_
#define MGJOIN_EXEC_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace mgjoin::exec {

/// Column value types. Dates are stored as int32 days since 1970-01-01;
/// low-cardinality strings are dictionary-encoded int32 codes.
enum class ColType { kInt32, kInt64, kDouble, kDate, kDict };

/// \brief One column of a table shard.
///
/// Numeric/dict data lives in `ints`; kDouble lives in `doubles`. The
/// dictionary (for kDict) is shared via the enclosing Table's schema.
struct Column {
  ColType type = ColType::kInt64;
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;

  std::size_t size() const {
    return type == ColType::kDouble ? doubles.size() : ints.size();
  }
  std::uint64_t ByteWidth() const {
    switch (type) {
      case ColType::kInt32:
      case ColType::kDate:
      case ColType::kDict:
        return 4;
      case ColType::kInt64:
        return 8;
      case ColType::kDouble:
        return 8;
    }
    return 8;
  }
};

/// \brief A columnar table shard (the rows resident on one GPU).
class Table {
 public:
  /// Adds a column; all columns must end up the same length.
  Column& AddColumn(const std::string& name, ColType type);

  bool HasColumn(const std::string& name) const {
    return index_.count(name) > 0;
  }
  const Column& col(const std::string& name) const;
  Column& col(const std::string& name);

  std::uint64_t rows() const;
  std::uint64_t TotalBytes() const;

  /// Registers/returns the dictionary for a kDict column.
  std::vector<std::string>& dict(const std::string& name) {
    return dicts_[name];
  }
  const std::vector<std::string>& dict(const std::string& name) const;

  const std::vector<std::string>& column_names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  std::map<std::string, std::size_t> index_;
  std::map<std::string, std::vector<std::string>> dicts_;
};

/// \brief A table horizontally sharded over the participating GPUs.
struct DistTable {
  std::vector<Table> shards;

  std::uint64_t rows() const {
    std::uint64_t n = 0;
    for (const Table& t : shards) n += t.rows();
    return n;
  }
  std::uint64_t TotalBytes() const {
    std::uint64_t n = 0;
    for (const Table& t : shards) n += t.TotalBytes();
    return n;
  }
  int num_shards() const { return static_cast<int>(shards.size()); }
};

/// Days since 1970-01-01 for a calendar date (proleptic Gregorian).
std::int32_t DateToDays(int year, int month, int day);

/// \brief Maps global row ids of a DistTable back to (shard, local row).
/// Join pairs address rows globally; aggregations use this to fetch the
/// payload columns.
class RowLocator {
 public:
  explicit RowLocator(const DistTable& t) : table_(&t) {
    base_.push_back(0);
    for (const Table& s : t.shards) base_.push_back(base_.back() + s.rows());
  }

  std::pair<int, std::uint64_t> Locate(std::uint64_t global) const {
    int lo = 0, hi = static_cast<int>(base_.size()) - 1;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (base_[mid] <= global ? lo : hi) = mid;
    }
    return {lo, global - base_[lo]};
  }

  /// Integer value of `column` at a global row.
  std::int64_t Int(const std::string& column, std::uint64_t global) const {
    const auto [s, i] = Locate(global);
    return table_->shards[s].col(column).ints[i];
  }
  /// Double value of `column` at a global row.
  double Double(const std::string& column, std::uint64_t global) const {
    const auto [s, i] = Locate(global);
    return table_->shards[s].col(column).doubles[i];
  }

 private:
  const DistTable* table_;
  std::vector<std::uint64_t> base_;
};

}  // namespace mgjoin::exec

#endif  // MGJOIN_EXEC_TABLE_H_
