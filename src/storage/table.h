// Copyright 2026 The DataCell Authors.
//
// Persistent tables: read-mostly reference data that continuous queries
// join against streams ("Two Query Paradigms" in the paper). Tables use
// copy-on-write versioning: readers take an O(1) immutable snapshot;
// writers build a new version. This lets factories run against a stable
// version while one-time INSERTs proceed — appends are comparatively
// expensive, which matches the read-mostly role of warehouse tables here.

#ifndef DATACELL_STORAGE_TABLE_H_
#define DATACELL_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "storage/schema.h"
#include "util/result.h"
#include "util/sync.h"

namespace dc {

/// One immutable version of a table's data. Never mutated once published.
struct TableVersion {
  uint64_t version = 0;
  std::vector<BatPtr> cols;

  uint64_t NumRows() const { return cols.empty() ? 0 : cols[0]->size(); }
};

using TableVersionPtr = std::shared_ptr<const TableVersion>;

/// A named persistent table.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Current row count (of the latest version).
  uint64_t NumRows() const;

  /// O(1) immutable snapshot for readers.
  TableVersionPtr Snapshot() const;

  /// Appends one row (COW: clones columns). Type-checked.
  Status AppendRow(const std::vector<Value>& row);

  /// Appends a batch of rows given as columns (COW once for the batch).
  Status AppendColumns(const std::vector<BatPtr>& cols);

 private:
  Status CheckColumnsMatch(const std::vector<BatPtr>& cols) const;

  const std::string name_;
  const Schema schema_;

  mutable Mutex mu_{LockRank::kTable};
  TableVersionPtr current_ DC_GUARDED_BY(mu_);
};

using TablePtr = std::shared_ptr<Table>;

/// Builds the initial version of a table from host vectors, bypassing COW.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  /// Appends one row; type-checked against the schema.
  Status AddRow(const std::vector<Value>& row);

  /// Produces the table; the builder is consumed.
  Result<TablePtr> Build(std::string name) &&;

 private:
  Schema schema_;
  std::vector<BatPtr> cols_;
};

}  // namespace dc

#endif  // DATACELL_STORAGE_TABLE_H_
