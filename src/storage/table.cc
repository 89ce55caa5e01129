#include "storage/table.h"

#include "util/string_util.h"

namespace dc {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  auto v = std::make_shared<TableVersion>();
  v->version = 1;
  for (const ColumnDef& c : schema_.columns()) {
    v->cols.push_back(Bat::MakeEmpty(c.type));
  }
  current_ = v;
}

uint64_t Table::NumRows() const { return Snapshot()->NumRows(); }

TableVersionPtr Table::Snapshot() const {
  MutexLock lock(mu_);
  return current_;
}

Status Table::CheckColumnsMatch(const std::vector<BatPtr>& cols) const {
  if (cols.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("table %s: expected %zu columns, got %zu", name_.c_str(),
                  schema_.NumColumns(), cols.size()));
  }
  const uint64_t n = cols.empty() ? 0 : cols[0]->size();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i]->type() != schema_.column(i).type) {
      return Status::TypeError(
          StrFormat("table %s column %zu: expected %s, got %s", name_.c_str(),
                    i, TypeName(schema_.column(i).type),
                    TypeName(cols[i]->type())));
    }
    if (cols[i]->size() != n) {
      return Status::InvalidArgument("ragged append batch");
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& row) {
  std::vector<BatPtr> batch;
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("table %s: expected %zu values, got %zu", name_.c_str(),
                  schema_.NumColumns(), row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    DC_ASSIGN_OR_RETURN(Value v, row[i].CastTo(schema_.column(i).type));
    auto col = Bat::MakeEmpty(schema_.column(i).type);
    col->AppendValue(v);
    batch.push_back(col);
  }
  return AppendColumns(batch);
}

Status Table::AppendColumns(const std::vector<BatPtr>& cols) {
  DC_RETURN_NOT_OK(CheckColumnsMatch(cols));
  MutexLock lock(mu_);
  auto next = std::make_shared<TableVersion>();
  next->version = current_->version + 1;
  next->cols.reserve(schema_.NumColumns());
  for (size_t i = 0; i < schema_.NumColumns(); ++i) {
    // COW: clone the old column, then bulk-append the batch.
    auto col = std::make_shared<Bat>(*current_->cols[i]);
    col->AppendRange(*cols[i], 0, cols[i]->size());
    next->cols.push_back(col);
  }
  current_ = next;
  return Status::OK();
}

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  for (const ColumnDef& c : schema_.columns()) {
    cols_.push_back(Bat::MakeEmpty(c.type));
  }
}

Status TableBuilder::AddRow(const std::vector<Value>& row) {
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("TableBuilder: wrong arity");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    DC_ASSIGN_OR_RETURN(Value v, row[i].CastTo(schema_.column(i).type));
    cols_[i]->AppendValue(v);
  }
  return Status::OK();
}

Result<TablePtr> TableBuilder::Build(std::string name) && {
  auto table = std::make_shared<Table>(std::move(name), schema_);
  DC_RETURN_NOT_OK(table->AppendColumns(cols_));
  return table;
}

}  // namespace dc
