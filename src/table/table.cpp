#include "table/table.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "base/logging.h"

namespace genesis::table {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema))
{
    columns_.reserve(schema_.size());
    for (const auto &f : schema_.fields())
        columns_.emplace_back(f.name, f.type);
}

Table::Table(std::string name, Schema schema, std::vector<Column> columns)
    : name_(std::move(name)), schema_(std::move(schema)),
      columns_(std::move(columns)),
      numRows_(columns_.empty() ? 0 : columns_[0].size())
{
    GENESIS_ASSERT(columns_.size() == schema_.size(),
                   "%zu columns for the %zu fields of table '%s'",
                   columns_.size(), schema_.size(), name_.c_str());
    for (size_t c = 0; c < columns_.size(); ++c) {
        const FieldDef &f = schema_.field(c);
        GENESIS_ASSERT(columns_[c].name() == f.name &&
                           columns_[c].type() == f.type &&
                           columns_[c].size() == numRows_,
                       "column %zu of table '%s' does not match its field",
                       c, name_.c_str());
    }
}

void
Table::appendRows(const Table &rows)
{
    if (rows.numColumns() != columns_.size()) {
        fatal("row width %zu does not match table '%s' schema width %zu",
              rows.numColumns(), name_.c_str(), columns_.size());
    }
    // Cells of another storage kind convert first, so that a cell that
    // does not fit throws while this table is still whole.
    std::vector<std::optional<Column>> converted(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
        if (columns_[c].sameStorage(rows.column(c)))
            continue;
        converted[c].emplace(columns_[c].name(), columns_[c].type());
        converted[c]->appendColumn(rows.column(c));
    }
    for (size_t c = 0; c < columns_.size(); ++c)
        columns_[c].appendColumn(converted[c] ? *converted[c]
                                              : rows.column(c));
    numRows_ += rows.numRows();
}

void
Table::appendRow(const std::vector<Value> &cells)
{
    if (cells.size() != columns_.size()) {
        fatal("row width %zu does not match table '%s' schema width %zu",
              cells.size(), name_.c_str(), columns_.size());
    }
    for (size_t i = 0; i < cells.size(); ++i)
        columns_[i].append(cells[i]);
    ++numRows_;
}

Value
Table::at(size_t row, size_t col) const
{
    return columns_.at(col).value(row);
}

Value
Table::at(size_t row, const std::string &col_name) const
{
    return column(col_name).value(row);
}

Column &
Table::column(size_t col)
{
    return columns_.at(col);
}

const Column &
Table::column(size_t col) const
{
    return columns_.at(col);
}

const Column &
Table::column(const std::string &name) const
{
    return columns_[schema_.require(name)];
}

Column &
Table::column(const std::string &name)
{
    return columns_[schema_.require(name)];
}

Table
Table::emptyLike(const std::string &new_name) const
{
    return Table(new_name, schema_);
}

bool
Table::contentEquals(const Table &other) const
{
    if (!(schema_ == other.schema_) || numRows_ != other.numRows_)
        return false;
    for (size_t c = 0; c < columns_.size(); ++c) {
        for (size_t r = 0; r < numRows_; ++r) {
            if (!(at(r, c) == other.at(r, c)))
                return false;
        }
    }
    return true;
}

std::string
Table::str(size_t max_rows) const
{
    std::ostringstream os;
    os << name_ << " " << schema_.str() << " [" << numRows_ << " rows]\n";
    size_t shown = std::min(max_rows, numRows_);
    for (size_t r = 0; r < shown; ++r) {
        os << "  ";
        for (size_t c = 0; c < columns_.size(); ++c) {
            if (c)
                os << " | ";
            os << columns_[c].value(r).str();
        }
        os << "\n";
    }
    if (shown < numRows_)
        os << "  ... (" << (numRows_ - shown) << " more)\n";
    return os.str();
}

} // namespace genesis::table
