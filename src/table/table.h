/**
 * @file
 * Columnar in-memory table — the relational view of genomic data.
 *
 * The paper conceptualises reads and reference segments as rows of a very
 * large relational database (Section III-B, Table I). This class is that
 * database's storage layer: a named schema plus one Column per field.
 */

#ifndef GENESIS_TABLE_TABLE_H
#define GENESIS_TABLE_TABLE_H

#include <memory>
#include <string>
#include <vector>

#include "table/schema.h"

namespace genesis::table {

/** A named columnar table. */
class Table
{
  public:
    Table() = default;
    Table(std::string name, Schema schema);

    /**
     * A table over ready-made columns: one per schema field, in order,
     * with that field's name and type, all of the same length.
     */
    Table(std::string name, Schema schema, std::vector<Column> columns);

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    const Schema &schema() const { return schema_; }
    size_t numRows() const { return numRows_; }
    size_t numColumns() const { return columns_.size(); }

    /** Append a full row; cell count must equal the schema width. */
    void appendRow(const std::vector<Value> &cells);

    /**
     * Append every row of `rows`, column by column. Its width must equal
     * this table's. A cell that does not fit its column throws before
     * any column grows.
     */
    void appendRows(const Table &rows);

    /** @return cell (row, column index). */
    Value at(size_t row, size_t col) const;

    /** @return cell (row, column name). */
    Value at(size_t row, const std::string &col_name) const;

    /** @return mutable column by index. */
    Column &column(size_t col);
    const Column &column(size_t col) const;

    /** @return column by name; throws FatalError when absent. */
    const Column &column(const std::string &name) const;
    Column &column(const std::string &name);

    /** @return a new table with the same schema and no rows. */
    Table emptyLike(const std::string &new_name) const;

    /**
     * @return true when schema and every cell match exactly (table
     * names are ignored). Used by differential test batteries.
     */
    bool contentEquals(const Table &other) const;

    /** Render the first max_rows rows as an aligned text grid. */
    std::string str(size_t max_rows = 20) const;

  private:
    std::string name_;
    Schema schema_;
    std::vector<Column> columns_;
    size_t numRows_ = 0;
};

} // namespace genesis::table

#endif // GENESIS_TABLE_TABLE_H
