/**
 * @file
 * Columnar storage for Genesis tables.
 *
 * A column stores either fixed-width scalars or variable-length integer
 * arrays. Each column can serialise itself to the raw byte layout the
 * simulated accelerator's memory readers stream (elements of elemSize
 * bytes, little-endian, concatenated row after row), which is how
 * configure_mem() moves host tables into device memory.
 */

#ifndef GENESIS_TABLE_COLUMN_H
#define GENESIS_TABLE_COLUMN_H

#include <cstdint>
#include <string>
#include <vector>

#include "table/value.h"

namespace genesis::table {

/** Physical column type (Table I of the paper uses all of these). */
enum class DataType : uint8_t {
    UInt8,   ///< e.g. CHR, one base pair, one quality score
    UInt16,  ///< e.g. a packed CIGAR element
    UInt32,  ///< e.g. POS, ENDPOS
    Int64,   ///< generic computed integers
    Bool,    ///< e.g. IS_SNP bits
    Array8,  ///< uint8_t[] per row: SEQ, QUAL
    Array16, ///< uint16_t[] per row: CIGAR
    BitArray, ///< bool[] per row: IS_SNP for a reference segment
    String,  ///< host-only metadata (never streamed to the device)
};

/** @return true for the per-row array types. */
bool isArrayType(DataType t);

/** @return element width in bytes when streamed to device memory. */
size_t elementSize(DataType t);

/** @return display name ("uint32_t", "uint8_t[]", ...). */
const char *dataTypeName(DataType t);

/** One named, typed column of values. */
class Column
{
  public:
    Column() = default;
    Column(std::string name, DataType type);

    /**
     * A scalar column over ready-made cells. `nulls` is empty or holds
     * one flag per value; a mask without a NULL is dropped.
     */
    Column(std::string name, DataType type, std::vector<int64_t> values,
           std::vector<bool> nulls);

    const std::string &name() const { return name_; }
    DataType type() const { return type_; }
    size_t size() const { return numRows_; }

    /** Append a cell; the Value shape must match the column type. */
    void append(const Value &v);

    /** Fast-path append for scalar columns. */
    void appendScalar(int64_t v);

    /** Fast-path append for array columns. */
    void appendArray(const Blob &elems);

    /**
     * Append every row of src. Storage of the same kind (scalar,
     * string or array) is copied whole; otherwise each cell goes
     * through append(), which throws on a cell that does not fit.
     */
    void appendColumn(const Column &src);

    /** @return true when append() takes src's cells as they are. */
    bool sameStorage(const Column &src) const;

    /** Scalar cells (the element pool of an array column). */
    const std::vector<int64_t> &scalars() const { return scalars_; }

    /** Per-row NULL flags; empty when no cell is NULL. */
    const std::vector<bool> &nulls() const { return nulls_; }

    /** @return cell as a Value (arrays copy into a Blob). */
    Value value(size_t row) const;

    /** @return true when the cell is an explicit NULL. */
    bool isNull(size_t row) const;

    /** @return scalar cell; throws on array columns. */
    int64_t scalarAt(size_t row) const;

    /** @return element count of an array row (1 for scalars). */
    size_t elementCount(size_t row) const;

    /** @return one element of an array row. */
    int64_t elementAt(size_t row, size_t idx) const;

    /**
     * Serialise rows [first, first+count) to the device byte layout.
     * @param out destination, appended to
     * @param row_lengths per-row element counts, appended to
     */
    void serialize(std::vector<uint8_t> &out,
                   std::vector<uint32_t> &row_lengths,
                   size_t first, size_t count) const;

    /** Serialise the whole column. */
    void serialize(std::vector<uint8_t> &out,
                   std::vector<uint32_t> &row_lengths) const
    {
        serialize(out, row_lengths, 0, numRows_);
    }

  private:
    void checkRow(size_t row) const;

    std::string name_;
    DataType type_ = DataType::Int64;
    size_t numRows_ = 0;

    /** Scalar storage (also element pool for array columns). */
    std::vector<int64_t> scalars_;
    /** Null mask for scalar/string rows (empty when no null ever set). */
    std::vector<bool> nulls_;
    /** Array columns: scalars_ holds the element pool; offsets per row. */
    std::vector<uint64_t> offsets_; ///< size numRows_+1 when array typed
    /** String column storage. */
    std::vector<std::string> strings_;
};

} // namespace genesis::table

#endif // GENESIS_TABLE_COLUMN_H
