#include "table/column.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::table {

bool
isArrayType(DataType t)
{
    return t == DataType::Array8 || t == DataType::Array16 ||
        t == DataType::BitArray;
}

size_t
elementSize(DataType t)
{
    switch (t) {
      case DataType::UInt8:
      case DataType::Bool:
      case DataType::Array8:
      case DataType::BitArray:
        return 1;
      case DataType::UInt16:
      case DataType::Array16:
        return 2;
      case DataType::UInt32:
        return 4;
      case DataType::Int64:
        return 8;
      case DataType::String:
        fatal("string columns cannot be streamed to the device");
    }
    panic("invalid DataType %d", static_cast<int>(t));
}

const char *
dataTypeName(DataType t)
{
    switch (t) {
      case DataType::UInt8: return "uint8_t";
      case DataType::UInt16: return "uint16_t";
      case DataType::UInt32: return "uint32_t";
      case DataType::Int64: return "int64_t";
      case DataType::Bool: return "bool";
      case DataType::Array8: return "uint8_t[]";
      case DataType::Array16: return "uint16_t[]";
      case DataType::BitArray: return "bool[]";
      case DataType::String: return "string";
    }
    return "?";
}

Column::Column(std::string name, DataType type)
    : name_(std::move(name)), type_(type)
{
    if (isArrayType(type_))
        offsets_.push_back(0);
}

Column::Column(std::string name, DataType type, std::vector<int64_t> values,
               std::vector<bool> nulls)
    : name_(std::move(name)), type_(type), numRows_(values.size()),
      scalars_(std::move(values)), nulls_(std::move(nulls))
{
    GENESIS_ASSERT(!isArrayType(type_) && type_ != DataType::String,
                   "scalar cells for %s column '%s'", dataTypeName(type_),
                   name_.c_str());
    GENESIS_ASSERT(nulls_.empty() || nulls_.size() == numRows_,
                   "null mask of %zu rows for %zu values in column '%s'",
                   nulls_.size(), numRows_, name_.c_str());
    if (std::find(nulls_.begin(), nulls_.end(), true) == nulls_.end())
        nulls_.clear();
}

void
Column::append(const Value &v)
{
    if (v.isNull()) {
        // Record an explicit null (arrays degrade to an empty row).
        if (isArrayType(type_)) {
            appendArray({});
            return;
        }
        if (nulls_.empty())
            nulls_.assign(numRows_, false);
        if (type_ == DataType::String)
            strings_.emplace_back();
        else
            scalars_.push_back(0);
        ++numRows_;
        nulls_.push_back(true);
        return;
    }
    if (type_ == DataType::String) {
        strings_.push_back(v.asString());
        ++numRows_;
        if (!nulls_.empty())
            nulls_.push_back(false);
        return;
    }
    if (isArrayType(type_)) {
        appendArray(v.asBlob());
        return;
    }
    appendScalar(v.asInt());
}

void
Column::appendScalar(int64_t v)
{
    GENESIS_ASSERT(!isArrayType(type_) && type_ != DataType::String,
                   "appendScalar on %s column '%s'", dataTypeName(type_),
                   name_.c_str());
    scalars_.push_back(v);
    ++numRows_;
    if (!nulls_.empty())
        nulls_.push_back(false);
}

void
Column::appendArray(const Blob &elems)
{
    GENESIS_ASSERT(isArrayType(type_), "appendArray on %s column '%s'",
                   dataTypeName(type_), name_.c_str());
    scalars_.insert(scalars_.end(), elems.begin(), elems.end());
    offsets_.push_back(scalars_.size());
    ++numRows_;
    if (!nulls_.empty())
        nulls_.push_back(false);
}

namespace {

/** Storage kinds; append() takes a cell of the same kind as it is. */
enum class Storage { Scalar, String, Array };

Storage
storageOf(DataType t)
{
    if (t == DataType::String)
        return Storage::String;
    return isArrayType(t) ? Storage::Array : Storage::Scalar;
}

} // namespace

bool
Column::sameStorage(const Column &src) const
{
    return storageOf(type_) == storageOf(src.type_);
}

void
Column::appendColumn(const Column &src)
{
    if (!sameStorage(src)) {
        for (size_t r = 0; r < src.numRows_; ++r)
            append(src.value(r));
        return;
    }
    if (!src.nulls_.empty() && nulls_.empty())
        nulls_.assign(numRows_, false);
    if (!nulls_.empty()) {
        if (src.nulls_.empty())
            nulls_.insert(nulls_.end(), src.numRows_, false);
        else
            nulls_.insert(nulls_.end(), src.nulls_.begin(),
                          src.nulls_.end());
    }
    if (storageOf(type_) == Storage::String) {
        strings_.insert(strings_.end(), src.strings_.begin(),
                        src.strings_.end());
    } else if (storageOf(type_) == Storage::Array) {
        const uint64_t base = scalars_.size();
        for (size_t r = 1; r < src.offsets_.size(); ++r)
            offsets_.push_back(base + src.offsets_[r]);
    }
    scalars_.insert(scalars_.end(), src.scalars_.begin(),
                    src.scalars_.end());
    numRows_ += src.numRows_;
}

void
Column::checkRow(size_t row) const
{
    if (row >= numRows_)
        panic("row %zu out of range for column '%s' with %zu rows", row,
              name_.c_str(), numRows_);
}

Value
Column::value(size_t row) const
{
    checkRow(row);
    if (!nulls_.empty() && nulls_[row])
        return Value();
    if (type_ == DataType::String)
        return Value(strings_[row]);
    if (isArrayType(type_)) {
        Blob b(scalars_.begin() + static_cast<long>(offsets_[row]),
               scalars_.begin() + static_cast<long>(offsets_[row + 1]));
        return Value(std::move(b));
    }
    return Value(scalars_[row]);
}

bool
Column::isNull(size_t row) const
{
    checkRow(row);
    return !nulls_.empty() && nulls_[row];
}

int64_t
Column::scalarAt(size_t row) const
{
    checkRow(row);
    GENESIS_ASSERT(!isArrayType(type_) && type_ != DataType::String,
                   "scalarAt on %s column '%s'", dataTypeName(type_),
                   name_.c_str());
    return scalars_[row];
}

size_t
Column::elementCount(size_t row) const
{
    checkRow(row);
    if (!isArrayType(type_))
        return 1;
    return static_cast<size_t>(offsets_[row + 1] - offsets_[row]);
}

int64_t
Column::elementAt(size_t row, size_t idx) const
{
    checkRow(row);
    if (!isArrayType(type_)) {
        GENESIS_ASSERT(idx == 0, "element %zu of scalar column '%s'", idx,
                       name_.c_str());
        return scalars_[row];
    }
    GENESIS_ASSERT(idx < elementCount(row),
                   "element %zu out of range in column '%s' row %zu", idx,
                   name_.c_str(), row);
    return scalars_[offsets_[row] + idx];
}

void
Column::serialize(std::vector<uint8_t> &out,
                  std::vector<uint32_t> &row_lengths,
                  size_t first, size_t count) const
{
    GENESIS_ASSERT(first + count <= numRows_,
                   "serialize range [%zu,+%zu) exceeds %zu rows in '%s'",
                   first, count, numRows_, name_.c_str());
    size_t esize = elementSize(type_);
    auto emit = [&](int64_t v) {
        for (size_t b = 0; b < esize; ++b)
            out.push_back(static_cast<uint8_t>(
                (static_cast<uint64_t>(v) >> (8 * b)) & 0xff));
    };
    for (size_t row = first; row < first + count; ++row) {
        size_t n = elementCount(row);
        row_lengths.push_back(static_cast<uint32_t>(n));
        if (isArrayType(type_)) {
            for (size_t i = 0; i < n; ++i)
                emit(scalars_[offsets_[row] + i]);
        } else {
            emit(scalars_[row]);
        }
    }
}

} // namespace genesis::table
