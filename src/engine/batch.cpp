#include "engine/batch.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"

namespace genesis::engine {

using table::DataType;
using table::Table;
using table::Value;

Value
ColumnChunk::valueAt(size_t i) const
{
    if (!intMode)
        return boxed[i];
    if (nullAt(i))
        return Value();
    return Value(ints[i]);
}

void
ColumnChunk::reserve(size_t n)
{
    if (intMode)
        ints.reserve(n);
    else
        boxed.reserve(n);
}

void
ColumnChunk::pushInt(int64_t v)
{
    ints.push_back(v);
    if (!nulls.empty())
        nulls.push_back(false);
}

void
ColumnChunk::pushNull()
{
    if (!intMode) {
        boxed.emplace_back();
        return;
    }
    if (nulls.empty())
        nulls.assign(ints.size(), false);
    ints.push_back(0);
    nulls.push_back(true);
}

void
ColumnChunk::pushValue(const Value &v)
{
    if (!intMode) {
        boxed.push_back(v);
        return;
    }
    if (v.isNull())
        pushNull();
    else
        pushInt(v.asInt());
}

void
ColumnChunk::appendFrom(const ColumnChunk &src, size_t i)
{
    if (intMode) {
        if (src.nullAt(i))
            pushNull();
        else
            pushInt(src.intMode ? src.ints[i] : src.boxed[i].asInt());
        return;
    }
    boxed.push_back(src.valueAt(i));
}

void
ColumnChunk::gather(const ColumnChunk &src, const std::vector<size_t> &idx)
{
    reserve(size() + idx.size());
    for (size_t i : idx)
        appendFrom(src, i);
}

void
ColumnChunk::gatherPadded(const ColumnChunk &src,
                          const std::vector<ssize_t> &idx)
{
    if (!intMode || !src.intMode) {
        reserve(size() + idx.size());
        for (ssize_t i : idx) {
            if (i < 0)
                pushNull();
            else
                appendFrom(src, static_cast<size_t>(i));
        }
        return;
    }
    // Int to int in one pass; the null mask grows only once a gathered
    // cell is NULL.
    const size_t base = ints.size();
    const size_t end = base + idx.size();
    ints.resize(end);
    const bool src_nulls = !src.nulls.empty();
    for (size_t k = 0; k < idx.size(); ++k) {
        const ssize_t i = idx[k];
        if (i >= 0 && !(src_nulls && src.nulls[static_cast<size_t>(i)])) {
            ints[base + k] = src.ints[static_cast<size_t>(i)];
            continue;
        }
        ints[base + k] = 0;
        if (nulls.size() < end)
            nulls.resize(end, false);
        nulls[base + k] = true;
    }
    if (!nulls.empty())
        nulls.resize(end, false);
}

void
ColumnChunk::appendChunk(const ColumnChunk &src)
{
    GENESIS_ASSERT(intMode == src.intMode,
                   "appendChunk across chunk modes");
    if (!intMode) {
        boxed.insert(boxed.end(), src.boxed.begin(), src.boxed.end());
        return;
    }
    if (!src.nulls.empty() && nulls.empty())
        nulls.assign(ints.size(), false);
    if (!nulls.empty()) {
        if (src.nulls.empty())
            nulls.insert(nulls.end(), src.ints.size(), false);
        else
            nulls.insert(nulls.end(), src.nulls.begin(),
                         src.nulls.end());
    }
    ints.insert(ints.end(), src.ints.begin(), src.ints.end());
}

namespace {

bool
isIntColumn(DataType t)
{
    switch (t) {
      case DataType::UInt8:
      case DataType::UInt16:
      case DataType::UInt32:
      case DataType::Int64:
      case DataType::Bool:
        return true;
      default:
        return false;
    }
}

} // namespace

RowWindow
clampWindow(size_t first, size_t count, size_t rows)
{
    RowWindow w;
    w.first = std::min(first, rows);
    w.end = w.first + std::min(count, rows - w.first);
    return w;
}

IntKeyIndex::IntKeyIndex(const ColumnChunk &keys)
{
    // Key -> group, then every group's rows in one array in row order (a
    // counting sort).
    const size_t n = keys.size();
    groupOf_.reserve(n);
    std::vector<size_t> group(n);
    for (size_t r = 0; r < n; ++r) {
        if (keys.nullAt(r))
            continue;
        auto [it, inserted] = groupOf_.try_emplace(keys.ints[r], start_.size());
        if (inserted)
            start_.push_back(0);
        group[r] = it->second;
        ++start_[it->second];
    }
    size_t total = 0;
    for (size_t &s : start_)
        total += std::exchange(s, total);
    start_.push_back(total);
    rows_.resize(total);
    std::vector<size_t> fill(start_.begin(), start_.end() - 1);
    for (size_t r = 0; r < n; ++r) {
        if (!keys.nullAt(r))
            rows_[fill[group[r]]++] = r;
    }
}

std::span<const size_t>
IntKeyIndex::rowsOf(int64_t key, RowWindow w) const
{
    const std::span<const size_t> rows = rowsOf(key);
    const auto first = std::lower_bound(rows.begin(), rows.end(), w.first);
    return {first, std::lower_bound(first, rows.end(), w.end)};
}

Batch
Batch::fromTable(const Table &t, size_t first, size_t count)
{
    const RowWindow w = clampWindow(first, count, t.numRows());
    const auto lo = static_cast<ptrdiff_t>(w.first);
    const auto hi = static_cast<ptrdiff_t>(w.end);
    Batch b;
    b.schema = t.schema();
    b.rows = w.end - w.first;
    b.columns.reserve(t.numColumns());
    for (size_t c = 0; c < t.numColumns(); ++c) {
        const table::Column &col = t.column(c);
        if (isIntColumn(col.type())) {
            ColumnChunk chunk = ColumnChunk::makeInt();
            chunk.ints.assign(col.scalars().begin() + lo,
                              col.scalars().begin() + hi);
            const std::vector<bool> &nulls = col.nulls();
            if (!nulls.empty() &&
                std::find(nulls.begin() + lo, nulls.begin() + hi, true) !=
                    nulls.begin() + hi) {
                chunk.nulls.assign(nulls.begin() + lo, nulls.begin() + hi);
            }
            b.columns.push_back(std::move(chunk));
        } else {
            ColumnChunk chunk = ColumnChunk::makeBoxed();
            chunk.reserve(b.rows);
            for (size_t r = w.first; r < w.end; ++r)
                chunk.boxed.push_back(col.value(r));
            b.columns.push_back(std::move(chunk));
        }
    }
    return b;
}

Batch
Batch::emptyLike(const Batch &proto)
{
    Batch b;
    b.schema = proto.schema;
    b.columns.reserve(proto.columns.size());
    for (const auto &c : proto.columns) {
        b.columns.push_back(c.intMode ? ColumnChunk::makeInt()
                                      : ColumnChunk::makeBoxed());
    }
    return b;
}

Table
Batch::toTable(const std::string &name) const &
{
    return Batch(*this).toTable(name);
}

Table
Batch::toTable(const std::string &name) &&
{
    std::vector<table::Column> cols;
    cols.reserve(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
        const table::FieldDef &f = schema.field(c);
        ColumnChunk &chunk = columns[c];
        if (chunk.intMode && isIntColumn(f.type)) {
            cols.emplace_back(f.name, f.type, std::move(chunk.ints),
                              std::move(chunk.nulls));
            continue;
        }
        table::Column col(f.name, f.type);
        for (size_t r = 0; r < rows; ++r)
            col.append(chunk.intMode ? chunk.valueAt(r) : chunk.boxed[r]);
        cols.push_back(std::move(col));
    }
    return Table(name, schema, std::move(cols));
}

} // namespace genesis::engine
