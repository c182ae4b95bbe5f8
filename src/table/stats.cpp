#include "table/stats.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_set>
#include <vector>

namespace genesis::table {

const ColumnStats *
TableStats::column(const std::string &name) const
{
    auto it = columns.find(name);
    return it == columns.end() ? nullptr : &it->second;
}

namespace {

/**
 * Set of int64 values in one open-addressing table, allocated once for
 * at most `max_values` distinct values at a load of at most one half,
 * where a node-based set allocates a node per value.
 */
class FlatIntSet
{
  public:
    explicit FlatIntSet(size_t max_values)
        : slots_(std::bit_ceil(std::max<size_t>(2 * max_values, 2)),
                 kEmpty),
          shift_(64 - std::countr_zero(slots_.size()))
    {
    }

    size_t size() const { return size_; }

    void
    insert(int64_t v)
    {
        if (v == kEmpty) {
            // The empty-slot marker is a value too; count it aside.
            size_ += !hasEmptyValue_;
            hasEmptyValue_ = true;
            return;
        }
        // Fibonacci hashing: the product's top bits index the table.
        size_t i = (static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ull) >>
            shift_;
        const size_t mask = slots_.size() - 1;
        for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
            if (slots_[i] == v)
                return;
        }
        slots_[i] = v;
        ++size_;
    }

  private:
    static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();

    std::vector<int64_t> slots_;
    int shift_;
    size_t size_ = 0;
    bool hasEmptyValue_ = false;
};

ColumnStats
collectScalarColumn(const Column &col)
{
    ColumnStats s;
    s.rowCount = static_cast<int64_t>(col.size());
    const std::vector<int64_t> &values = col.scalars();
    const std::vector<bool> &nulls = col.nulls();
    FlatIntSet seen(std::min(col.size(), kDistinctCap));
    bool saturated = false;
    for (size_t r = 0; r < col.size(); ++r) {
        if (!nulls.empty() && nulls[r]) {
            ++s.nullCount;
            continue;
        }
        int64_t v = values[r];
        if (!s.hasRange) {
            s.hasRange = true;
            s.minValue = s.maxValue = v;
        } else {
            if (v < s.minValue)
                s.minValue = v;
            if (v > s.maxValue)
                s.maxValue = v;
        }
        if (!saturated) {
            seen.insert(v);
            saturated = seen.size() >= kDistinctCap;
        }
    }
    s.hasDistinct = true;
    s.distinct = static_cast<int64_t>(seen.size());
    return s;
}

ColumnStats
collectStringColumn(const Column &col)
{
    ColumnStats s;
    s.rowCount = static_cast<int64_t>(col.size());
    std::unordered_set<std::string> seen;
    bool saturated = false;
    for (size_t r = 0; r < col.size(); ++r) {
        Value v = col.value(r);
        if (v.isNull()) {
            ++s.nullCount;
            continue;
        }
        if (!saturated) {
            seen.insert(v.asString());
            saturated = seen.size() >= kDistinctCap;
        }
    }
    s.hasDistinct = true;
    s.distinct = static_cast<int64_t>(seen.size());
    return s;
}

ColumnStats
collectArrayColumn(const Column &col)
{
    // Array cells only contribute null/row counts: the engine never
    // filters or joins on whole-array equality in practice.
    ColumnStats s;
    s.rowCount = static_cast<int64_t>(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
        if (col.isNull(r))
            ++s.nullCount;
    }
    return s;
}

} // namespace

TableStats
collectTableStats(const Table &table)
{
    TableStats stats;
    stats.rowCount = static_cast<int64_t>(table.numRows());
    for (size_t c = 0; c < table.numColumns(); ++c) {
        const Column &col = table.column(c);
        ColumnStats s;
        if (isArrayType(col.type()))
            s = collectArrayColumn(col);
        else if (col.type() == DataType::String)
            s = collectStringColumn(col);
        else
            s = collectScalarColumn(col);
        stats.columns.emplace(col.name(), std::move(s));
    }
    return stats;
}

} // namespace genesis::table
