/**
 * @file
 * Columnar batches for the vectorized executor.
 *
 * A Batch is a schema plus one ColumnChunk per column. Chunks store
 * integer columns as flat int64 vectors with a null mask (the fast
 * path the vectorized operators loop over) and everything else as
 * boxed Values. Operators process a Batch in kBatchRows-row slices.
 */

#ifndef GENESIS_ENGINE_BATCH_H
#define GENESIS_ENGINE_BATCH_H

#include <cstdint>
#include <limits>
#include <sys/types.h>
#include <vector>

#include "table/table.h"

namespace genesis::engine {

/** Rows processed per operator step. */
inline constexpr size_t kBatchRows = 1024;

/** Rows [first, end) of an input. */
struct RowWindow {
    size_t first = 0;
    size_t end = 0;
};

/**
 * The window [first, first + count) clamped to an input of `rows`
 * rows, computed without overflow for any count.
 */
RowWindow clampWindow(size_t first, size_t count, size_t rows);

/** One column's cells: int fast path or boxed Values. */
struct ColumnChunk {
    bool intMode = false;
    /** intMode storage; nulls empty means no null cell. */
    std::vector<int64_t> ints;
    std::vector<bool> nulls;
    /** boxed storage. */
    std::vector<table::Value> boxed;

    static ColumnChunk makeInt()
    {
        ColumnChunk c;
        c.intMode = true;
        return c;
    }
    static ColumnChunk makeBoxed() { return ColumnChunk{}; }

    size_t size() const { return intMode ? ints.size() : boxed.size(); }

    bool nullAt(size_t i) const
    {
        return intMode ? (!nulls.empty() && nulls[i])
                       : boxed[i].isNull();
    }

    /** Truthiness of cell i with SQL semantics (null is false). */
    bool truthyAt(size_t i) const
    {
        if (intMode)
            return !nullAt(i) && ints[i] != 0;
        return boxed[i].truthy();
    }

    table::Value valueAt(size_t i) const;

    void reserve(size_t n);
    void pushInt(int64_t v);
    void pushNull();
    /** Append a Value, switching nothing: mode must accommodate it. */
    void pushValue(const table::Value &v);

    /** Append src[i] (same mode). */
    void appendFrom(const ColumnChunk &src, size_t i);
    /** Append src rows selected by idx (same mode). */
    void gather(const ColumnChunk &src, const std::vector<size_t> &idx);
    /** Append src rows by signed index; -1 appends NULL. */
    void gatherPadded(const ColumnChunk &src,
                      const std::vector<ssize_t> &idx);
    /** Append a whole chunk (same mode). */
    void appendChunk(const ColumnChunk &src);
};

/** A columnar row set flowing between vectorized operators. */
struct Batch {
    table::Schema schema;
    std::vector<ColumnChunk> columns;
    size_t rows = 0;

    /**
     * Copy rows [first, first + count) of a table, clamped to its rows,
     * into chunks (int fast path for scalar columns, which copy their
     * storage range whole). The defaults copy the whole table.
     */
    static Batch
    fromTable(const table::Table &t, size_t first = 0,
              size_t count = std::numeric_limits<size_t>::max());

    /** Same schema and chunk modes as proto, zero rows. */
    static Batch emptyLike(const Batch &proto);

    /**
     * Materialize as a Table (the row engine's output format). An int
     * chunk under an integer field becomes its column whole; any other
     * chunk appends cell by cell, so a cell that does not fit its field
     * throws as Column::append() does.
     */
    table::Table toTable(const std::string &name) const &;
    /** Same, moving the int chunks' storage into the table. */
    table::Table toTable(const std::string &name) &&;
};

} // namespace genesis::engine

#endif // GENESIS_ENGINE_BATCH_H
