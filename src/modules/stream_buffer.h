/**
 * @file
 * ColumnBuffer: the device-memory image of one table column.
 *
 * configure_mem() (Section III-E) copies a host column into one of these;
 * a MemoryReader streams it out as flits and a MemoryWriter fills one in.
 * The buffer carries both the decoded elements (the data plane) and the
 * device base address / element size (the timing plane used by the
 * memory-system model).
 *
 * Item boundaries: streams are row-structured. Array columns (SEQ, QUAL,
 * CIGAR) emit one flit per element plus a boundary flit per row; scalar
 * columns emit one flit per row with no boundaries.
 */

#ifndef GENESIS_MODULES_STREAM_BUFFER_H
#define GENESIS_MODULES_STREAM_BUFFER_H

#include <cstdint>
#include <string>
#include <vector>

namespace genesis::modules {

/** Device-side image of one column. */
struct ColumnBuffer {
    /** Diagnostic name ("READS.SEQ", ...). */
    std::string name;
    /** Decoded element values, row after row. */
    std::vector<int64_t> elements;
    /** Per-row element counts (size = row count). */
    std::vector<uint32_t> rowLengths;
    /** Element size in bytes when resident in device memory. */
    uint32_t elemSizeBytes = 1;
    /** Device base address (drives channel interleaving). */
    uint64_t baseAddr = 0;
    /** True for writer-target buffers (allocated, filled by the run). */
    bool isOutput = false;

    /** @return total device bytes this column occupies. */
    uint64_t
    totalBytes() const
    {
        return static_cast<uint64_t>(elements.size()) * elemSizeBytes;
    }

    size_t numRows() const { return rowLengths.size(); }

    /** Append one row of elements. */
    void
    appendRow(const std::vector<int64_t> &row_elements)
    {
        elements.insert(elements.end(), row_elements.begin(),
                        row_elements.end());
        rowLengths.push_back(static_cast<uint32_t>(row_elements.size()));
    }

    /** Append a one-element row. */
    void
    appendScalar(int64_t value)
    {
        elements.push_back(value);
        rowLengths.push_back(1);
    }
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_STREAM_BUFFER_H
