/**
 * @file
 * Memory Reader module (Section III-C).
 *
 * Streams a column out of device memory: issues requests at the memory
 * access granularity while its prefetch buffer has space, and supplies
 * one flit per cycle to the output queue once the corresponding bytes
 * have arrived. Emits a boundary flit after each row when the column is
 * row-structured (array columns), so downstream modules see item
 * boundaries in-band.
 */

#ifndef GENESIS_MODULES_MEMORY_READER_H
#define GENESIS_MODULES_MEMORY_READER_H

#include "modules/stream_buffer.h"
#include "sim/memory.h"
#include "sim/module.h"

namespace genesis::modules {

/** Configuration for a MemoryReader. */
struct MemoryReaderConfig {
    /** Emit a boundary flit after every row (array columns: true). */
    bool emitBoundaries = false;
    /** Prefetch buffer capacity in bytes. */
    uint32_t prefetchBytes = 512;
};

/**
 * Streams one ColumnBuffer from device memory into a queue. The buffer
 * must hold its data before the reader is built and keep it unchanged.
 */
class MemoryReader : public sim::Module
{
  public:
    MemoryReader(std::string name, const ColumnBuffer *buffer,
                 sim::MemoryPort *port, sim::HardwareQueue *out,
                 const MemoryReaderConfig &config = MemoryReaderConfig());

    void tick() override;
    bool done() const override;

  private:
    /** Interned stall-reason counters (see Module). */
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    StatHandle stallMemory_ = stallCounter("memory");

    /** Move the row cursor to the next row (if any). */
    void advanceRow();

    const ColumnBuffer *buffer_;
    sim::MemoryPort *port_;
    sim::HardwareQueue *out_;
    MemoryReaderConfig config_;
    /** Request chunk size, from the memory system's MemoryConfig. */
    uint32_t granularity_ = 0;
    /** The buffer's totalBytes(), taken once at construction. */
    uint64_t totalBytes_ = 0;

    uint64_t bytesRequested_ = 0;
    uint64_t bytesArrived_ = 0;
    uint64_t bytesConsumed_ = 0;
    size_t elemCursor_ = 0;
    size_t rowCursor_ = 0;
    uint32_t rowRemaining_ = 0;
    bool rowLoaded_ = false;
    bool pendingBoundary_ = false;
    bool closed_ = false;
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_MEMORY_READER_H
