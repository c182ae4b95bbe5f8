#include "modules/memory_reader.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::modules {

MemoryReader::MemoryReader(std::string name, const ColumnBuffer *buffer,
                           sim::MemoryPort *port, sim::HardwareQueue *out,
                           const MemoryReaderConfig &config)
    : Module(std::move(name)), buffer_(buffer), port_(port), out_(out),
      config_(config)
{
    GENESIS_ASSERT(buffer_ && port_ && out_,
                   "memory reader needs buffer, port and output queue");
    granularity_ = port_->checkedAccessGranularity("memory reader");
    totalBytes_ = buffer_->totalBytes();
    if (!buffer_->rowLengths.empty()) {
        rowRemaining_ = buffer_->rowLengths[0];
        rowLoaded_ = true;
    }
}

void
MemoryReader::tick()
{
    if (closed_)
        return;

    // 1. Keep the prefetch pipeline full: request more bytes while the
    //    in-flight + buffered volume stays under the prefetch capacity.
    //    Requests go out at the configured memory access granularity.
    bool issued = false;
    while (bytesRequested_ < totalBytes_ && port_->canIssue()) {
        uint64_t in_flight_or_buffered = bytesRequested_ - bytesConsumed_;
        if (in_flight_or_buffered >= config_.prefetchBytes)
            break;
        uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
            granularity_, totalBytes_ - bytesRequested_));
        port_->issue(buffer_->baseAddr + bytesRequested_, chunk, false);
        bytesRequested_ += chunk;
        issued = true;
    }

    // 2. Collect arrived bytes. Collection mutates internal state
    //    without touching a queue, so report it as progress.
    uint64_t got = port_->takeCompletedReadBytes();
    if (got) {
        bytesArrived_ += got;
        noteProgress();
    }

    // 3. Emit at most one flit per cycle.
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        // The port list keeps byte collection (and prefetch refill)
        // happening on the same cycles as a spinning module's would.
        if (!issued && !got) {
            sleepOn(stallBackpressure_,
                    {&out_->waiters(), &port_->retireWaiters()});
        }
        return;
    }
    if (pendingBoundary_) {
        out_->pushBoundary();
        pendingBoundary_ = false;
        traceBusy();
        return;
    }
    // Rows with zero elements contribute only a boundary flit. Without
    // boundaries the row advance is invisible to the queues, so note it.
    if (rowLoaded_ && rowRemaining_ == 0) {
        advanceRow();
        if (config_.emitBoundaries) {
            out_->pushBoundary();
            traceBusy();
        } else {
            noteProgress();
        }
        return;
    }
    if (elemCursor_ >= buffer_->elements.size()) {
        if (!rowLoaded_ || !config_.emitBoundaries) {
            out_->close();
            closed_ = true;
        }
        return;
    }
    uint64_t next_consumed = bytesConsumed_ + buffer_->elemSizeBytes;
    if (next_consumed > bytesArrived_) {
        countStall(stallMemory_);
        if (!issued && !got)
            sleepOn(stallMemory_, {&port_->retireWaiters()});
        return;
    }
    int64_t value = buffer_->elements[elemCursor_];
    out_->pushFlit(value, value);
    countFlit();
    ++elemCursor_;
    bytesConsumed_ = next_consumed;
    if (rowLoaded_) {
        --rowRemaining_;
        if (rowRemaining_ == 0) {
            advanceRow();
            if (config_.emitBoundaries)
                pendingBoundary_ = true;
        }
    }
}

void
MemoryReader::advanceRow()
{
    ++rowCursor_;
    if (rowCursor_ < buffer_->rowLengths.size()) {
        rowRemaining_ = buffer_->rowLengths[rowCursor_];
        rowLoaded_ = true;
    } else {
        rowRemaining_ = 0;
        rowLoaded_ = false;
    }
}

bool
MemoryReader::done() const
{
    return closed_;
}

} // namespace genesis::modules
