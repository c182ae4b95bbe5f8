#include "modules/gather_reader.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

GatherReader::GatherReader(std::string name, const ColumnBuffer *buffer,
                           sim::MemoryPort *port,
                           sim::HardwareQueue *start_in,
                           sim::HardwareQueue *end_in,
                           sim::HardwareQueue *out,
                           const GatherReaderConfig &config)
    : Module(std::move(name)), buffer_(buffer), port_(port),
      startIn_(start_in), endIn_(end_in), out_(out), config_(config)
{
    GENESIS_ASSERT(buffer_ && port_ && startIn_ && endIn_ && out_,
                   "gather reader wiring");
    granularity_ = port_->checkedAccessGranularity("gather reader");
}

void
GatherReader::tick()
{
    if (closed_)
        return;

    // Issue requests for the active interval.
    bool issued = false;
    if (intervalActive_) {
        uint64_t interval_bytes = static_cast<uint64_t>(
            intervalEnd_ - cursor_) * buffer_->elemSizeBytes +
            bytesConsumed_;
        while (bytesRequested_ < interval_bytes && port_->canIssue()) {
            uint64_t offset = static_cast<uint64_t>(
                cursor_ - config_.addrBase) * buffer_->elemSizeBytes +
                bytesRequested_ - bytesConsumed_;
            uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
                granularity_, interval_bytes - bytesRequested_));
            port_->issue(buffer_->baseAddr + offset, chunk, false);
            bytesRequested_ += chunk;
            issued = true;
        }
    }
    // Byte collection mutates internal state without touching a queue,
    // so report it as progress.
    uint64_t got = port_->takeCompletedReadBytes();
    if (got) {
        bytesArrived_ += got;
        noteProgress();
    }

    if (!out_->canPush()) {
        countStall(stallBackpressure_);
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

    if (intervalActive_) {
        if (cursor_ >= intervalEnd_) {
            intervalActive_ = false;
            if (config_.emitBoundaries) {
                out_->pushBoundary();
                traceBusy();
                return;
            }
            noteProgress(); // silent deactivation: no boundary flit
        } else {
            uint64_t next = bytesConsumed_ + buffer_->elemSizeBytes;
            if (next > bytesArrived_) {
                countStall(stallMemory_);
                if (!issued && !got)
                    sleepOn(stallMemory_, {&port_->retireWaiters()});
                return;
            }
            size_t idx = static_cast<size_t>(cursor_ - config_.addrBase);
            GENESIS_ASSERT(idx < buffer_->elements.size(),
                           "gather read of %zu beyond buffer %zu", idx,
                           buffer_->elements.size());
            out_->pushFlit(cursor_, buffer_->elements[idx]);
            countFlit();
            ++cursor_;
            bytesConsumed_ = next;
            if (cursor_ >= intervalEnd_) {
                intervalActive_ = false;
                pendingBoundary_ = config_.emitBoundaries;
            }
            return;
        }
    }

    if (startIn_->canPop() && endIn_->canPop()) {
        const Flit &start = startIn_->front();
        const Flit &end = endIn_->front();
        startIn_->pop();
        endIn_->pop();
        GENESIS_ASSERT(!sim::isBoundary(start) && !sim::isBoundary(end),
                       "gather reader expects scalar interval streams");
        cursor_ = start.key;
        intervalEnd_ = end.key;
        intervalActive_ = true;
        bytesRequested_ = 0;
        bytesArrived_ = 0;
        bytesConsumed_ = 0;
        traceBusy();
        return;
    }
    if (startIn_->drained() && endIn_->drained() && port_->idle()) {
        out_->close();
        closed_ = true;
        return;
    }
    // Awaiting the next interval (or the port draining before close).
    if (!issued && !got) {
        sleepOn(nullptr, {&startIn_->waiters(), &endIn_->waiters(),
                          &port_->retireWaiters()});
    }
}

bool
GatherReader::done() const
{
    return closed_;
}

} // namespace genesis::modules
