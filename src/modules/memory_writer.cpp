#include "modules/memory_writer.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

MemoryWriter::MemoryWriter(std::string name, ColumnBuffer *buffer,
                           sim::MemoryPort *port, sim::HardwareQueue *in,
                           const MemoryWriterConfig &config)
    : Module(std::move(name)), buffer_(buffer), port_(port), in_(in),
      config_(config)
{
    GENESIS_ASSERT(buffer_ && port_ && in_,
                   "memory writer needs buffer, port and input queue");
    granularity_ = port_->checkedAccessGranularity("memory writer");
    buffer_->elemSizeBytes = config_.elemSizeBytes;
}

void
MemoryWriter::tick()
{
    // Accept at most one flit per cycle.
    bool popped = false;
    if (in_->canPop()) {
        const Flit &head = in_->front();
        if (sim::isBoundary(head)) {
            in_->pop();
            popped = true;
            if (config_.rowMode) {
                buffer_->appendRow(currentRow_);
                currentRow_.clear();
            }
            traceBusy();
        } else {
            // Issue backpressure by not popping when the port is saturated
            // far beyond a full chunk.
            if (bytesAccumulated_ < 4ull * granularity_) {
                int64_t v = config_.fieldIndex < 0
                    ? head.key : head.fieldAt(config_.fieldIndex);
                in_->pop();
                popped = true;
                if (config_.rowMode)
                    currentRow_.push_back(v);
                else
                    buffer_->appendScalar(v);
                bytesAccumulated_ += config_.elemSizeBytes;
                countFlit();
            } else {
                countStall(stallWriteBacklog_);
            }
        }
    } else if (in_->drained() && !inputDrained_) {
        // One-shot latch that feeds done(): report it as progress since
        // it mutates state without touching a queue or port.
        inputDrained_ = true;
        popped = true;
        noteProgress();
        if (config_.rowMode && !currentRow_.empty()) {
            // Stream ended without a trailing boundary: flush the row.
            buffer_->appendRow(currentRow_);
            currentRow_.clear();
        }
    }

    // Issue write requests for full chunks (or the final partial chunk).
    bool issued = false;
    while (bytesAccumulated_ >= granularity_ && port_->canIssue()) {
        port_->issue(buffer_->baseAddr + bytesIssued_, granularity_,
                     true);
        bytesIssued_ += granularity_;
        bytesAccumulated_ -= granularity_;
        issued = true;
    }
    if (inputDrained_ && bytesAccumulated_ > 0 && port_->canIssue()) {
        port_->issue(buffer_->baseAddr + bytesIssued_,
                     static_cast<uint32_t>(bytesAccumulated_), true);
        bytesIssued_ += bytesAccumulated_;
        bytesAccumulated_ = 0;
        issued = true;
    }
    if (popped || issued)
        return;
    if (in_->canPop()) {
        // Write backlog: the pop is gated until a retirement frees port
        // credit and the issue loop drains the accumulator.
        sleepOn(stallWriteBacklog_, {&port_->retireWaiters()});
    } else if (!inputDrained_) {
        // Idle on input; a saturated port may also be holding back the
        // issue loop, so listen for retirements too.
        sleepOn(nullptr, {&in_->waiters(), &port_->retireWaiters()});
    } else if (bytesAccumulated_ > 0 ||
               port_->retiredWriteBytes() < bytesIssued_) {
        // Flushing: waiting for issue credit or final retirements.
        sleepOn(nullptr, {&port_->retireWaiters()});
    }
}

bool
MemoryWriter::done() const
{
    return inputDrained_ && bytesAccumulated_ == 0 &&
        port_->retiredWriteBytes() >= bytesIssued_;
}

} // namespace genesis::modules
