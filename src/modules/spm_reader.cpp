#include "modules/spm_reader.h"

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

SpmReader::SpmReader(std::string name, const sim::Scratchpad *spm,
                     sim::HardwareQueue *addr_in, sim::HardwareQueue *out,
                     const SpmReaderConfig &config)
    : Module(std::move(name)), spm_(spm), startIn_(addr_in), out_(out),
      config_(config)
{
    GENESIS_ASSERT(config_.mode == SpmReadMode::AddressStream,
                   "address-stream constructor requires AddressStream "
                   "mode");
    GENESIS_ASSERT(spm_ && startIn_ && out_, "SPM reader wiring");
}

SpmReader::SpmReader(std::string name, const sim::Scratchpad *spm,
                     sim::HardwareQueue *start_in,
                     sim::HardwareQueue *end_in, sim::HardwareQueue *out,
                     const SpmReaderConfig &config)
    : Module(std::move(name)), spm_(spm), startIn_(start_in),
      endIn_(end_in), out_(out), config_(config)
{
    GENESIS_ASSERT(config_.mode == SpmReadMode::Interval,
                   "interval constructor requires Interval mode");
    GENESIS_ASSERT(spm_ && startIn_ && endIn_ && out_,
                   "SPM reader wiring");
}

SpmReader::SpmReader(std::string name, const sim::Scratchpad *spm,
                     sim::Module *wait_for, sim::HardwareQueue *out,
                     const SpmReaderConfig &config)
    : Module(std::move(name)), spm_(spm), out_(out), config_(config)
{
    config_.waitFor = wait_for;
    GENESIS_ASSERT(config_.mode == SpmReadMode::Drain,
                   "drain constructor requires Drain mode");
    GENESIS_ASSERT(spm_ && config_.waitFor && out_, "SPM reader wiring");
}

void
SpmReader::pushWord(int64_t key, int64_t word)
{
    if (config_.unpackPair)
        out_->pushFlit(key, word & 0xff, (word >> 8) & 0xff);
    else
        out_->pushFlit(key, word);
    countFlit();
}

void
SpmReader::tick()
{
    if (closed_)
        return;
    if (config_.waitFor && !config_.waitFor->done()) {
        // The preload (or, for Drain, the updates) is still running.
        // Sleep until the waited-on module finishes: its done event
        // wakes this reader in the cycle a spinning one would see it.
        StatHandle stall = config_.mode == SpmReadMode::Drain
            ? nullptr : stallSpmInit_;
        if (stall)
            countStall(stall);
        sleepOn(stall, {&config_.waitFor->doneWaiters()});
        return;
    }
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }

    switch (config_.mode) {
      case SpmReadMode::AddressStream: {
        if (!startIn_->canPop()) {
            if (startIn_->drained()) {
                out_->close();
                closed_ = true;
            } else {
                sleepOn(nullptr, {&startIn_->waiters()});
            }
            return;
        }
        const Flit &head = startIn_->front();
        startIn_->pop();
        if (sim::isBoundary(head)) {
            out_->pushBoundary();
            traceBusy();
            return;
        }
        int64_t addr = head.key - config_.addrBase;
        pushWord(head.key, spm_->read(static_cast<size_t>(addr)));
        return;
      }
      case SpmReadMode::Interval: {
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
            } else {
                int64_t addr = cursor_ - config_.addrBase;
                pushWord(cursor_, spm_->read(static_cast<size_t>(addr)));
                ++cursor_;
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
            GENESIS_ASSERT(!sim::isBoundary(start) &&
                           !sim::isBoundary(end),
                           "interval SPM reader expects scalar streams");
            cursor_ = start.key;
            intervalEnd_ = end.key;
            intervalActive_ = true;
            traceBusy();
            return;
        }
        if (startIn_->drained() && endIn_->drained()) {
            out_->close();
            closed_ = true;
            return;
        }
        sleepOn(nullptr,
                {&startIn_->waiters(), &endIn_->waiters()});
        return;
      }
      case SpmReadMode::Drain: {
        if (cursor_ >= static_cast<int64_t>(spm_->sizeWords())) {
            out_->close();
            closed_ = true;
            return;
        }
        pushWord(cursor_, spm_->read(static_cast<size_t>(cursor_)));
        ++cursor_;
        return;
      }
    }
}

bool
SpmReader::done() const
{
    return closed_;
}

} // namespace genesis::modules
