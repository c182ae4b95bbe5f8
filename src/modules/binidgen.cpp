#include "modules/binidgen.h"

#include "base/logging.h"
#include "genome/basepair.h"
#include "genome/read.h"

namespace genesis::modules {

using sim::Flit;

BinIdGen::BinIdGen(std::string name, sim::HardwareQueue *in,
                   sim::HardwareQueue *flags_in, sim::HardwareQueue *out,
                   const BinIdGenConfig &config)
    : Module(std::move(name)), in_(in), flagsIn_(flags_in), out_(out),
      config_(config)
{
    GENESIS_ASSERT(in_ && flagsIn_ && out_, "BinIDGen wiring");
}

size_t
BinIdGen::tableSize(const BinIdGenConfig &config, bool cycle_table)
{
    size_t per_qual = cycle_table
        ? static_cast<size_t>(config.numCycleValues)
        : static_cast<size_t>(config.numContextTypes);
    return static_cast<size_t>(kBqsrQualValues) * per_qual;
}

void
BinIdGen::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }
    if (!in_->canPop()) {
        if (in_->drained() && flagsIn_->drained()) {
            out_->close();
            closed_ = true;
        } else if (in_->drained()) {
            // Input exhausted but the flags stream still carries flits
            // (possible when trailing reads exploded to nothing); drain.
            if (flagsIn_->canPop()) {
                flagsIn_->pop();
                traceBusy();
            } else {
                sleepOn(nullptr, {&flagsIn_->waiters()});
            }
        } else {
            sleepOn(nullptr, {&in_->waiters()});
        }
        return;
    }
    const Flit &head = in_->front();
    if (sim::isBoundary(head)) {
        if (needFlags_) {
            // The read exploded to zero bases (fully clipped): its FLAGS
            // entry is still queued and must be discarded to stay in
            // lockstep with subsequent reads.
            if (!flagsIn_->canPop()) {
                countStall(stallStarved_);
                sleepOn(stallStarved_, {&flagsIn_->waiters()});
                return;
            }
            flagsIn_->pop();
        }
        in_->pop();
        out_->pushBoundary();
        needFlags_ = true;
        prevBase_ = -1;
        traceBusy();
        return;
    }
    // First base of a read: latch the strand from the FLAGS stream.
    if (needFlags_) {
        if (!flagsIn_->canPop()) {
            countStall(stallStarved_);
            sleepOn(stallStarved_, {&flagsIn_->waiters()});
            return;
        }
        int64_t flags = flagsIn_->front().key;
        flagsIn_->pop();
        reverse_ = (flags & genome::kFlagReverse) != 0;
        needFlags_ = false;
        prevBase_ = -1;
        // Fall through: process the base in the same cycle (the flag
        // lookup is a register read in hardware).
    }

    in_->pop();
    countFlit();
    int64_t bp = head.fieldAt(config_.bpField);
    int64_t qual = head.fieldAt(config_.qualField);
    int64_t cycle = head.fieldAt(config_.cycleField);

    int64_t b1 = Flit::kNull;
    int64_t b2 = Flit::kNull;
    bool deleted = bp == Flit::kDel;
    bool n_base = !deleted && bp >= genome::kNumBases;
    if (!deleted && !n_base && qual >= 0 && qual < kBqsrQualValues) {
        int64_t cycle_value = reverse_
            ? config_.readLength + cycle : cycle;
        if (cycle_value >= 0 && cycle_value < config_.numCycleValues)
            b1 = qual * config_.numCycleValues + cycle_value;
        if (prevBase_ >= 0 && prevBase_ < genome::kNumBases) {
            int64_t context = prevBase_ * 4 + bp;
            b2 = qual * config_.numContextTypes + context;
        }
    }
    if (!deleted)
        prevBase_ = bp;

    out_->pushFlit(head.key, bp, qual, b1, b2);
}

bool
BinIdGen::done() const
{
    return closed_;
}

} // namespace genesis::modules
