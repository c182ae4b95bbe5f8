#include "modules/mdgen.h"

#include <string>

#include "base/logging.h"
#include "genome/basepair.h"

namespace genesis::modules {

using sim::Flit;

MdGen::MdGen(std::string name, sim::HardwareQueue *in,
             sim::HardwareQueue *out, const MdGenConfig &config)
    : Module(std::move(name)), in_(in), out_(out), config_(config)
{
    GENESIS_ASSERT(in_ && out_, "MDGen wiring");
}

void
MdGen::flushCount()
{
    std::string digits = std::to_string(matchCount_);
    for (char c : digits)
        pending_.push_back(static_cast<int64_t>(c));
    matchCount_ = 0;
}

void
MdGen::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }

    // Drain pending characters first (one per cycle).
    if (!pending_.empty()) {
        int64_t c = pending_.front();
        pending_.pop_front();
        if (c == kBoundaryMark)
            out_->pushBoundary();
        else
            out_->pushFlit(c, c);
        traceBusy();
        return;
    }

    if (in_->canPop()) {
        const Flit &head = in_->front();
        if (sim::isBoundary(head)) {
            in_->pop();
            flushCount();
            inDeletion_ = false;
            pending_.push_back(kBoundaryMark);
            traceBusy();
            return;
        }
        in_->pop();
        countFlit();
        int64_t bp = head.fieldAt(config_.bpField);
        int64_t ref = head.fieldAt(config_.refField);
        if (head.key == Flit::kIns || ref == Flit::kNull) {
            // Inserted bases carry no reference information: MD skips
            // them entirely. They do split a deletion run, so a deletion
            // resuming after an insertion starts a fresh "0^" group
            // (matching samtools/GATK calcMd).
            inDeletion_ = false;
            return;
        }
        char ref_char = genome::baseToChar(static_cast<uint8_t>(ref));
        if (bp == Flit::kDel) {
            if (!inDeletion_) {
                flushCount();
                pending_.push_back(static_cast<int64_t>('^'));
                inDeletion_ = true;
            }
            pending_.push_back(static_cast<int64_t>(ref_char));
            return;
        }
        if (bp == ref) {
            // After a deletion run, matches resume the counting state.
            inDeletion_ = false;
            ++matchCount_;
            return;
        }
        // Mismatch: emit the pending count (possibly 0) then the
        // reference base.
        inDeletion_ = false;
        flushCount();
        pending_.push_back(static_cast<int64_t>(ref_char));
        return;
    }

    if (in_->drained()) {
        out_->close();
        closed_ = true;
        return;
    }
    sleepOn(nullptr, {&in_->waiters()});
}

bool
MdGen::done() const
{
    return closed_ && pending_.empty();
}

} // namespace genesis::modules
