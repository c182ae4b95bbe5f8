#include "modules/read_to_bases.h"

#include "base/logging.h"

namespace genesis::modules {

using genome::CigarOp;
using sim::Flit;

ReadToBases::ReadToBases(std::string name, sim::HardwareQueue *pos_in,
                         sim::HardwareQueue *cigar_in,
                         sim::HardwareQueue *seq_in,
                         sim::HardwareQueue *qual_in,
                         sim::HardwareQueue *out)
    : Module(std::move(name)), posIn_(pos_in), cigarIn_(cigar_in),
      seqIn_(seq_in), qualIn_(qual_in), out_(out)
{
    GENESIS_ASSERT(posIn_ && cigarIn_ && seqIn_ && out_,
                   "ReadToBases wiring");
}

void
ReadToBases::sleepOnBases()
{
    // Blocked on the SEQ (and optional QUAL) stream delivering the next
    // base or boundary.
    if (qualIn_)
        sleepOn(stallStarved_, {&seqIn_->waiters(), &qualIn_->waiters()});
    else
        sleepOn(stallStarved_, {&seqIn_->waiters()});
}

bool
ReadToBases::consumeBase(int64_t &bp, int64_t &qual)
{
    if (!seqIn_->canPop() || sim::isBoundary(seqIn_->front()))
        return false;
    if (qualIn_ &&
        (!qualIn_->canPop() || sim::isBoundary(qualIn_->front()))) {
        return false;
    }
    bp = seqIn_->front().key;
    seqIn_->pop();
    qual = Flit::kNull;
    if (qualIn_) {
        qual = qualIn_->front().key;
        qualIn_->pop();
    }
    return true;
}

void
ReadToBases::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }

    if (!active_) {
        if (posIn_->canPop()) {
            refPos_ = posIn_->front().key;
            posIn_->pop();
            active_ = true;
            cycle_ = 0;
            haveElem_ = false;
            traceBusy();
            return;
        }
        if (posIn_->drained() && cigarIn_->drained() &&
            seqIn_->drained() &&
            (!qualIn_ || qualIn_->drained())) {
            out_->close();
            closed_ = true;
            return;
        }
        countStall(stallStarved_);
        // Waiting on a POS flit or on every stream's close.
        if (qualIn_) {
            sleepOn(stallStarved_,
                    {&posIn_->waiters(), &cigarIn_->waiters(),
                     &seqIn_->waiters(), &qualIn_->waiters()});
        } else {
            sleepOn(stallStarved_,
                    {&posIn_->waiters(), &cigarIn_->waiters(),
                     &seqIn_->waiters()});
        }
        return;
    }

    if (!haveElem_) {
        if (!cigarIn_->canPop()) {
            countStall(stallStarved_);
            sleepOn(stallStarved_, {&cigarIn_->waiters()});
            return;
        }
        if (sim::isBoundary(cigarIn_->front())) {
            // Read complete: align the companion streams' boundaries and
            // emit the output boundary in one step.
            bool seq_at_boundary = seqIn_->canPop() &&
                sim::isBoundary(seqIn_->front());
            bool qual_at_boundary = !qualIn_ ||
                (qualIn_->canPop() && sim::isBoundary(qualIn_->front()));
            if (!seq_at_boundary || !qual_at_boundary) {
                countStall(stallStarved_);
                sleepOnBases();
                return;
            }
            cigarIn_->pop();
            seqIn_->pop();
            if (qualIn_)
                qualIn_->pop();
            out_->pushBoundary();
            active_ = false;
            traceBusy();
            return;
        }
        elem_ = genome::CigarElement::unpack(
            static_cast<uint16_t>(cigarIn_->front().key));
        cigarIn_->pop();
        elemRemaining_ = elem_.length;
        haveElem_ = elemRemaining_ > 0;
        traceBusy();
        return;
    }

    int64_t bp = 0, qual = 0;
    switch (elem_.op) {
      case CigarOp::SoftClip:
        // Clipped bases are consumed without producing output.
        if (!consumeBase(bp, qual)) {
            countStall(stallStarved_);
            sleepOnBases();
            return;
        }
        traceBusy();
        break;
      case CigarOp::Match:
        if (!consumeBase(bp, qual)) {
            countStall(stallStarved_);
            sleepOnBases();
            return;
        }
        out_->pushFlit(refPos_, bp, qual, cycle_);
        countFlit();
        ++refPos_;
        ++cycle_;
        break;
      case CigarOp::Insert:
        if (!consumeBase(bp, qual)) {
            countStall(stallStarved_);
            sleepOnBases();
            return;
        }
        out_->pushFlit(Flit::kIns, bp, qual, cycle_);
        countFlit();
        ++cycle_;
        break;
      case CigarOp::Delete:
        out_->pushFlit(refPos_, Flit::kDel, Flit::kDel, Flit::kDel);
        countFlit();
        ++refPos_;
        break;
    }
    if (--elemRemaining_ == 0)
        haveElem_ = false;
}

bool
ReadToBases::done() const
{
    return closed_;
}

} // namespace genesis::modules
