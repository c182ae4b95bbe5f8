#include "modules/fork.h"

#include "base/logging.h"

namespace genesis::modules {

Fork::Fork(std::string name, sim::HardwareQueue *in,
           std::vector<sim::HardwareQueue *> outs)
    : Module(std::move(name)), in_(in), outs_(std::move(outs))
{
    GENESIS_ASSERT(in_ && !outs_.empty(), "fork wiring");
    for (auto *out : outs_)
        GENESIS_ASSERT(out != nullptr, "fork output queue is null");
}

void
Fork::tick()
{
    if (closed_)
        return;
    for (auto *out : outs_) {
        if (!out->canPush()) {
            countStall(stallBackpressure_);
            sleepOn(stallBackpressure_, {&out->waiters()});
            return;
        }
    }
    if (in_->canPop()) {
        const sim::Flit &flit = in_->front();
        in_->pop();
        for (auto *out : outs_)
            out->push(flit);
        countFlit();
        return;
    }
    if (in_->drained()) {
        for (auto *out : outs_)
            out->close();
        closed_ = true;
        return;
    }
    sleepOn(nullptr, {&in_->waiters()});
}

bool
Fork::done() const
{
    return closed_;
}

} // namespace genesis::modules
