#include "sim/module.h"

namespace genesis::sim {

void
Module::wake()
{
    if (!asleep_)
        return;
    asleep_ = false;
    // Credit the slept span: a spinning module would have re-counted the
    // declared stall (and re-marked its trace span) on every cycle from
    // the sleep cycle exclusive through the wake cycle inclusive. Woken
    // by a module earlier in tick order, it would have seen the change
    // in the wake cycle itself, so that cycle is its re-tick instead.
    const bool this_cycle = *tickCursor_ < schedIndex_;
    uint64_t slept = *schedCycle_ - sleepCycle_ - (this_cycle ? 1 : 0);
    if (slept && sleepStall_) {
        *sleepStall_ += slept;
        if (trace_)
            trace_->creditSleep(traceTrack_, sleepCycle_ + 1, slept);
    }
    sleepLists_.clear();
    (this_cycle ? wakeNow_ : wakeQueue_)->push_back(this);
}

std::string
Module::sleepDescription() const
{
    std::string desc;
    for (const WaitList *list : sleepLists_) {
        if (!desc.empty())
            desc += ", ";
        desc += list->name();
    }
    return desc;
}

void
Module::attachTrace(TraceSink *sink, const uint64_t *cycle, int pid)
{
    trace_ = sink;
    traceCycle_ = cycle;
    traceTrack_ = sink->addSpanTrack(pid, name_);
    stallStates_.clear();
}

void
Module::traceStall(StatHandle stall)
{
    for (const auto &[handle, state] : stallStates_) {
        if (handle == stall) {
            trace_->mark(traceTrack_, *traceCycle_, state);
            return;
        }
    }
    // First stall through this handle since tracing attached: recover the
    // counter's name from the registry and intern it as a trace state.
    std::string name = "stall";
    for (const auto &[counter_name, value] : stats_.counters()) {
        if (&value == stall) {
            name = counter_name;
            break;
        }
    }
    TraceSink::StateId state = trace_->internState(name);
    stallStates_.emplace_back(stall, state);
    trace_->mark(traceTrack_, *traceCycle_, state);
}

} // namespace genesis::sim
