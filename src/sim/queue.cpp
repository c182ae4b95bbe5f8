#include "sim/queue.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::sim {

HardwareQueue::HardwareQueue(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("queue '%s' must have non-zero capacity", name_.c_str());
    waiters_.setName("queue " + name_);
}

bool
HardwareQueue::canPush() const
{
    // Conservative (registered) backpressure: space is judged against the
    // occupancy at the start of the cycle; a same-cycle pop does not free
    // a slot until commit.
    return !stagedPushValid_ && buffer_.size() < capacity_;
}

void
HardwareQueue::push(const Flit &flit)
{
    if (!canPush())
        panic("push to full queue '%s'", name_.c_str());
    if (closed_ || stagedClose_)
        panic("push to closed queue '%s'", name_.c_str());
    stagedPush_ = flit;
    stagedPushValid_ = true;
    markDirty();
}

bool
HardwareQueue::canPop() const
{
    return !stagedPop_ && !buffer_.empty();
}

const Flit &
HardwareQueue::front() const
{
    if (buffer_.empty())
        panic("front of empty queue '%s'", name_.c_str());
    return buffer_.front();
}

Flit
HardwareQueue::pop()
{
    if (!canPop())
        panic("pop from empty queue '%s'", name_.c_str());
    stagedPop_ = true;
    markDirty();
    return buffer_.front();
}

void
HardwareQueue::close()
{
    if (closed_ || stagedClose_)
        panic("double close of queue '%s'", name_.c_str());
    stagedClose_ = true;
    markDirty();
}

bool
HardwareQueue::drained() const
{
    return buffer_.empty() && !stagedPushValid_ && closed_;
}

void
HardwareQueue::commit()
{
    const bool staged = stagedPop_ || stagedPushValid_ || stagedClose_;
    if (stagedPop_) {
        buffer_.pop_front();
        stagedPop_ = false;
    }
    if (stagedPushValid_) {
        buffer_.push_back(stagedPush_);
        ++totalFlits_;
        stagedPushValid_ = false;
    }
    if (stagedClose_) {
        closed_ = true;
        stagedClose_ = false;
    }
    dirty_ = false;
    if (staged) {
        ++*progress_;
        maxOccupancy_ = std::max(maxOccupancy_, buffer_.size());
        if (trace_)
            trace_->counter(traceTrack_, *traceCycle_, buffer_.size());
        waiters_.wakeAll();
    }
}

} // namespace genesis::sim
