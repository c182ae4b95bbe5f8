#include "sim/queue.h"

#include "base/logging.h"

namespace genesis::sim {

HardwareQueue::HardwareQueue(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity), buffer_(capacity)
{
    if (capacity_ == 0)
        fatal("queue '%s' must have non-zero capacity", name_.c_str());
    waiters_.setName("queue " + name_);
}

void
HardwareQueue::failPush() const
{
    if (!canPush())
        panic("push to full queue '%s'", name_.c_str());
    panic("push to closed queue '%s'", name_.c_str());
}

void
HardwareQueue::failEmpty(const char *op) const
{
    panic("%s empty queue '%s'", op, name_.c_str());
}

void
HardwareQueue::close()
{
    if (closed_ || stagedClose_)
        panic("double close of queue '%s'", name_.c_str());
    stagedClose_ = true;
    markDirty();
}

} // namespace genesis::sim
