#include "sim/wait.h"

#include <algorithm>

#include "sim/module.h"

namespace genesis::sim {

void
WaitList::add(Module *m)
{
    if (std::find(waiters_.begin(), waiters_.end(), m) == waiters_.end())
        waiters_.push_back(m);
}

void
WaitList::wakeAll()
{
    if (waiters_.empty())
        return;
    for (Module *m : waiters_)
        m->wake();
    waiters_.clear();
}

} // namespace genesis::sim
