#include "sim/scheduler.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "base/env.h"
#include "base/logging.h"

namespace genesis::sim {

Simulator::Simulator(const MemoryConfig &mem_config) : memory_(mem_config)
{
    memory_.attachProgress(&progress_);
    sleepEnabled_ = !envFlag("GENESIS_SIM_NO_SLEEP");
    fastForwardEnabled_ = !envFlag("GENESIS_SIM_NO_FASTFORWARD");
}

HardwareQueue *
Simulator::makeQueue(const std::string &name, size_t capacity)
{
    claimName("queue", name);
    queues_.push_back(std::make_unique<HardwareQueue>(name, capacity));
    queues_.back()->attachSimulator(&progress_, &dirtyQueues_);
    if (trace_)
        queues_.back()->attachTrace(trace_, &cycle_, tracePid_);
    return queues_.back().get();
}

Scratchpad *
Simulator::makeScratchpad(const std::string &name, size_t size_words,
                          uint32_t word_bytes)
{
    claimName("scratchpad", name);
    scratchpads_.push_back(
        std::make_unique<Scratchpad>(name, size_words, word_bytes));
    if (trace_)
        scratchpads_.back()->attachTrace(trace_, &cycle_, tracePid_);
    return scratchpads_.back().get();
}

void
Simulator::claimName(const char *kind, const std::string &name)
{
    if (!names_.emplace(kind, name).second)
        panic("%s name '%s' is already in use", kind, name.c_str());
}

void
Simulator::attachTrace(TraceSink *sink, const std::string &label)
{
    trace_ = sink;
    tracePid_ = sink->beginProcess(label);
    for (auto &m : modules_)
        m->attachTrace(sink, &cycle_, tracePid_);
    for (auto &q : queues_)
        q->attachTrace(sink, &cycle_, tracePid_);
    for (auto &s : scratchpads_)
        s->attachTrace(sink, &cycle_, tracePid_);
    memory_.attachTrace(sink, tracePid_);
}

bool
Simulator::allDone() const
{
    return doneCount_ == modules_.size();
}

void
Simulator::step()
{
    // active_ may grow while it is walked: a wake fired by a tick (a
    // done event, a hazard release) admits later modules into this
    // cycle (see Module::wake).
    for (size_t i = 0; i < active_.size(); ++i) {
        Module *m = active_[i];
        tickCursor_ = m->schedIndex();
        m->tick();
        if (!m->doneWaiters().empty() && m->done())
            m->doneWaiters().wakeAll();
        if (!wokenNow_.empty())
            admitWokenNow(i);
    }
    tickCursor_ = kNotTicking;
    moduleTicks_ += active_.size();
    // Commit only queues that staged work this cycle; the rest are
    // untouched by construction. Commits (like memory retirements and
    // hazard releases) fire WaitLists, appending sleepers to woken_.
    for (auto *q : dirtyQueues_)
        q->commit();
    dirtyQueues_.clear();
    memory_.tick();
    updateActiveSet();
    ++cycle_;
}

void
Simulator::admitWokenNow(size_t ticked)
{
    auto by_index = [](const Module *a, const Module *b) {
        return a->schedIndex() < b->schedIndex();
    };
    for (Module *m : wokenNow_) {
        // A module here slept since an earlier cycle, so it is out of
        // active_, and ticks after active_[ticked]. Skip one that
        // latched done while asleep, as updateActiveSet() does.
        if (m->schedDone())
            continue;
        auto at = std::lower_bound(active_.begin() + ticked + 1,
                                   active_.end(), m, by_index);
        active_.insert(at, m);
        m->setSchedActive(true);
    }
    wokenNow_.clear();
}

void
Simulator::updateActiveSet()
{
    // Latch done() on the modules that could have changed state this
    // cycle: the ticked ones and the woken ones. A sleeping module's
    // done() cannot flip without a wake — the wait set covers every
    // resource done() reads — so scanning these two lists is exhaustive.
    bool compact = false;
    for (Module *m : active_) {
        maybeLatchDone(m);
        if (m->asleep() || m->schedDone())
            compact = true;
    }
    if (compact) {
        size_t out = 0;
        for (Module *m : active_) {
            if (m->asleep() || m->schedDone()) {
                m->setSchedActive(false);
                continue;
            }
            active_[out++] = m;
        }
        active_.resize(out);
    }
    if (woken_.empty())
        return;
    // Re-admit woken sleepers, skipping any that latched done while
    // asleep and any still in the active list (same-cycle sleep/wake).
    // A latch may wake done-waiters onto woken_'s end, so walk by index.
    size_t keep = 0;
    for (size_t i = 0; i < woken_.size(); ++i) {
        Module *m = woken_[i];
        maybeLatchDone(m);
        if (m->schedDone() || m->schedActive())
            continue;
        woken_[keep++] = m;
    }
    woken_.resize(keep);
    if (!woken_.empty()) {
        // Merge in tick (= insertion) order: modules may legally read
        // shared state written by earlier-ticked modules (SPM words,
        // done() of upstream stages), so relative order must match a
        // tick-everything run exactly.
        auto by_index = [](const Module *a, const Module *b) {
            return a->schedIndex() < b->schedIndex();
        };
        std::sort(woken_.begin(), woken_.end(), by_index);
        mergeScratch_.clear();
        mergeScratch_.reserve(active_.size() + woken_.size());
        std::merge(active_.begin(), active_.end(), woken_.begin(),
                   woken_.end(), std::back_inserter(mergeScratch_),
                   by_index);
        active_.swap(mergeScratch_);
        for (Module *m : woken_)
            m->setSchedActive(true);
    }
    woken_.clear();
}

size_t
Simulator::countStatCounters() const
{
    size_t count = memory_.stats().size();
    for (const auto &m : modules_)
        count += m->stats().size();
    for (const auto &s : scratchpads_)
        count += s->stats().size();
    return count;
}

void
Simulator::gatherStatCounters()
{
    statCounters_.clear();
    for (auto &m : modules_)
        m->stats().appendCounters(statCounters_);
    for (auto &s : scratchpads_)
        s->stats().appendCounters(statCounters_);
    memory_.stats().appendCounters(statCounters_);
    statBase_.resize(statCounters_.size());
}

void
Simulator::creditSkippedCycles(uint64_t times)
{
    // A counter created after gatherStatCounters() would miss its
    // credit; components intern every counter when they are built.
    GENESIS_ASSERT(countStatCounters() == statCounters_.size(),
                   "a statistic counter was created during run()");
    for (size_t i = 0; i < statCounters_.size(); ++i) {
        uint64_t &value = *statCounters_[i];
        if (value > statBase_[i])
            value += (value - statBase_[i]) * times;
    }
}

uint64_t
Simulator::run(uint64_t max_cycles)
{
    // Deadlock horizon: generously above the worst legitimate quiet
    // period (memory latency plus arbitration backlog).
    const uint64_t deadlock_horizon =
        10'000 + 100ull * memory_.config().latencyCycles;

    if (fastForwardEnabled_)
        gatherStatCounters();
    uint64_t last_progress = progress_;
    uint64_t quiet_cycles = 0;
    while (!allDone()) {
        if (cycle_ >= max_cycles) {
            panic("simulation exceeded %llu cycles\n%s",
                  static_cast<unsigned long long>(max_cycles),
                  dumpState().c_str());
        }
        step();
        // Provable deadlock: every live module is asleep and the memory
        // system has no pending event, so no wake can ever fire. Report
        // immediately instead of waiting out the quiet horizon. (Under
        // GENESIS_SIM_NO_SLEEP modules never sleep, so a wedged design
        // falls through to the horizon path below, as before.)
        if (active_.empty() && !allDone() &&
            memory_.nextEventCycle() == MemorySystem::kNoEvent) {
            panic("deadlock: no module can ever wake (all asleep, no "
                  "pending memory event)\n%s",
                  dumpState().c_str());
        }
        const bool progressed = progress_ != last_progress;
        last_progress = progress_;
        if (progressed)
            quiet_cycles = 0;
        else
            ++quiet_cycles;
        if (quiet_cycles > deadlock_horizon) {
            panic("deadlock: no progress for %llu cycles\n%s",
                  static_cast<unsigned long long>(quiet_cycles),
                  dumpState().c_str());
        }
        if (progressed || !fastForwardEnabled_)
            continue;

        // The cycle was idle: nothing committed, issued, scheduled,
        // retired, or self-reported progress, so every module is purely
        // stalled and each following cycle is an identical no-op until
        // the memory system's next event. Skip the span in one jump.
        uint64_t next_event = memory_.nextEventCycle();
        if (next_event == MemorySystem::kNoEvent)
            continue; // frozen design: let the deadlock horizon fire
        if (next_event < cycle_ + 3 || cycle_ + 1 >= max_cycles)
            continue; // nothing worth batching before the event
        // Execute one more (provably idle) cycle normally to sample the
        // exact per-cycle stat deltas — each module's stall buckets and
        // the memory system's idle-channel accrual.
        for (size_t i = 0; i < statCounters_.size(); ++i)
            statBase_[i] = *statCounters_[i];
        step();
        if (progress_ != last_progress) {
            // Defensive: a module made silent progress without honoring
            // the noteProgress() contract. Fall back to cycle-by-cycle.
            last_progress = progress_;
            quiet_cycles = 0;
            continue;
        }
        if (++quiet_cycles > deadlock_horizon) {
            panic("deadlock: no progress for %llu cycles\n%s",
                  static_cast<unsigned long long>(quiet_cycles),
                  dumpState().c_str());
        }
        // Skip to the cycle just before the event, clamped so the
        // runaway and deadlock panics still fire at the exact same
        // cycle as a cycle-by-cycle run.
        uint64_t skip = next_event - cycle_ - 1;
        skip = std::min(skip, max_cycles - cycle_);
        skip = std::min(skip, deadlock_horizon + 1 - quiet_cycles);
        if (skip == 0)
            continue;
        creditSkippedCycles(skip);
        // The sampled cycle's trace spans repeat verbatim across the
        // skipped range: grow them in bulk (cycle_ here is one past the
        // sampled cycle, i.e. the open spans' exclusive end).
        if (trace_)
            trace_->creditSkipped(cycle_, skip);
        cycle_ += skip;
        fastForwardedCycles_ += skip;
        memory_.fastForward(skip);
        quiet_cycles += skip;
        if (quiet_cycles > deadlock_horizon) {
            panic("deadlock: no progress for %llu cycles\n%s",
                  static_cast<unsigned long long>(quiet_cycles),
                  dumpState().c_str());
        }
    }
    return cycle_;
}

StatRegistry
Simulator::collectStats() const
{
    StatRegistry all;
    all.set("cycles", cycle_);
    // Interned handles pre-create counters at zero; skip those so the
    // aggregate matches what lazily created counters would produce.
    for (const auto &m : modules_) {
        for (const auto &[name, value] : m->stats().counters()) {
            if (value)
                all.add(m->name() + "." + name, value);
        }
    }
    for (const auto &q : queues_) {
        all.set("queue." + q->name() + ".flits", q->totalFlits());
        all.set("queue." + q->name() + ".max_occupancy",
                q->maxOccupancy());
    }
    for (const auto &[name, value] : memory_.stats().counters()) {
        if (value)
            all.add("mem." + name, value);
    }
    for (const auto &s : scratchpads_) {
        for (const auto &[name, value] : s->stats().counters()) {
            if (value)
                all.add("spm." + s->name() + "." + name, value);
        }
    }
    return all;
}

std::string
Simulator::dumpState() const
{
    // A wedged design must still have coherent accounting: every channel
    // accrues exactly one of busy/idle per cycle, ticked or skipped.
    memory_.assertStatInvariant();
    std::ostringstream os;
    os << "cycle " << cycle_ << "\n";
    for (const auto &m : modules_) {
        os << "  module " << m->name()
           << (m->done() ? " done" : m->asleep() ? " ASLEEP" : " BUSY");
        if (m->asleep())
            os << "  awaiting [" << m->sleepDescription() << "]";
        // Name the blocked resource: top stall-reason buckets.
        std::vector<std::pair<std::string, uint64_t>> stalls;
        for (const auto &[name, value] : m->stats().counters()) {
            if (value && name.rfind("stall.", 0) == 0)
                stalls.emplace_back(name.substr(6), value);
        }
        std::sort(stalls.begin(), stalls.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        if (!stalls.empty()) {
            os << "  stalls:";
            size_t shown = 0;
            for (const auto &[reason, count] : stalls) {
                if (shown++ == 3)
                    break;
                os << " " << reason << "=" << count;
            }
        }
        os << "\n";
    }
    for (const auto &q : queues_) {
        os << "  queue " << q->name() << " size=" << q->size()
           << (q->closed() ? " closed" : " open") << "\n";
    }
    for (size_t i = 0; i < memory_.numPorts(); ++i) {
        const MemoryPort &p = memory_.port(i);
        if (p.outstanding() == 0)
            continue;
        os << "  mem port " << p.id() << " (group " << p.group()
           << "): " << p.outstanding() << " outstanding\n";
    }
    return os.str();
}

} // namespace genesis::sim
