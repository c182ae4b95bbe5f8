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
    scratchpads_.push_back(
        std::make_unique<Scratchpad>(name, size_words, word_bytes));
    if (trace_)
        scratchpads_.back()->attachTrace(trace_, &cycle_, tracePid_);
    return scratchpads_.back().get();
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
    for (Module *m : active_)
        m->tick();
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
    size_t keep = 0;
    for (Module *m : woken_) {
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

void
Simulator::snapshotStats()
{
    statSnapshots_.clear();
    statSnapshots_.reserve(modules_.size() + scratchpads_.size() + 1);
    for (const auto &m : modules_)
        statSnapshots_.push_back(m->stats());
    for (const auto &s : scratchpads_)
        statSnapshots_.push_back(s->stats());
    statSnapshots_.push_back(memory_.stats());
}

void
Simulator::creditSkippedCycles(uint64_t times)
{
    size_t i = 0;
    for (auto &m : modules_)
        m->stats().creditDelta(statSnapshots_[i++], times);
    for (auto &s : scratchpads_)
        s->stats().creditDelta(statSnapshots_[i++], times);
    memory_.stats().creditDelta(statSnapshots_[i++], times);
}

uint64_t
Simulator::run(uint64_t max_cycles)
{
    finished_.store(false, std::memory_order_relaxed);
    // Deadlock horizon: generously above the worst legitimate quiet
    // period (memory latency plus arbitration backlog).
    const uint64_t deadlock_horizon =
        10'000 + 100ull * memory_.config().latencyCycles;

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
        snapshotStats();
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
        memory_.fastForward(skip);
        quiet_cycles += skip;
        if (quiet_cycles > deadlock_horizon) {
            panic("deadlock: no progress for %llu cycles\n%s",
                  static_cast<unsigned long long>(quiet_cycles),
                  dumpState().c_str());
        }
    }
    // Publish completion for cross-thread pollers: the cycle count
    // first, then the flag that licenses reading it (release pairs with
    // the acquire in finished()/finishedCycle()).
    finishedCycle_.store(cycle_, std::memory_order_release);
    finished_.store(true, std::memory_order_release);
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
