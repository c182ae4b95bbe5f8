/**
 * @file
 * Base class for Genesis hardware-library modules.
 *
 * Each module is an independent dataflow unit: every cycle it consumes at
 * most one flit from each input queue and produces at most one output
 * flit (Section III-C). Modules never call each other — all communication
 * flows through HardwareQueues, and the Simulator ticks every module once
 * per cycle.
 *
 * Statistics are counted through interned handles (StatRegistry::Counter)
 * that modules intern once at construction, so a stall cycle costs one
 * indirect increment instead of a string allocation plus map lookup.
 *
 * Progress contract (idle-cycle fast-forward): the Simulator detects
 * cycles in which nothing happened and skips runs of them wholesale. A
 * cycle counts as active when any queue commits a staged push/pop/close,
 * the memory system issues/schedules/retires a request, or a module calls
 * noteProgress(). A tick that mutates module-internal state WITHOUT
 * staging a queue/port operation must therefore call noteProgress(), or
 * the fast-forward may treat the design as idle while it is silently
 * advancing. Pure waiting (only bumping stall counters) needs no call.
 *
 * Sleep contract (active-set scheduling): a tick that did nothing at all
 * — no queue push/pop/close, no memory-port call, no noteProgress(), no
 * internal mutation, at most one countStall() — may end with sleepOn(),
 * declaring the wait lists whose events could unblock it. The Simulator
 * then stops ticking the module until one of those lists fires, at which
 * point the slept span is credited to the declared stall bucket (and the
 * module's open trace span), keeping cycles, statistics and traces
 * bit-identical to a tick-everything run. The wait set must cover every
 * resource the blocked tick (and done()) reads: an event the set misses
 * would leave the module asleep through a state change it should have
 * observed. A wait on another module's done() sleeps on that module's
 * doneWaiters(); done() may therefore flip only during the module's own
 * tick, at a queue commit or at a memory retirement, the three places
 * the Simulator fires that list. Spurious wakes are harmless — the
 * re-tick is exactly the tick a spinning module would have executed,
 * and it may simply sleep again. Set GENESIS_SIM_NO_SLEEP=1 to disable
 * sleeping (escape hatch; simulated results are identical either way).
 */

#ifndef GENESIS_SIM_MODULE_H
#define GENESIS_SIM_MODULE_H

#include <string>
#include <utility>
#include <vector>

#include "base/stats.h"
#include "base/trace.h"
#include "sim/queue.h"
#include "sim/wait.h"

namespace genesis::sim {

/** Abstract hardware module. */
class Module
{
  public:
    /** Interned per-module counter handle (see StatRegistry::Counter). */
    using StatHandle = StatRegistry::Counter;

    explicit Module(std::string name) : name_(std::move(name))
    {
        doneWaiters_.setName("module " + name_ + " done");
    }
    virtual ~Module() = default;

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /** Advance one clock cycle. */
    virtual void tick() = 0;

    /**
     * @return true when the module has finished all work: inputs drained,
     * outputs flushed and (where applicable) closed.
     */
    virtual bool done() const = 0;

    const std::string &name() const { return name_; }

    StatRegistry &stats() { return stats_; }
    const StatRegistry &stats() const { return stats_; }

    /** Redirect progress reporting to a simulator-owned counter. */
    void attachProgress(uint64_t *counter) { progress_ = counter; }

    /**
     * Wire sleep/wake into the owning Simulator: `cycle` is the
     * simulator clock (read when computing a slept span), `tick_cursor`
     * the tick-order index of the module ticking now (SIZE_MAX between
     * tick phases), `wake_queue` receives this module when a WaitList
     * wakes it for the next cycle and `wake_now` when it wakes it into
     * the current one, and `sleep_enabled` is false under
     * GENESIS_SIM_NO_SLEEP=1, turning sleepOn() into a no-op. Standalone
     * modules (unit tests) work without attachment.
     */
    void
    attachScheduler(const uint64_t *cycle, const size_t *tick_cursor,
                    std::vector<Module *> *wake_queue,
                    std::vector<Module *> *wake_now, bool sleep_enabled)
    {
        schedCycle_ = cycle;
        tickCursor_ = tick_cursor;
        wakeQueue_ = wake_queue;
        wakeNow_ = wake_now;
        sleepEnabled_ = sleep_enabled;
    }

    /** @return true while the scheduler has this module parked. */
    bool asleep() const { return asleep_; }

    /**
     * Wake a sleeping module (no-op when awake). Credits the slept span
     * to the stall bucket declared at sleepOn() — and extends the
     * module's open trace span — so counters and traces match what a
     * spinning module would have recorded, then queues the module for
     * re-activation. A wake fired while an earlier module in tick order
     * ticks (its done event, an SPM hazard release) changed state this
     * module reads live, and this module has not ticked yet this cycle:
     * it ticks in this cycle, so one slept cycle fewer is credited.
     * Called by WaitList::wakeAll().
     */
    void wake();

    /**
     * Sleepers waiting for this module's done() to turn true. The
     * Simulator fires the list right after this module's tick when
     * done() flipped during it, and when it latches a flip that a queue
     * commit or a memory retirement caused.
     */
    WaitList &doneWaiters() { return doneWaiters_; }

    /** Scheduler bookkeeping: whether the module sits in the active
     *  list (maintained by the Simulator, not by the module). */
    bool schedActive() const { return schedActive_; }
    void setSchedActive(bool active) { schedActive_ = active; }

    /** Scheduler bookkeeping: done() latched true (module retired from
     *  the active set for good; feeds the O(1) allDone() count). */
    bool schedDone() const { return schedDone_; }
    void setSchedDone(bool done) { schedDone_ = done; }

    /** Scheduler bookkeeping: tick-order index within the simulator. */
    size_t schedIndex() const { return schedIndex_; }
    void setSchedIndex(size_t index) { schedIndex_ = index; }

    /** @return "queue a, queue b" — the awaited resources (diagnostics;
     *  empty when awake). */
    std::string sleepDescription() const;

    /**
     * Start recording this module's activity spans into `sink` (one span
     * track under process `pid`; `cycle` is the owning simulator's clock).
     * Tracing hooks cost one inlined null check when never attached.
     */
    void attachTrace(TraceSink *sink, const uint64_t *cycle, int pid);

  protected:
    /** Intern the counter for one stall-reason bucket ("stall.<reason>").
     *  Call once at construction and keep the handle. */
    StatHandle
    stallCounter(const char *reason)
    {
        return stats_.counter(std::string("stall.") + reason);
    }

    /** Intern an arbitrary per-module counter. */
    StatHandle statCounter(const std::string &name)
    {
        return stats_.counter(name);
    }

    /** Record one stall cycle against an interned reason bucket. */
    void
    countStall(StatHandle stall)
    {
        ++*stall;
        if (trace_)
            traceStall(stall);
    }

    /** Record one processed flit. */
    void
    countFlit()
    {
        ++*flits_;
        if (trace_)
            trace_->mark(traceTrack_, *traceCycle_, TraceSink::kStateBusy);
    }

    /**
     * Mark this cycle as having made progress. Required whenever tick()
     * changes internal state without staging a queue push/pop/close or a
     * memory-port request (see the progress contract above).
     */
    void
    noteProgress()
    {
        ++*progress_;
        if (trace_)
            trace_->mark(traceTrack_, *traceCycle_, TraceSink::kStateBusy);
    }

    /**
     * Trace-only busy mark for productive cycles that neither process a
     * flit nor self-report progress (e.g. draining an in-band boundary).
     * A no-op when tracing is disabled; never affects simulation.
     */
    void
    traceBusy()
    {
        if (trace_)
            trace_->mark(traceTrack_, *traceCycle_, TraceSink::kStateBusy);
    }

    /** Trace-only instant marker on this module's track. */
    void
    traceInstant(TraceSink::StateId name, std::string args)
    {
        if (trace_)
            trace_->instant(traceTrack_, *traceCycle_, name,
                            std::move(args));
    }

    /** @return the attached sink (null when tracing is disabled). */
    TraceSink *traceSink() { return trace_; }

    /**
     * Park this module until one of `lists` fires (see the sleep
     * contract above). Only legal at the end of a tick that did nothing:
     * the scheduler stops ticking the module, and on wake the slept
     * cycles are credited to `stall` — pass the bucket the blocked tick
     * just counted, or nullptr when the blocked tick counts no stall.
     * A no-op when unattached or under GENESIS_SIM_NO_SLEEP=1.
     */
    void
    sleepOn(StatHandle stall, std::initializer_list<WaitList *> lists)
    {
        if (!sleepEnabled_)
            return;
        asleep_ = true;
        sleepCycle_ = *schedCycle_;
        sleepStall_ = stall;
        sleepLists_.assign(lists.begin(), lists.end());
        for (WaitList *list : sleepLists_)
            list->add(this);
    }

  private:
    /** Slow path: resolve a stall handle to a trace state and mark it. */
    void traceStall(StatHandle stall);

    std::string name_;
    StatRegistry stats_;
    StatHandle flits_ = stats_.counter("flits");
    /** Fallback target so standalone modules work without a Simulator. */
    uint64_t localProgress_ = 0;
    uint64_t *progress_ = &localProgress_;
    /** Sleep/wake attachment (see attachScheduler / sleepOn / wake). */
    const uint64_t *schedCycle_ = nullptr;
    const size_t *tickCursor_ = nullptr;
    std::vector<Module *> *wakeQueue_ = nullptr;
    std::vector<Module *> *wakeNow_ = nullptr;
    WaitList doneWaiters_;
    bool sleepEnabled_ = false;
    bool asleep_ = false;
    bool schedActive_ = false;
    bool schedDone_ = false;
    size_t schedIndex_ = 0;
    uint64_t sleepCycle_ = 0;
    StatHandle sleepStall_ = nullptr;
    std::vector<WaitList *> sleepLists_;
    /** Tracing attachment (null = disabled; see attachTrace). */
    TraceSink *trace_ = nullptr;
    const uint64_t *traceCycle_ = nullptr;
    int traceTrack_ = -1;
    /** Cached stall-handle -> trace-state resolutions. */
    std::vector<std::pair<StatHandle, TraceSink::StateId>> stallStates_;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_MODULE_H
