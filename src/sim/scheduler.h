/**
 * @file
 * The cycle-driven simulator that owns and advances a dataflow design.
 *
 * A Simulator owns the hardware queues, scratchpads, modules and the
 * memory system of one accelerator configuration (one or many parallel
 * pipelines). run() ticks every module each cycle, commits every queue,
 * and advances the memory system until all modules report done.
 */

#ifndef GENESIS_SIM_SCHEDULER_H
#define GENESIS_SIM_SCHEDULER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "sim/memory.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "sim/spm.h"

namespace genesis::sim {

/**
 * Owns and runs one simulated accelerator design.
 *
 * The hot loop keeps per-cycle cost proportional to activity, not design
 * size:
 *  - a monotonic progress counter (bumped by queue commits, memory
 *    issue/schedule/retire, and Module::noteProgress) replaces the old
 *    per-cycle state fingerprint for deadlock detection;
 *  - step() commits only queues that staged an operation this cycle;
 *  - step() ticks only the active set: a module whose tick made no
 *    progress declares what it is blocked on (sleepOn) and is parked
 *    until the blocking resource — a queue commit, a memory-port
 *    retirement, an SPM hazard release — wakes it, with the slept span
 *    credited to its stall bucket and trace span on wake. Modules whose
 *    done() latched are retired from the set outright, and allDone() is
 *    a counter compare instead of an O(modules) scan. Set
 *    GENESIS_SIM_NO_SLEEP=1 to disable sleeping (escape hatch;
 *    simulated results are identical either way);
 *  - runs of provably idle cycles (every module stalled or asleep, the
 *    memory system waiting on a completion) are fast-forwarded to the
 *    next memory event, with the skipped cycles' stall/idle statistics
 *    credited in bulk so all counters stay bit-identical to a
 *    cycle-by-cycle run. Set GENESIS_SIM_NO_FASTFORWARD=1 to disable
 *    the fast-forward (escape hatch; simulated results are identical
 *    either way).
 *
 * Sleeping also sharpens deadlock detection: an empty active set with
 * no pending memory event is a provable deadlock — nothing can ever
 * fire a wake — and is reported immediately instead of after the
 * multi-thousand-cycle quiet horizon.
 *
 * The simulator runs on the thread that calls run() (DESIGN.md §4e).
 * Replicated pipelines are modeled cycle by cycle behind the memory
 * arbiters, so host threads could change only host time, never a
 * simulated number; host concurrency lives above the simulator
 * (BatchRunner lanes, service worker slots, DSE point farming).
 */
class Simulator
{
  public:
    explicit Simulator(const MemoryConfig &mem_config = MemoryConfig());

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Create a queue owned by the simulator. */
    HardwareQueue *makeQueue(const std::string &name,
                             size_t capacity = HardwareQueue::
                                 kDefaultCapacity);

    /** Create a scratchpad owned by the simulator. */
    Scratchpad *makeScratchpad(const std::string &name, size_t size_words,
                               uint32_t word_bytes = 8);

    /** Take ownership of a module; returns a borrowed pointer. */
    template <typename T>
    T *
    addModule(std::unique_ptr<T> module)
    {
        T *raw = module.get();
        raw->attachProgress(&progress_);
        raw->attachScheduler(&cycle_, &woken_, sleepEnabled_);
        raw->setSchedIndex(modules_.size());
        if (trace_)
            raw->attachTrace(trace_, &cycle_, tracePid_);
        modules_.push_back(std::move(module));
        if (raw->done()) {
            // Done at construction (e.g. a source built with no work):
            // latch immediately so it never enters the active set.
            raw->setSchedDone(true);
            ++doneCount_;
        } else {
            raw->setSchedActive(true);
            active_.push_back(raw);
        }
        return raw;
    }

    /** Construct a module in place. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        return addModule(std::make_unique<T>(std::forward<Args>(args)...));
    }

    MemorySystem &memory() { return memory_; }
    const MemorySystem &memory() const { return memory_; }

    uint64_t cycle() const { return cycle_; }

    /** @return true when every module reports done. */
    bool allDone() const;

    /**
     * True once run() has returned, published with release/acquire
     * ordering so a host thread may poll it while a worker thread
     * advances the simulation (the check_genesis path). Every other
     * accessor of this class is single-writer: only the thread running
     * run()/step() may touch the simulator until it is joined.
     */
    bool finished() const
    {
        return finished_.load(std::memory_order_acquire);
    }

    /**
     * Cycle count published together with finished(): the total cycles
     * simulated when run() last returned. Safe to read cross-thread
     * once finished() is true.
     */
    uint64_t finishedCycle() const
    {
        return finishedCycle_.load(std::memory_order_acquire);
    }

    /**
     * Run until all modules are done.
     * @param max_cycles hard cap; exceeding it panics (runaway design)
     * @return total cycles simulated across all run() calls
     */
    uint64_t run(uint64_t max_cycles = 1'000'000'000);

    /** Tick exactly one cycle (for fine-grained tests). */
    void step();

    /** Aggregate all module/queue/memory statistics into one registry. */
    StatRegistry collectStats() const;

    const std::vector<std::unique_ptr<Module>> &modules() const
    {
        return modules_;
    }

    /**
     * Monotonic count of architectural events (queue commits, memory
     * issue/schedule/retire, module noteProgress). Constant across a
     * cycle means the design made no progress that cycle.
     */
    uint64_t progress() const { return progress_; }

    /**
     * Start recording this design's activity into `sink` as one trace
     * process named `label`: a span track per module, a counter track
     * per queue and scratchpad, async request lifetimes per memory port
     * and busy spans per channel. Covers existing and subsequently
     * created components, and composes with the idle-cycle fast-forward
     * (skipped spans are credited in bulk). The sink must outlive the
     * simulator; tracing never changes simulated cycles or statistics.
     */
    void attachTrace(TraceSink *sink, const std::string &label);

    /** @return the attached sink (null when tracing is disabled). */
    TraceSink *trace() { return trace_; }

  private:
    /** Latch a freshly-done module (advances the allDone() count). */
    void
    maybeLatchDone(Module *m)
    {
        if (!m->schedDone() && m->done()) {
            m->setSchedDone(true);
            ++doneCount_;
        }
    }

    /** Drop asleep/done modules from active_, merge woken_ back in
     *  (tick order preserved), and latch newly-done modules. */
    void updateActiveSet();

    /** Snapshot all stat registries (modules, memory, scratchpads). */
    void snapshotStats();

    /** Credit `times` repeats of the deltas since snapshotStats(). */
    void creditSkippedCycles(uint64_t times);

    /** Render queue/module/memory state for deadlock diagnostics. */
    std::string dumpState() const;

    MemorySystem memory_;
    std::vector<std::unique_ptr<HardwareQueue>> queues_;
    std::vector<std::unique_ptr<Scratchpad>> scratchpads_;
    std::vector<std::unique_ptr<Module>> modules_;
    uint64_t cycle_ = 0;
    /** See progress(). */
    uint64_t progress_ = 0;
    /** Completion flag published by run() (see finished()). */
    std::atomic<bool> finished_{false};
    /** Cycle count published by run() (see finishedCycle()). */
    std::atomic<uint64_t> finishedCycle_{0};
    /** Queues with operations staged this cycle (commit work list). */
    std::vector<HardwareQueue *> dirtyQueues_;
    /** Modules ticked each cycle: neither asleep nor done, in tick
     *  (= insertion) order. The rest of modules_ is parked. */
    std::vector<Module *> active_;
    /** Modules woken this cycle by a WaitList; merged back into
     *  active_ at end of step(). */
    std::vector<Module *> woken_;
    /** Scratch buffer for the active/woken order-preserving merge. */
    std::vector<Module *> mergeScratch_;
    /** Modules with done() latched; allDone() compares against
     *  modules_.size() instead of scanning. */
    size_t doneCount_ = 0;
    /** GENESIS_SIM_NO_SLEEP escape hatch (read at construction). */
    bool sleepEnabled_ = true;
    /** GENESIS_SIM_NO_FASTFORWARD escape hatch (read at construction). */
    bool fastForwardEnabled_ = true;
    /** Scratch buffers for idle-cycle stat sampling. */
    std::vector<StatRegistry> statSnapshots_;
    /** Tracing attachment (null = disabled; see attachTrace). */
    TraceSink *trace_ = nullptr;
    int tracePid_ = -1;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_SCHEDULER_H
