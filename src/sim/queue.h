/**
 * @file
 * Bounded hardware queue connecting two dataflow modules.
 *
 * Two-phase semantics make the simulation deterministic regardless of
 * module tick order: pushes, pops and closes performed during a cycle are
 * staged and only become visible after commit() — exactly like a queue
 * with registered occupancy in RTL. Throughput is one push and one pop
 * per cycle.
 */

#ifndef GENESIS_SIM_QUEUE_H
#define GENESIS_SIM_QUEUE_H

#include <deque>
#include <string>
#include <vector>

#include "base/trace.h"
#include "sim/flit.h"
#include "sim/wait.h"

namespace genesis::sim {

/** A single-producer single-consumer bounded flit queue. */
class HardwareQueue
{
  public:
    /** Default queue depth used throughout the hardware library. */
    static constexpr size_t kDefaultCapacity = 8;

    explicit HardwareQueue(std::string name,
                           size_t capacity = kDefaultCapacity);

    const std::string &name() const { return name_; }
    size_t capacity() const { return capacity_; }
    size_t size() const { return buffer_.size(); }
    bool empty() const { return buffer_.empty(); }

    /** @return true when the producer may push this cycle. */
    bool canPush() const;

    /** Stage a push; at most one per cycle. */
    void push(const Flit &flit);

    /** @return true when a committed flit is available this cycle. */
    bool canPop() const;

    /** @return the flit visible at the head this cycle. */
    const Flit &front() const;

    /** Stage a pop of the head flit; at most one per cycle. */
    Flit pop();

    /** Producer marks the stream complete (staged like a push). */
    void close();

    /** @return true when the producer has committed a close. */
    bool closed() const { return closed_; }

    /**
     * @return true when the stream is finished: no committed flits left,
     * no staged flit in flight, and the producer closed the queue.
     */
    bool drained() const;

    /** Make this cycle's staged operations visible. */
    void commit();

    /**
     * Wire this queue into its owning Simulator: commits with staged work
     * bump *progress (the simulator's monotonic progress counter used for
     * deadlock detection and idle fast-forward), and the first staged
     * operation each cycle registers the queue on *dirty_list so the
     * simulator commits only active queues. Standalone queues (unit
     * tests) work without attachment.
     */
    void
    attachSimulator(uint64_t *progress,
                    std::vector<HardwareQueue *> *dirty_list)
    {
        progress_ = progress;
        dirtyList_ = dirty_list;
    }

    /**
     * Record this queue's occupancy as a counter track under process
     * `pid` in `sink`, sampled on every committed operation (`cycle` is
     * the owning simulator's clock). One inlined null check when unused.
     */
    void
    attachTrace(TraceSink *sink, const uint64_t *cycle, int pid)
    {
        trace_ = sink;
        traceCycle_ = cycle;
        traceTrack_ = sink->addCounterTrack(pid, "queue." + name_);
    }

    // --- statistics ---
    uint64_t totalFlits() const { return totalFlits_; }
    size_t maxOccupancy() const { return maxOccupancy_; }

    /**
     * Sleepers blocked on this queue. Any committed operation fires the
     * list: a push can unblock the consumer, a pop the producer, a close
     * the consumer's drain path. Modules whose blocked tick waits for
     * this queue to become non-empty-or-closed (consumer) or non-full
     * (producer) pass this to sleepOn().
     */
    WaitList &waiters() { return waiters_; }

  private:
    /** Register on the owning simulator's dirty list (once per cycle). */
    void
    markDirty()
    {
        if (!dirty_ && dirtyList_) {
            dirtyList_->push_back(this);
            dirty_ = true;
        }
    }

    std::string name_;
    size_t capacity_;
    std::deque<Flit> buffer_;

    bool stagedPushValid_ = false;
    Flit stagedPush_;
    bool stagedPop_ = false;
    bool stagedClose_ = false;
    bool closed_ = false;
    bool dirty_ = false;

    /** Fallback target so standalone queues work without a Simulator. */
    uint64_t localProgress_ = 0;
    uint64_t *progress_ = &localProgress_;
    std::vector<HardwareQueue *> *dirtyList_ = nullptr;

    uint64_t totalFlits_ = 0;
    size_t maxOccupancy_ = 0;

    /** Sleeping modules woken by any committed operation. */
    WaitList waiters_;

    /** Tracing attachment (null = disabled; see attachTrace). */
    TraceSink *trace_ = nullptr;
    const uint64_t *traceCycle_ = nullptr;
    int traceTrack_ = -1;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_QUEUE_H
