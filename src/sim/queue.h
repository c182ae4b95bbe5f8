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

#include <algorithm>
#include <string>
#include <vector>

#include "base/trace.h"
#include "sim/flit.h"
#include "sim/ring.h"
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

    /*
     * Pushes: at most one per cycle, staged in the ring's free slot,
     * where commit() only has to count it in. A producer builds its flit
     * in that slot instead of copying a temporary in; emplace() and
     * push() return it, and it is the producer's until commit(). The
     * first staged operation of a cycle sets when the queue commits
     * among the others, and so the order of queue counters in a trace.
     */

    /** Stage a push of a reset flit (key 0, no fields) to fill in. */
    Flit &emplace();

    /** Stage a push of a copy of `flit`, e.g. another queue's front(). */
    Flit &push(const Flit &flit);

    /** Stage a push of a flit with `key` and data `fields`. */
    template <typename... Fields>
    void pushFlit(int64_t key, Fields... fields);

    /** Stage a push of an item-boundary marker (see makeBoundary()). */
    void pushBoundary();

    /** @return true when a committed flit is available this cycle. */
    bool canPop() const;

    /**
     * @return the flit visible at the head this cycle. The reference
     * stays valid until commit(), also after pop() has been staged.
     */
    const Flit &front() const;

    /** Stage a pop of the head flit; at most one per cycle. */
    void pop();

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
    /** Check and stage a push; @return the slot it fills. */
    Flit &stagePush();
    /** Panic for a push to a full or closed queue (kept out of line). */
    [[noreturn]] void failPush() const;
    /** Panic for `op` ("front of", "pop from") on an empty queue. */
    [[noreturn]] void failEmpty(const char *op) const;

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
    /** Committed flits: capacity_ slots, allocated at construction. A
     *  staged push waits in the slot after the youngest flit. */
    Ring<Flit> buffer_;

    bool stagedPushValid_ = false;
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

// The per-flit operations are defined here so that module ticks and the
// simulator's commit loop inline them; only the failure paths are out of
// line.

inline bool
HardwareQueue::canPush() const
{
    // Conservative (registered) backpressure: space is judged against the
    // occupancy at the start of the cycle; a same-cycle pop does not free
    // a slot until commit.
    return !stagedPushValid_ && buffer_.size() < capacity_;
}

inline Flit &
HardwareQueue::stagePush()
{
    if (!canPush() || closed_ || stagedClose_)
        failPush();
    stagedPushValid_ = true;
    markDirty();
    // canPush() leaves the ring a free slot.
    return buffer_.nextSlot();
}

inline Flit &
HardwareQueue::emplace()
{
    // A full reset: the slot last held an older flit, whose fields past
    // the new numFields must not reach operator==.
    return stagePush() = Flit{};
}

inline Flit &
HardwareQueue::push(const Flit &flit)
{
    return stagePush() = flit;
}

template <typename... Fields>
inline void
HardwareQueue::pushFlit(int64_t key, Fields... fields)
{
    static_assert(sizeof...(Fields) <= Flit::kMaxFields,
                  "too many flit fields");
    Flit &slot = emplace();
    slot.key = key;
    (slot.pushField(fields), ...);
}

inline void
HardwareQueue::pushBoundary()
{
    Flit &slot = emplace();
    slot.key = Flit::kBoundary;
    slot.lastOfItem = true;
}

inline bool
HardwareQueue::canPop() const
{
    return !stagedPop_ && !buffer_.empty();
}

inline const Flit &
HardwareQueue::front() const
{
    if (buffer_.empty())
        failEmpty("front of");
    return buffer_.front();
}

inline void
HardwareQueue::pop()
{
    if (!canPop())
        failEmpty("pop from");
    stagedPop_ = true;
    markDirty();
}

inline bool
HardwareQueue::drained() const
{
    return buffer_.empty() && !stagedPushValid_ && closed_;
}

inline void
HardwareQueue::commit()
{
    const bool staged = stagedPop_ || stagedPushValid_ || stagedClose_;
    if (stagedPop_) {
        buffer_.pop_front();
        stagedPop_ = false;
    }
    if (stagedPushValid_) {
        // The pop above moved the head and the size by one each, so the
        // staged flit is still the slot after the youngest.
        buffer_.pushNextSlot();
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
        if (!waiters_.empty())
            waiters_.wakeAll();
    }
}

} // namespace genesis::sim

#endif // GENESIS_SIM_QUEUE_H
