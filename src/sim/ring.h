/**
 * @file
 * Allocation-free FIFO storage for the simulator's hardware queues and
 * memory-port request queues.
 */

#ifndef GENESIS_SIM_RING_H
#define GENESIS_SIM_RING_H

#include <cstddef>
#include <utility>
#include <vector>

namespace genesis::sim {

/**
 * FIFO over a circular array of slots allocated at construction. A
 * node-based double-ended queue allocates and frees a node every few
 * elements as a stream passes through it; this ring allocates again
 * only when a push finds every slot full, and then doubles.
 * HardwareQueue gates its pushes by its capacity and so never
 * allocates after construction; a memory port's request queue may
 * briefly overshoot its depth (one issue() can split into several
 * slices) and doubles its ring then.
 */
template <typename T>
class Ring
{
  public:
    explicit Ring(size_t slots) : slots_(slots), numSlots_(slots) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Oldest element; the ring must not be empty. */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Youngest element; the ring must not be empty. */
    T &back() { return slots_[wrap(head_ + size_ - 1)]; }

    void
    push_back(const T &value)
    {
        if (size_ == numSlots_)
            grow();
        nextSlot() = value;
        ++size_;
    }

    /** The free slot the next push fills; the ring must not be full. */
    T &nextSlot() { return slots_[wrap(head_ + size_)]; }

    /** Append the element already written into nextSlot(). */
    void pushNextSlot() { ++size_; }

    /** Drop the oldest element; the ring must not be empty. */
    void
    pop_front()
    {
        head_ = wrap(head_ + 1);
        --size_;
    }

  private:
    /** Fold an index in [0, 2 x slots) back onto the slot array. */
    size_t
    wrap(size_t i) const
    {
        return i >= numSlots_ ? i - numSlots_ : i;
    }

    void
    grow()
    {
        std::vector<T> bigger(numSlots_ == 0 ? 1 : 2 * numSlots_);
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[wrap(head_ + i)]);
        slots_.swap(bigger);
        numSlots_ = slots_.size();
        head_ = 0;
    }

    std::vector<T> slots_;
    /** slots_.size(), kept so that wrap() need not divide the byte span
     *  by sizeof(T). */
    size_t numSlots_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_RING_H
