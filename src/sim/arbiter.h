/**
 * @file
 * Round-robin arbitration primitive used by the memory system's local and
 * global arbiters (paper Figure 8).
 */

#ifndef GENESIS_SIM_ARBITER_H
#define GENESIS_SIM_ARBITER_H

#include <cstddef>

namespace genesis::sim {

/**
 * Fair round-robin selector over n requesters. grant() scans the
 * requesters starting just past the last winner and returns the first
 * index the predicate accepts, updating the pointer; -1 when none.
 * grant() is the definition of the policy; distance() and take() let a
 * caller that already holds its candidate list reach the same winner
 * and pointer without the scan.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(size_t n = 0) : n_(n) {}

    void resize(size_t n);
    size_t size() const { return n_; }

    /**
     * @param requesting predicate: does requester i want (and may get) a
     * grant this cycle? Templated so callers pass lambdas without a
     * std::function allocation or indirect call.
     * @return granted index, or -1 when no requester is eligible.
     */
    template <typename Pred>
    int
    grant(const Pred &requesting)
    {
        if (n_ == 0)
            return -1;
        for (size_t i = 0; i < n_; ++i) {
            size_t candidate = next_ + i;
            if (candidate >= n_)
                candidate -= n_;
            if (requesting(candidate)) {
                next_ = candidate + 1 == n_ ? 0 : candidate + 1;
                return static_cast<int>(candidate);
            }
        }
        return -1;
    }

    /**
     * Position of requester i in the next grant() scan: 0 for the
     * requester the scan starts from, n - 1 for the one it reaches
     * last. Among the requesters a predicate accepts, grant() returns
     * the one with the smallest distance, so a caller that knows its
     * candidates (the memory system's ready-head index) can pick the
     * winner by distance without scanning every requester.
     */
    size_t
    distance(size_t i) const
    {
        return i >= next_ ? i - next_ : i + n_ - next_;
    }

    /**
     * Record a grant to requester i decided outside grant(): the
     * pointer moves exactly as grant() moves it when i wins.
     */
    void take(size_t i) { next_ = i + 1 == n_ ? 0 : i + 1; }

    /**
     * Requester the next grant() scan starts from. A grant with no
     * eligible requester leaves this untouched, so ticks that find
     * nothing schedulable (the spans tickQuiet() proves quiet) are exact
     * no-ops on arbiter state and may be skipped.
     */
    size_t nextIndex() const { return next_; }

  private:
    size_t n_ = 0;
    size_t next_ = 0;
};

} // namespace genesis::sim

#endif // GENESIS_SIM_ARBITER_H
