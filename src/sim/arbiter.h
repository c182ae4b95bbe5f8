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
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(size_t n = 0) : n_(n) {}

    void resize(size_t n);
    size_t size() const { return n_; }

    /**
     * @param requesting predicate: does requester i want (and may get) a
     * grant this cycle? Templated so hot callers (the memory system's
     * per-cycle arbitration) pass lambdas without a std::function
     * allocation or indirect call.
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
