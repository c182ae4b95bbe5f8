/**
 * @file
 * The host wall-clock stopwatch (std::chrono::steady_clock) that every
 * host-side time ledger is measured with.
 */

#ifndef GENESIS_BASE_TIMER_H
#define GENESIS_BASE_TIMER_H

#include <chrono>

namespace genesis {

/** @return wall seconds elapsed since `start`. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Adds the wall seconds of its scope to `sink` on destruction. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &sink) : sink_(sink) {}
    ~ScopedTimer() { sink_ += secondsSince(start_); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    double &sink_;
    const std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

} // namespace genesis

#endif // GENESIS_BASE_TIMER_H
