/**
 * @file
 * Reducer module (Section III-C, Figure 6).
 *
 * Performs Sum / Min / Max / Count reductions over a flit stream using a
 * reduction tree (modelled as one flit per cycle regardless of values per
 * flit). Supports per-item granularity — emit one result at each boundary
 * flit — and masked reduction, where a designated 0/1 field gates which
 * flits contribute (the paper's masked-reduction feature, used to count
 * mismatching bases per read in the Metadata Update pipeline).
 */

#ifndef GENESIS_MODULES_REDUCER_H
#define GENESIS_MODULES_REDUCER_H

#include "sim/module.h"

namespace genesis::modules {

/** Reduction operation. */
enum class ReduceOp { Sum, Min, Max, Count };

/** Reduction granularity. */
enum class ReduceGranularity {
    PerItem,     ///< one result per item (at each boundary flit)
    WholeStream, ///< single result when the input drains
};

/** Configuration for a Reducer. */
struct ReducerConfig {
    ReduceOp op = ReduceOp::Sum;
    ReduceGranularity granularity = ReduceGranularity::WholeStream;
    /** Field to reduce (-1 = the key). Ignored for Count. */
    int valueField = 0;
    /** Mask field index; -1 = unmasked. Flits with a 0 mask are skipped. */
    int maskField = -1;
    /**
     * Treat Null/Del sentinel values as absent (skipped) rather than
     * arithmetic values. Sum of qualities over a left join relies on it.
     */
    bool skipSentinels = true;
    /** Emit a boundary flit after each per-item result. */
    bool emitBoundaries = false;
};

/** The Reducer module. */
class Reducer : public sim::Module
{
  public:
    Reducer(std::string name, sim::HardwareQueue *in,
            sim::HardwareQueue *out, const ReducerConfig &config);

    void tick() override;
    bool done() const override;

  private:
    /** Interned stall-reason counters (see Module). */
    StatHandle stallBackpressure_ = stallCounter("backpressure");

    void accumulate(const sim::Flit &flit);
    void pushResult();
    void resetAccumulator();

    sim::HardwareQueue *in_;
    sim::HardwareQueue *out_;
    ReducerConfig config_;

    int64_t accumulator_ = 0;
    bool any_ = false;
    int64_t itemIndex_ = 0;
    bool pendingBoundary_ = false;
    bool finalEmitted_ = false;
    bool closed_ = false;
};

} // namespace genesis::modules

#endif // GENESIS_MODULES_REDUCER_H
