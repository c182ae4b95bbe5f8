#include "modules/reducer.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

Reducer::Reducer(std::string name, sim::HardwareQueue *in,
                 sim::HardwareQueue *out, const ReducerConfig &config)
    : Module(std::move(name)), in_(in), out_(out), config_(config)
{
    GENESIS_ASSERT(in_ && out_, "reducer wiring");
    resetAccumulator();
}

void
Reducer::resetAccumulator()
{
    any_ = false;
    switch (config_.op) {
      case ReduceOp::Sum:
      case ReduceOp::Count:
        accumulator_ = 0;
        break;
      case ReduceOp::Min:
        accumulator_ = std::numeric_limits<int64_t>::max();
        break;
      case ReduceOp::Max:
        accumulator_ = std::numeric_limits<int64_t>::min();
        break;
    }
}

void
Reducer::accumulate(const Flit &flit)
{
    if (config_.maskField >= 0 &&
        flit.fieldAt(config_.maskField) == 0) {
        return;
    }
    if (config_.op == ReduceOp::Count) {
        ++accumulator_;
        any_ = true;
        return;
    }
    int64_t v = config_.valueField < 0
        ? flit.key : flit.fieldAt(config_.valueField);
    if (config_.skipSentinels &&
        (v == Flit::kNull || v == Flit::kDel || v == Flit::kIns)) {
        return;
    }
    switch (config_.op) {
      case ReduceOp::Sum:
        accumulator_ += v;
        break;
      case ReduceOp::Min:
        accumulator_ = std::min(accumulator_, v);
        break;
      case ReduceOp::Max:
        accumulator_ = std::max(accumulator_, v);
        break;
      case ReduceOp::Count:
        break;
    }
    any_ = true;
}

void
Reducer::pushResult()
{
    const bool empty_extreme =
        (config_.op == ReduceOp::Min || config_.op == ReduceOp::Max) &&
        !any_;
    out_->pushFlit(itemIndex_++, empty_extreme ? Flit::kNull
                                               : accumulator_);
}

void
Reducer::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }
    if (pendingBoundary_) {
        out_->pushBoundary();
        pendingBoundary_ = false;
        traceBusy();
        return;
    }
    if (in_->canPop()) {
        const Flit &head = in_->front();
        if (sim::isBoundary(head)) {
            in_->pop();
            if (config_.granularity == ReduceGranularity::PerItem) {
                pushResult();
                resetAccumulator();
                pendingBoundary_ = config_.emitBoundaries;
            }
            traceBusy();
            return;
        }
        in_->pop();
        accumulate(head);
        countFlit();
        return;
    }
    if (in_->drained()) {
        if (config_.granularity == ReduceGranularity::WholeStream &&
            !finalEmitted_) {
            pushResult();
            finalEmitted_ = true;
            traceBusy();
            return;
        }
        out_->close();
        closed_ = true;
        return;
    }
    sleepOn(nullptr, {&in_->waiters()});
}

bool
Reducer::done() const
{
    return closed_;
}

} // namespace genesis::modules
