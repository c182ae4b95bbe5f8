#include "modules/stream_alu.h"

#include <algorithm>

#include "base/logging.h"

namespace genesis::modules {

using sim::Flit;

StreamAlu::StreamAlu(std::string name, sim::HardwareQueue *in_a,
                     sim::HardwareQueue *in_b, sim::HardwareQueue *out,
                     const StreamAluConfig &config)
    : Module(std::move(name)), inA_(in_a), inB_(in_b), out_(out),
      config_(config)
{
    GENESIS_ASSERT(inA_ && inB_ && out_, "stream ALU wiring");
}

StreamAlu::StreamAlu(std::string name, sim::HardwareQueue *in,
                     sim::HardwareQueue *out, const StreamAluConfig &config)
    : Module(std::move(name)), inA_(in), inB_(nullptr), out_(out),
      config_(config)
{
    GENESIS_ASSERT(inA_ && out_, "stream ALU wiring");
}

int64_t
StreamAlu::apply(AluOp op, int64_t a, int64_t b)
{
    switch (op) {
      case AluOp::Add: return a + b;
      case AluOp::Sub: return a - b;
      case AluOp::Mul: return a * b;
      case AluOp::And: return a & b;
      case AluOp::Or: return a | b;
      case AluOp::Xor: return a ^ b;
      case AluOp::Not: return ~a;
      case AluOp::Min: return std::min(a, b);
      case AluOp::Max: return std::max(a, b);
      case AluOp::Cmp: return a == b ? 1 : 0;
      case AluOp::Shl: return a << b;
      case AluOp::Pack: return a | (b << 8);
    }
    panic("invalid ALU op");
}

void
StreamAlu::tick()
{
    if (closed_)
        return;
    if (!out_->canPush()) {
        countStall(stallBackpressure_);
        sleepOn(stallBackpressure_, {&out_->waiters()});
        return;
    }

    bool a_has = inA_->canPop();
    bool a_boundary = a_has && sim::isBoundary(inA_->front());
    if (inB_) {
        bool b_has = inB_->canPop();
        bool b_boundary = b_has && sim::isBoundary(inB_->front());
        if (a_boundary && b_boundary) {
            inA_->pop();
            inB_->pop();
            out_->pushBoundary();
            traceBusy();
            return;
        }
        if (a_has && b_has && !a_boundary && !b_boundary) {
            const Flit &a = inA_->front();
            const Flit &b = inB_->front();
            int64_t va = config_.fieldA < 0
                ? a.key : a.fieldAt(config_.fieldA);
            int64_t vb = config_.fieldB < 0
                ? b.key : b.fieldAt(config_.fieldB);
            bool masked = config_.maskField >= 0 &&
                a.fieldAt(config_.maskField) == 0;
            inA_->pop();
            inB_->pop();
            out_->pushFlit(a.key, masked ? va : apply(config_.op, va, vb));
            countFlit();
            return;
        }
        if ((a_boundary && b_has) || (b_boundary && a_has)) {
            panic("%s: misaligned item boundaries across inputs",
                  name().c_str());
        }
        if (inA_->drained() && inB_->drained()) {
            out_->close();
            closed_ = true;
            return;
        }
        countStall(stallStarved_);
        sleepOn(stallStarved_, {&inA_->waiters(), &inB_->waiters()});
        return;
    }

    // Unary / constant-operand form.
    if (a_boundary) {
        inA_->pop();
        out_->pushBoundary();
        traceBusy();
        return;
    }
    if (a_has) {
        const Flit &a = inA_->front();
        int64_t va = config_.fieldA < 0
            ? a.key : a.fieldAt(config_.fieldA);
        bool masked = config_.maskField >= 0 &&
            a.fieldAt(config_.maskField) == 0;
        inA_->pop();
        out_->pushFlit(a.key, masked ? va
                       : apply(config_.op, va, config_.constantB));
        countFlit();
        return;
    }
    if (inA_->drained()) {
        out_->close();
        closed_ = true;
        return;
    }
    sleepOn(nullptr, {&inA_->waiters()});
}

bool
StreamAlu::done() const
{
    return closed_;
}

} // namespace genesis::modules
