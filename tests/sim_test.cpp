/**
 * @file
 * Tests for the dataflow simulator core: flits, two-phase queues,
 * round-robin arbitration, the memory timing model, scratchpads, and the
 * scheduler (including deadlock detection).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "modules/filter.h"
#include "modules/spm_updater.h"
#include "sim/arbiter.h"
#include "sim/memory.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/spm.h"
#include "sim_test_utils.h"

namespace genesis::sim {
namespace {

TEST(Flit, FieldsAndMerge)
{
    Flit a = makeFlit(5, 1, 2);
    Flit b = makeFlit(5, 3);
    a.mergeFields(b);
    EXPECT_EQ(a.numFields, 3);
    EXPECT_EQ(a.fieldAt(2), 3);
}

TEST(Flit, OverflowPanics)
{
    setQuiet(true);
    Flit f;
    for (int i = 0; i < Flit::kMaxFields; ++i)
        f.pushField(i);
    EXPECT_THROW(f.pushField(99), PanicError);
    EXPECT_THROW(f.fieldAt(Flit::kMaxFields), PanicError);
    setQuiet(false);
}

TEST(Flit, BoundaryMarker)
{
    Flit b = makeBoundary();
    EXPECT_TRUE(isBoundary(b));
    EXPECT_FALSE(isBoundary(makeFlit(1, 2)));
}

TEST(Flit, StrRendersSentinels)
{
    Flit f = makeFlit(Flit::kIns, Flit::kDel);
    f.pushField(Flit::kNull);
    std::string s = f.str();
    EXPECT_NE(s.find("Ins"), std::string::npos);
    EXPECT_NE(s.find("Del"), std::string::npos);
    EXPECT_NE(s.find("Null"), std::string::npos);
}

TEST(Queue, PushVisibleOnlyAfterCommit)
{
    HardwareQueue q("q", 4);
    q.push(makeFlit(1));
    EXPECT_FALSE(q.canPop());
    q.commit();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.front().key, 1);
}

TEST(Queue, PopFreesSlotOnlyAfterCommit)
{
    HardwareQueue q("q", 1);
    q.push(makeFlit(1));
    q.commit();
    EXPECT_FALSE(q.canPush()); // full
    q.pop();
    EXPECT_FALSE(q.canPush()); // registered backpressure: still full
    q.commit();
    EXPECT_TRUE(q.canPush());
}

TEST(Queue, OnePushPerCyclePanicsOtherwise)
{
    setQuiet(true);
    HardwareQueue q("q", 4);
    q.push(makeFlit(1));
    EXPECT_THROW(q.push(makeFlit(2)), PanicError);
    setQuiet(false);
}

TEST(Queue, CloseAndDrained)
{
    HardwareQueue q("q", 4);
    q.push(makeFlit(1));
    q.commit();
    q.close();
    EXPECT_FALSE(q.closed()); // staged
    q.commit();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.drained()); // flit still inside
    q.pop();
    q.commit();
    EXPECT_TRUE(q.drained());
}

TEST(Queue, PushAfterClosePanics)
{
    setQuiet(true);
    HardwareQueue q("q", 4);
    q.close();
    q.commit();
    EXPECT_THROW(q.push(makeFlit(1)), PanicError);
    setQuiet(false);
}

TEST(Queue, FifoOrderAndStats)
{
    HardwareQueue q("q", 8);
    for (int i = 0; i < 3; ++i) {
        q.push(makeFlit(i));
        q.commit();
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(q.front().key, i);
        q.pop();
        q.commit();
    }
    EXPECT_EQ(q.totalFlits(), 3u);
    EXPECT_EQ(q.maxOccupancy(), 3u);
}

TEST(Queue, InPlacePushesStageUntilCommitInFifoOrder)
{
    HardwareQueue q("q", 4);
    Flit &slot = q.emplace();
    slot.key = 1;
    slot.pushField(10);
    EXPECT_FALSE(q.canPop()); // staged
    q.commit();
    // push() returns the staged copy, which the producer may extend.
    q.push(makeFlit(2, 20)).pushField(21);
    q.commit();
    q.pushFlit(3, 30);
    q.commit();
    q.pushBoundary();
    EXPECT_EQ(q.size(), 3u);
    q.commit();
    for (const Flit &want : {makeFlit(1, 10), makeFlit(2, 20, 21),
                             makeFlit(3, 30), makeBoundary()}) {
        ASSERT_TRUE(q.canPop());
        EXPECT_EQ(q.front(), want);
        q.pop();
        q.commit();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.totalFlits(), 4u);
}

TEST(Queue, ReusedSlotLeaksNoStaleFields)
{
    // Two slots: after two flits pass, the ring wraps and each new flit
    // is built in a slot an older flit left behind.
    HardwareQueue q("q", 2);
    q.pushFlit(1, 11, 12, 13, 14);
    q.commit();
    q.pushBoundary();
    q.commit();
    for (int i = 0; i < 2; ++i) {
        q.pop();
        q.commit();
    }
    Flit &slot = q.emplace(); // the four-field flit's slot
    EXPECT_EQ(slot, Flit{});
    slot.key = 7;
    slot.pushField(70);
    q.commit();
    q.pushFlit(8, 80); // the boundary's slot
    q.commit();
    EXPECT_EQ(q.front(), makeFlit(7, 70));
    EXPECT_EQ(q.front().str(), makeFlit(7, 70).str());
    q.pop();
    q.commit();
    EXPECT_EQ(q.front(), makeFlit(8, 80));
    EXPECT_EQ(q.front().str(), makeFlit(8, 80).str());
}

/** @return the text of the PanicError `op` throws ("" if none). */
template <typename Op>
std::string
panicText(Op op)
{
    try {
        op();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(Queue, InPlacePushesPanicLikePush)
{
    setQuiet(true);
    HardwareQueue full("full", 1);
    full.push(makeFlit(1));
    full.commit();
    HardwareQueue pushed("pushed", 4);
    pushed.pushFlit(1);
    HardwareQueue closed("closed", 4);
    closed.close();
    closed.commit();
    const std::pair<HardwareQueue *, std::string> cases[] = {
        {&full, "panic: push to full queue 'full'"},
        {&pushed, "panic: push to full queue 'pushed'"},
        {&closed, "panic: push to closed queue 'closed'"},
    };
    for (const auto &[q, text] : cases) {
        EXPECT_EQ(panicText([q] { q->push(makeFlit(2)); }), text);
        EXPECT_EQ(panicText([q] { q->emplace(); }), text);
        EXPECT_EQ(panicText([q] { q->pushFlit(2, 3); }), text);
        EXPECT_EQ(panicText([q] { q->pushBoundary(); }), text);
    }
    setQuiet(false);
}

TEST(Queue, RingGrowsWhileWrappedKeepsFifoOrder)
{
    // HardwareQueue's ring never grows (pushes are capacity-gated); a
    // memory port's ring grows when one issue() splits past its depth,
    // usually after pops have wrapped the head. Growth must unwrap the
    // live elements in FIFO order.
    Ring<int> ring(4);
    int next_in = 0;
    int next_out = 0;
    // Five rounds leave one element in slot 2 of 4, so the pushes below
    // fill the ring across its end and then grow it.
    for (int round = 0; round < 5; ++round) {
        while (ring.size() < 3)
            ring.push_back(next_in++);
        ring.pop_front();
        ring.pop_front();
        next_out += 2;
    }
    for (int i = 0; i < 9; ++i)
        ring.push_back(next_in++);
    EXPECT_EQ(ring.back(), next_in - 1);
    while (!ring.empty()) {
        EXPECT_EQ(ring.front(), next_out++);
        ring.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(Arbiter, RoundRobinIsFair)
{
    RoundRobinArbiter arb(3);
    auto all = [](size_t) { return true; };
    EXPECT_EQ(arb.grant(all), 0);
    EXPECT_EQ(arb.grant(all), 1);
    EXPECT_EQ(arb.grant(all), 2);
    EXPECT_EQ(arb.grant(all), 0);
}

TEST(Arbiter, SkipsNonRequesting)
{
    RoundRobinArbiter arb(3);
    auto only2 = [](size_t i) { return i == 2; };
    EXPECT_EQ(arb.grant(only2), 2);
    EXPECT_EQ(arb.grant(only2), 2);
    auto none = [](size_t) { return false; };
    EXPECT_EQ(arb.grant(none), -1);
}

TEST(Arbiter, DistancePickAndTakeMatchGrant)
{
    // The memory system picks winners from its ready-head index as "the
    // accepted requester with the smallest distance()" and then take()s
    // it. For random sizes, pointer positions and predicates, that must
    // name grant()'s winner and leave the pointer where grant() leaves
    // it, including when nothing is accepted.
    uint64_t lcg = 2020;
    auto draw = [&lcg](uint64_t bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<size_t>((lcg >> 33) % bound);
    };
    for (int trial = 0; trial < 2000; ++trial) {
        const size_t n = 1 + draw(9);
        RoundRobinArbiter oracle(n);
        oracle.take(draw(n));
        RoundRobinArbiter picker = oracle;
        std::vector<char> wants(n);
        for (auto &w : wants)
            w = draw(3) == 0;
        auto requesting = [&wants](size_t i) { return wants[i] != 0; };

        int pick = -1;
        for (size_t i = 0; i < n; ++i) {
            if (requesting(i) &&
                (pick < 0 ||
                 picker.distance(i) <
                     picker.distance(static_cast<size_t>(pick)))) {
                pick = static_cast<int>(i);
            }
        }
        if (pick >= 0)
            picker.take(static_cast<size_t>(pick));

        const size_t start = oracle.nextIndex();
        EXPECT_EQ(pick, oracle.grant(requesting))
            << "n=" << n << " pointer=" << start;
        EXPECT_EQ(picker.nextIndex(), oracle.nextIndex())
            << "n=" << n << " pointer=" << start;
    }
}

TEST(Memory, ReadCompletesAfterLatency)
{
    MemoryConfig cfg;
    cfg.numChannels = 1;
    cfg.bytesPerCyclePerChannel = 16;
    cfg.latencyCycles = 10;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);
    port->issue(0, 64, false);
    uint64_t total = 0;
    int cycles = 0;
    while (total < 64 && cycles < 100) {
        mem.tick();
        total += port->takeCompletedReadBytes();
        ++cycles;
    }
    EXPECT_EQ(total, 64u);
    // 1 schedule cycle + 10 latency + 4 transfer cycles.
    EXPECT_GE(cycles, 14);
    EXPECT_LE(cycles, 16);
}

TEST(Memory, ChannelBandwidthBoundsThroughput)
{
    MemoryConfig cfg;
    cfg.numChannels = 1;
    cfg.bytesPerCyclePerChannel = 8;
    cfg.latencyCycles = 2;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);

    uint64_t issued = 0, completed = 0;
    const uint64_t goal = 64 * 20;
    uint64_t cycles = 0;
    while (completed < goal && cycles < 10'000) {
        while (issued < goal && port->canIssue()) {
            port->issue(issued, 64, false);
            issued += 64;
        }
        mem.tick();
        completed += port->takeCompletedReadBytes();
        ++cycles;
    }
    ASSERT_EQ(completed, goal);
    // At 8 B/cycle, 1280 bytes need at least 160 cycles; allow slack
    // for latency and the port-queue refill pattern.
    EXPECT_GE(cycles, goal / 8);
    EXPECT_LE(cycles, goal / 8 + 80);
}

TEST(Memory, MultipleChannelsServeInParallel)
{
    // Two ports hitting different channels should roughly double the
    // throughput of one port on one channel.
    auto run_case = [](int nports) {
        MemoryConfig cfg;
        cfg.numChannels = 4;
        cfg.bytesPerCyclePerChannel = 8;
        cfg.latencyCycles = 2;
        MemorySystem mem(cfg);
        std::vector<MemoryPort *> ports;
        for (int p = 0; p < nports; ++p)
            ports.push_back(mem.makePort(p));
        const uint64_t per_port = 64 * 40;
        std::vector<uint64_t> issued(static_cast<size_t>(nports), 0);
        std::vector<uint64_t> done(static_cast<size_t>(nports), 0);
        uint64_t cycles = 0;
        for (;;) {
            bool all_done = true;
            for (int p = 0; p < nports; ++p) {
                auto pi = static_cast<size_t>(p);
                while (issued[pi] < per_port && ports[pi]->canIssue()) {
                    // Stride across channels.
                    ports[pi]->issue(issued[pi] * 64 + pi * 64, 64,
                                     false);
                    issued[pi] += 64;
                }
                if (done[pi] < per_port)
                    all_done = false;
            }
            if (all_done || cycles > 100'000)
                break;
            mem.tick();
            for (int p = 0; p < nports; ++p) {
                done[static_cast<size_t>(p)] +=
                    ports[static_cast<size_t>(p)]
                        ->takeCompletedReadBytes();
            }
            ++cycles;
        }
        return cycles;
    };
    uint64_t one = run_case(1);
    uint64_t four = run_case(4);
    // 4 ports move 4x the data; with 4 channels it should take well
    // under 4x the time of the single-port case.
    EXPECT_LT(four, one * 3);
}

TEST(Memory, WritesRetire)
{
    MemorySystem mem{MemoryConfig{}};
    MemoryPort *port = mem.makePort(0);
    port->issue(128, 64, true);
    for (int i = 0; i < 100 && !port->idle(); ++i)
        mem.tick();
    EXPECT_TRUE(port->idle());
    EXPECT_EQ(port->retiredWriteBytes(), 64u);
}

TEST(Memory, PortQueueDepthEnforced)
{
    setQuiet(true);
    MemoryConfig cfg;
    cfg.portQueueDepth = 2;
    MemorySystem mem(cfg);
    MemoryPort *port = mem.makePort(0);
    port->issue(0, 64, false);
    port->issue(64, 64, false);
    EXPECT_FALSE(port->canIssue());
    EXPECT_THROW(port->issue(128, 64, false), PanicError);
    setQuiet(false);
}

TEST(Scratchpad, ReadWriteClear)
{
    Scratchpad spm("s", 16, 4);
    spm.write(3, 42);
    EXPECT_EQ(spm.read(3), 42);
    EXPECT_EQ(spm.sizeBytes(), 64u);
    spm.clear();
    EXPECT_EQ(spm.read(3), 0);
}

TEST(Scratchpad, OutOfRangePanics)
{
    setQuiet(true);
    Scratchpad spm("s", 4);
    EXPECT_THROW(spm.read(4), PanicError);
    EXPECT_THROW(spm.write(4, 1), PanicError);
    setQuiet(false);
}

TEST(Simulator, SourceToSinkDelivery)
{
    Simulator sim;
    auto *q = sim.makeQueue("q");
    std::vector<Flit> flits = {makeFlit(1, 10), makeFlit(2, 20),
                               makeBoundary(), makeFlit(3, 30)};
    sim.make<test::VectorSource>("src", q, flits);
    auto *sink = sim.make<test::VectorSink>("sink", q);
    sim.run();
    ASSERT_EQ(sink->collected().size(), 4u);
    EXPECT_EQ(sink->collected()[0].key, 1);
    EXPECT_TRUE(isBoundary(sink->collected()[2]));
    EXPECT_EQ(sink->dataFlits().size(), 3u);
}

TEST(Simulator, BackpressureThroughTinyQueue)
{
    Simulator sim;
    auto *q = sim.makeQueue("q", 1);
    std::vector<Flit> flits;
    for (int i = 0; i < 50; ++i)
        flits.push_back(makeFlit(i));
    sim.make<test::VectorSource>("src", q, flits);
    auto *sink = sim.make<test::VectorSink>("sink", q);
    uint64_t cycles = sim.run();
    EXPECT_EQ(sink->collected().size(), 50u);
    // Capacity-1 registered queue sustains at most one flit per two
    // cycles.
    EXPECT_GE(cycles, 100u);
}

TEST(Simulator, DeadlockDetected)
{
    setQuiet(true);
    // A sink waiting on a queue nobody ever closes is a deadlock.
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSink>("sink", q);
    EXPECT_THROW(sim.run(), PanicError);
    setQuiet(false);
}

TEST(Simulator, ReusedNamesPanic)
{
    setQuiet(true);
    // Names key the statistics, so a second module, queue or scratchpad
    // under a name its kind already uses would merge into the first's
    // counters.
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSink>("sink", q);
    sim.makeScratchpad("spm", 4);
    try {
        sim.makeQueue("q");
        ADD_FAILURE() << "a reused queue name was accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("queue name 'q'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(sim.make<test::VectorSink>("sink", q), PanicError);
    EXPECT_THROW(sim.makeScratchpad("spm", 4), PanicError);
    // Each kind has its own names: a module may share its queue's.
    EXPECT_NO_THROW(sim.make<test::VectorSink>("q", sim.makeQueue("q2")));
    setQuiet(false);
}

// Pops a flit, round-trips it through a memory read, then forwards it.
// With a long memory latency this leaves the design provably idle for
// most cycles — the idle-cycle fast-forward's target pattern.
class EchoThroughMemory final : public Module
{
  public:
    EchoThroughMemory(std::string name, MemoryPort *port,
                      HardwareQueue *in, HardwareQueue *out)
        : Module(std::move(name)), port_(port), in_(in), out_(out)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (waiting_) {
            if (port_->takeCompletedReadBytes() == 0) {
                countStall(stallMemory_);
                return;
            }
            noteProgress();
            waiting_ = false;
        }
        if (held_) {
            if (!out_->canPush()) {
                countStall(stallBackpressure_);
                return;
            }
            out_->push(*held_);
            held_.reset();
            countFlit();
            return;
        }
        if (!in_->canPop()) {
            if (in_->drained()) {
                out_->close();
                closed_ = true;
            }
            return;
        }
        held_ = in_->front();
        in_->pop();
        port_->issue(static_cast<uint64_t>(held_->key) * 64, 64, false);
        waiting_ = true;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    MemoryPort *port_;
    HardwareQueue *in_;
    HardwareQueue *out_;
    std::optional<Flit> held_;
    bool waiting_ = false;
    bool closed_ = false;
};

TEST(Simulator, WedgedDesignPanicsWithinHorizon)
{
    setQuiet(true);
    // A sink waiting on a queue nobody feeds or closes must hit the
    // deadlock horizon (10'000 + 100 * latency = 14'000 at the default
    // latency of 40), not spin to the runaway max_cycles bound.
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSink>("sink", q);
    try {
        sim.run();
        FAIL() << "expected a deadlock panic";
    } catch (const PanicError &) {
        EXPECT_GE(sim.cycle(), 14'000u);
        EXPECT_LE(sim.cycle(), 15'000u);
    }
    setQuiet(false);
}

TEST(Simulator, LongQuietButLegalDesignCompletes)
{
    // A memory latency far above the base horizon produces legal quiet
    // spans of ~60k cycles; the latency-scaled horizon (and the
    // fast-forward's progress accounting) must not misfire on them.
    MemoryConfig cfg;
    cfg.latencyCycles = 60'000;
    Simulator sim(cfg);
    auto *a = sim.makeQueue("a");
    auto *b = sim.makeQueue("b");
    auto *port = sim.memory().makePort(0);
    sim.make<test::VectorSource>(
        "src", a, std::vector<Flit>{makeFlit(1), makeFlit(2)});
    sim.make<EchoThroughMemory>("echo", port, a, b);
    auto *sink = sim.make<test::VectorSink>("sink", b);
    uint64_t cycles = sim.run();
    EXPECT_EQ(sink->collected().size(), 2u);
    EXPECT_GT(cycles, 120'000u); // two sequential 60k-cycle reads
}

TEST(Simulator, FastForwardMatchesCycleByCycle)
{
    // Same design, fast-forward on vs off: simulated cycle counts and
    // every aggregated statistic must be bit-identical.
    auto run_once = [] {
        MemoryConfig cfg;
        cfg.latencyCycles = 300;
        // Uniform access latency: the sequential addresses would
        // otherwise mostly hit open rows and halve the quiet spans.
        cfg.rowHitLatencyCycles = 300;
        Simulator sim(cfg);
        auto *a = sim.makeQueue("a", 2);
        auto *b = sim.makeQueue("b", 2);
        auto *port = sim.memory().makePort(0);
        std::vector<Flit> flits;
        for (int i = 0; i < 20; ++i)
            flits.push_back(makeFlit(i));
        sim.make<test::VectorSource>("src", a, flits);
        sim.make<EchoThroughMemory>("echo", port, a, b);
        sim.make<test::VectorSink>("sink", b);
        sim.run();
        return sim.collectStats().counters();
    };
    auto fast = run_once();
    ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
    auto slow = run_once();
    ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
    EXPECT_EQ(fast, slow);
    EXPECT_GT(fast.at("cycles"), 6'000u); // 20 reads x 300+ cycles
}

// Interns a counter in its first tick, after run() gathered the counter
// handles, then waits out one memory read.
class LateCounter final : public Module
{
  public:
    LateCounter(std::string name, MemoryPort *port)
        : Module(std::move(name)), port_(port)
    {
    }

    void
    tick() override
    {
        if (done_)
            return;
        if (!issued_) {
            statCounter("late");
            port_->issue(0, 64, false);
            issued_ = true;
            return;
        }
        if (port_->takeCompletedReadBytes() == 0) {
            countStall(stallMemory_);
            return;
        }
        done_ = true;
        noteProgress();
    }

    bool done() const override { return done_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    MemoryPort *port_;
    bool issued_ = false;
    bool done_ = false;
};

TEST(Simulator, CounterCreatedDuringRunPanicsAtFastForward)
{
    // The fast-forward credits the counters gathered when run() began;
    // one created later would silently miss its credit.
    setQuiet(true);
    MemoryConfig cfg;
    cfg.latencyCycles = 300;
    Simulator sim(cfg);
    sim.make<LateCounter>("late", sim.memory().makePort(0));
    try {
        sim.run();
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("created during run()"),
                  std::string::npos)
            << e.what();
    }
    setQuiet(false);
}

/** Sets an environment variable for the enclosing scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** An always-pass filter (key == key). */
modules::FilterConfig
passAllFilter()
{
    modules::FilterConfig cfg;
    cfg.lhs = modules::FilterOperand::key();
    cfg.op = modules::CompareOp::Eq;
    cfg.rhs = modules::FilterOperand::key();
    return cfg;
}

TEST(SleepWake, QueueCommitAndCloseWakeSleepers)
{
    // A Filter with an empty input declares itself blocked and leaves
    // the active set; a push commit and a close commit must each wake
    // it. Manual stepping keeps the deadlock detector out of the way.
    Simulator sim;
    auto *in = sim.makeQueue("in");
    auto *out = sim.makeQueue("out");
    auto *filter =
        sim.make<modules::Filter>("filter", in, out, passAllFilter());

    for (int i = 0; i < 3 && !filter->asleep(); ++i)
        sim.step();
    ASSERT_TRUE(filter->asleep());
    uint64_t slept_at = sim.cycle();
    for (int i = 0; i < 5; ++i)
        sim.step(); // nothing happens while it sleeps
    ASSERT_TRUE(filter->asleep());

    in->push(makeFlit(7));
    sim.step(); // the push commit wakes the filter
    EXPECT_FALSE(filter->asleep());
    EXPECT_GT(sim.cycle(), slept_at);
    for (int i = 0; i < 4 && !out->canPop(); ++i)
        sim.step();
    ASSERT_TRUE(out->canPop());
    EXPECT_EQ(out->front().key, 7);

    for (int i = 0; i < 3 && !filter->asleep(); ++i)
        sim.step(); // input empty again: back to sleep
    ASSERT_TRUE(filter->asleep());

    in->close();
    sim.step(); // the close commit wakes the filter
    EXPECT_FALSE(filter->asleep());
    for (int i = 0; i < 4 && !filter->done(); ++i)
        sim.step();
    EXPECT_TRUE(filter->done());
    EXPECT_TRUE(out->closed());
}

// EchoThroughMemory with the sleep/wake contract: every blocked tick
// names the event that can unblock it (memory retirement, queue commit).
class SleepyMemoryEcho final : public Module
{
  public:
    SleepyMemoryEcho(std::string name, MemoryPort *port,
                     HardwareQueue *in, HardwareQueue *out)
        : Module(std::move(name)), port_(port), in_(in), out_(out)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (waiting_) {
            if (port_->takeCompletedReadBytes() == 0) {
                countStall(stallMemory_);
                sleepOn(stallMemory_, {&port_->retireWaiters()});
                return;
            }
            noteProgress();
            waiting_ = false;
        }
        if (held_) {
            if (!out_->canPush()) {
                countStall(stallBackpressure_);
                sleepOn(stallBackpressure_, {&out_->waiters()});
                return;
            }
            out_->push(*held_);
            held_.reset();
            countFlit();
            return;
        }
        if (!in_->canPop()) {
            if (in_->drained()) {
                out_->close();
                closed_ = true;
            } else {
                sleepOn(nullptr, {&in_->waiters()});
            }
            return;
        }
        held_ = in_->front();
        in_->pop();
        port_->issue(static_cast<uint64_t>(held_->key) * 64, 64, false);
        waiting_ = true;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    MemoryPort *port_;
    HardwareQueue *in_;
    HardwareQueue *out_;
    std::optional<Flit> held_;
    bool waiting_ = false;
    bool closed_ = false;
};

TEST(SleepWake, MemoryRetireWakesAndStaysCycleExact)
{
    // A module sleeping on a 300-cycle memory read must be woken by
    // sub-request retirement, and the whole run must stay bit-identical
    // across every scheduling mode: sleep on/off x fast-forward on/off.
    auto run_once = [] {
        MemoryConfig cfg;
        cfg.latencyCycles = 300;
        cfg.rowHitLatencyCycles = 300;
        Simulator sim(cfg);
        auto *a = sim.makeQueue("a", 2);
        auto *b = sim.makeQueue("b", 2);
        auto *port = sim.memory().makePort(0);
        std::vector<Flit> flits;
        for (int i = 0; i < 20; ++i)
            flits.push_back(makeFlit(i));
        sim.make<test::VectorSource>("src", a, flits);
        sim.make<SleepyMemoryEcho>("echo", port, a, b);
        sim.make<test::VectorSink>("sink", b);
        sim.run();
        return sim.collectStats().counters();
    };
    auto base = run_once();
    {
        ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
        EXPECT_EQ(base, run_once());
    }
    {
        ScopedEnv no_ff("GENESIS_SIM_NO_FASTFORWARD", "1");
        EXPECT_EQ(base, run_once());
    }
    {
        ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
        ScopedEnv no_ff("GENESIS_SIM_NO_FASTFORWARD", "1");
        EXPECT_EQ(base, run_once());
    }
    // The slept spans are credited to the stall bucket: ~300 stall
    // cycles per read, exactly as a spinning module would count.
    EXPECT_GE(base.at("echo.stall.memory"), 300u);
    EXPECT_GT(base.at("cycles"), 6'000u);
}

// Sleeps on the SPM hazard scoreboard while a given address is under an
// in-flight read-modify-write. The updater releases the address mid-tick:
// a waiter ticked before it wakes for the next cycle, one ticked after it
// in the same cycle.
class HazardWaiter final : public Module
{
  public:
    HazardWaiter(std::string name, Scratchpad *spm, size_t addr)
        : Module(std::move(name)), spm_(spm), addr_(addr)
    {
    }

    void
    tick() override
    {
        if (done_)
            return;
        if (spm_->hazardHeld(addr_)) {
            sawHeld_ = true;
            countStall(stallHazard_);
            sleepOn(stallHazard_, {&spm_->hazardWaiters()});
            return;
        }
        if (sawHeld_) {
            done_ = true;
            noteProgress();
        }
    }

    bool done() const override { return done_; }
    bool sawHeld() const { return sawHeld_; }

  private:
    StatHandle stallHazard_ = stallCounter("hazard");
    Scratchpad *spm_;
    size_t addr_;
    bool sawHeld_ = false;
    bool done_ = false;
};

TEST(SleepWake, HazardClearanceWakesAndStaysCycleExact)
{
    auto run_once = [](bool waiter_first, bool *saw_held) {
        Simulator sim;
        auto *spm = sim.makeScratchpad("spm", 16);
        auto *in = sim.makeQueue("in");
        sim.make<test::VectorSource>(
            "src", in, std::vector<Flit>{makeFlit(5)});
        HazardWaiter *waiter = nullptr;
        if (waiter_first)
            waiter = sim.make<HazardWaiter>("waiter", spm, 5);
        modules::SpmUpdaterConfig ucfg;
        ucfg.mode = modules::SpmUpdateMode::ReadModifyWrite;
        sim.make<modules::SpmUpdater>("updater", spm, in, ucfg);
        if (!waiter_first)
            waiter = sim.make<HazardWaiter>("waiter", spm, 5);
        sim.run();
        if (saw_held)
            *saw_held = waiter->sawHeld();
        EXPECT_TRUE(waiter->done());
        EXPECT_EQ(spm->read(5), 1); // the RMW increment landed
        return sim.collectStats().counters();
    };
    for (bool waiter_first : {true, false}) {
        SCOPED_TRACE(waiter_first ? "waiter first" : "updater first");
        bool saw_held = false;
        auto base = run_once(waiter_first, &saw_held);
        EXPECT_TRUE(saw_held); // the hazard window was actually observed
        ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
        EXPECT_EQ(base, run_once(waiter_first, nullptr));
    }
}

// Finishes during its own tick at `finish_cycle`: done() flips mid-tick,
// as an RMW SPM updater's does when its last write-back lands.
class FinishAtCycle final : public Module
{
  public:
    FinishAtCycle(std::string name, const Simulator *sim,
                  uint64_t finish_cycle)
        : Module(std::move(name)), sim_(sim), finishCycle_(finish_cycle)
    {
    }

    void
    tick() override
    {
        if (done_)
            return;
        noteProgress();
        done_ = sim_->cycle() == finishCycle_;
    }

    bool done() const override { return done_; }

  private:
    const Simulator *sim_;
    uint64_t finishCycle_;
    bool done_ = false;
};

// Done once its input queue drains: done() flips at a queue commit.
class DrainToDone final : public Module
{
  public:
    DrainToDone(std::string name, HardwareQueue *in)
        : Module(std::move(name)), in_(in)
    {
    }

    void
    tick() override
    {
        if (in_->canPop()) {
            in_->pop();
            countFlit();
        }
    }

    bool done() const override { return in_->drained(); }

  private:
    HardwareQueue *in_;
};

// Waits for another module's done() the way an SPM reader waits for its
// preload: one stall per blocked cycle, asleep on the done list. Records
// the cycle in which it saw the module done.
class DoneWaiter final : public Module
{
  public:
    DoneWaiter(std::string name, const Simulator *sim, Module *target)
        : Module(std::move(name)), sim_(sim), target_(target)
    {
    }

    void
    tick() override
    {
        if (started_)
            return;
        if (!target_->done()) {
            countStall(stallWait_);
            sleepOn(stallWait_, {&target_->doneWaiters()});
            return;
        }
        started_ = true;
        startCycle_ = sim_->cycle();
        noteProgress();
    }

    bool done() const override { return started_; }
    uint64_t startCycle() const { return startCycle_; }

  private:
    StatHandle stallWait_ = stallCounter("wait");
    const Simulator *sim_;
    Module *target_;
    bool started_ = false;
    uint64_t startCycle_ = 0;
};

/** What a done-wait run must reproduce exactly with sleep disabled. */
struct DoneWaitRun {
    uint64_t waiterStart = 0;
    std::map<std::string, uint64_t> counters;
    std::string trace;
    uint64_t moduleTicks = 0;
};

/** Run, traced, a design whose target module `make_target` builds
 *  (unadded), with a DoneWaiter added just before or just after it. */
template <typename MakeTarget>
DoneWaitRun
runDoneWait(bool waiter_first, MakeTarget make_target)
{
    Simulator sim;
    TraceSink trace;
    sim.attachTrace(&trace, "done_wait");
    std::unique_ptr<Module> target = make_target(sim);
    Module *waited_on = target.get();
    DoneWaiter *waiter = nullptr;
    if (waiter_first)
        waiter = sim.make<DoneWaiter>("waiter", &sim, waited_on);
    sim.addModule(std::move(target));
    if (!waiter_first)
        waiter = sim.make<DoneWaiter>("waiter", &sim, waited_on);
    sim.run();
    trace.finish();
    std::ostringstream json;
    trace.writeJson(json);
    return {waiter->startCycle(), sim.collectStats().counters(),
            json.str(), sim.moduleTicks()};
}

/** Run with and without GENESIS_SIM_NO_SLEEP=1; the runs must agree on
 *  the waiter's start cycle, every counter and every trace byte, while
 *  the sleeping waiter ticks less. @return the sleeping run. */
template <typename MakeTarget>
DoneWaitRun
expectDoneWaitExact(bool waiter_first, MakeTarget make_target)
{
    const DoneWaitRun slept = runDoneWait(waiter_first, make_target);
    ScopedEnv no_sleep("GENESIS_SIM_NO_SLEEP", "1");
    const DoneWaitRun spun = runDoneWait(waiter_first, make_target);
    EXPECT_EQ(slept.waiterStart, spun.waiterStart);
    EXPECT_EQ(slept.counters, spun.counters);
    EXPECT_EQ(slept.trace, spun.trace);
    EXPECT_LT(slept.moduleTicks, spun.moduleTicks);
    return slept;
}

std::unique_ptr<Module>
finishAtCycle50(Simulator &sim)
{
    return std::make_unique<FinishAtCycle>("finisher", &sim, 50);
}

TEST(SleepWake, DoneWaiterAfterTheFinisherStartsInTheFlipCycle)
{
    // done() flips during the finisher's tick at cycle 50; a waiter that
    // ticks after it reads the flip live in that cycle, so the done
    // event admits it into cycle 50 and credits cycles 1..49.
    const DoneWaitRun run = expectDoneWaitExact(false, finishAtCycle50);
    EXPECT_EQ(run.waiterStart, 50u);
    EXPECT_EQ(run.counters.at("waiter.stall.wait"), 50u);
}

TEST(SleepWake, DoneWaiterBeforeTheFinisherStartsInTheNextCycle)
{
    // A waiter that ticks before the finisher already ran cycle 50, so
    // it sees the flip in cycle 51 and counts cycle 50 as a stall too.
    const DoneWaitRun run = expectDoneWaitExact(true, finishAtCycle50);
    EXPECT_EQ(run.waiterStart, 51u);
    EXPECT_EQ(run.counters.at("waiter.stall.wait"), 51u);
}

TEST(SleepWake, DoneFlipAtQueueCommitStartsEveryWaiterInTheNextCycle)
{
    // The source pushes 40 flits in cycles 0..39 and closes in cycle 40;
    // the drainer pops the last flit in cycle 40 too, and both commit at
    // the end of it. done() flips at that commit, after every tick, so
    // waiters on either side of the drainer start in cycle 41.
    auto make_drainer = [](Simulator &sim) -> std::unique_ptr<Module> {
        auto *in = sim.makeQueue("in");
        std::vector<Flit> flits;
        for (int i = 0; i < 40; ++i)
            flits.push_back(makeFlit(i));
        sim.make<test::VectorSource>("src", in, flits);
        return std::make_unique<DrainToDone>("drainer", in);
    };
    for (bool waiter_first : {true, false}) {
        SCOPED_TRACE(waiter_first ? "waiter first" : "drainer first");
        const DoneWaitRun run =
            expectDoneWaitExact(waiter_first, make_drainer);
        EXPECT_EQ(run.waiterStart, 41u);
        EXPECT_EQ(run.counters.at("waiter.stall.wait"), 41u);
    }
}

TEST(SleepWake, ProvableDeadlockReportedImmediately)
{
    setQuiet(true);
    // Every module asleep + no pending memory event is a proven
    // deadlock: nothing can ever wake. The scheduler must report it
    // immediately (not after the 14k-cycle horizon) and name the
    // sleepers and the resources they await.
    Simulator sim;
    auto *in = sim.makeQueue("in"); // never fed, never closed
    auto *out = sim.makeQueue("out");
    auto *filter =
        sim.make<modules::Filter>("filter", in, out, passAllFilter());
    sim.make<DoneWaiter>("waiter", &sim, filter);
    try {
        sim.run();
        FAIL() << "expected a deadlock panic";
    } catch (const PanicError &e) {
        EXPECT_LT(sim.cycle(), 100u);
        std::string msg = e.what();
        EXPECT_NE(msg.find("no module can ever wake"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("ASLEEP"), std::string::npos) << msg;
        EXPECT_NE(msg.find("queue in"), std::string::npos) << msg;
        EXPECT_NE(msg.find("module filter done"), std::string::npos)
            << msg;
    }
    setQuiet(false);
}

TEST(Simulator, CollectStatsAggregates)
{
    Simulator sim;
    auto *q = sim.makeQueue("q");
    sim.make<test::VectorSource>("src", q,
                                 std::vector<Flit>{makeFlit(1)});
    sim.make<test::VectorSink>("sink", q);
    sim.run();
    StatRegistry stats = sim.collectStats();
    EXPECT_GT(stats.get("cycles"), 0u);
    EXPECT_EQ(stats.get("queue.q.flits"), 1u);
}

} // namespace
} // namespace genesis::sim
