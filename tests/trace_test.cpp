/**
 * @file
 * Tests for the cycle-accurate tracing subsystem.
 *
 * Three layers: TraceSink span/counter mechanics in isolation; trace
 * capture wired through a small simulated design (spans, counters,
 * async memory lifetimes, JSON export); and the observer-effect
 * regression — tracing on vs off must give bit-identical cycle counts
 * and statistics, and traces captured with the idle-cycle fast-forward
 * enabled must agree span-for-span with a cycle-by-cycle run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "base/trace.h"
#include "core/metadata_accel.h"
#include "sim/scheduler.h"
#include "sim_test_utils.h"

namespace genesis {
namespace {

// --- TraceSink mechanics ------------------------------------------------

TEST(TraceSink, MarksCoalesceAndGapsSynthesizeIdle)
{
    TraceSink t;
    int pid = t.beginProcess("p");
    int tr = t.addSpanTrack(pid, "m");
    t.mark(tr, 0, TraceSink::kStateBusy);
    t.mark(tr, 1, TraceSink::kStateBusy);
    t.mark(tr, 2, TraceSink::kStateBusy);
    t.mark(tr, 10, TraceSink::kStateBusy);
    t.finish();
    // busy [0,3), synthesized idle [3,10), busy [10,11).
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.stateCycles(tr, TraceSink::kStateBusy), 4u);
    EXPECT_EQ(t.stateCycles(tr, TraceSink::kStateIdle), 7u);
}

TEST(TraceSink, SameCycleRemarkKeepsMostSignificantState)
{
    TraceSink t;
    int pid = t.beginProcess("p");
    int tr = t.addSpanTrack(pid, "m");
    TraceSink::StateId stall = t.internState("stall.mem");

    // Upgrade: stall then busy on the same cycle -> busy wins.
    t.mark(tr, 0, stall);
    t.mark(tr, 0, TraceSink::kStateBusy);
    // Downgrade attempt: busy then stall -> stays busy.
    t.mark(tr, 1, TraceSink::kStateBusy);
    t.mark(tr, 1, stall);
    t.finish();
    EXPECT_EQ(t.stateCycles(tr, TraceSink::kStateBusy), 2u);
    EXPECT_EQ(t.stateCycles(tr, stall), 0u);
}

TEST(TraceSink, SameCycleUpgradeSplitsMultiCycleSpan)
{
    TraceSink t;
    int pid = t.beginProcess("p");
    int tr = t.addSpanTrack(pid, "m");
    TraceSink::StateId stall = t.internState("stall.mem");
    t.mark(tr, 0, stall);
    t.mark(tr, 1, stall);
    t.mark(tr, 1, TraceSink::kStateBusy); // upgrade only cycle 1
    t.finish();
    EXPECT_EQ(t.stateCycles(tr, stall), 1u);
    EXPECT_EQ(t.stateCycles(tr, TraceSink::kStateBusy), 1u);
}

TEST(TraceSink, CreditSkippedExtendsOnlySpansOpenAtTheSample)
{
    TraceSink t;
    int pid = t.beginProcess("p");
    int stale = t.addSpanTrack(pid, "stale");
    int live = t.addSpanTrack(pid, "live");
    t.mark(stale, 0, TraceSink::kStateBusy); // span end = 1
    t.mark(live, 0, TraceSink::kStateBusy);
    t.mark(live, 1, TraceSink::kStateBusy); // span end = 2
    t.creditSkipped(2, 10);                 // only `live` qualifies
    t.finish();
    EXPECT_EQ(t.stateCycles(stale, TraceSink::kStateBusy), 1u);
    EXPECT_EQ(t.stateCycles(live, TraceSink::kStateBusy), 12u);
}

TEST(TraceSink, CounterDedupsAndRateLimits)
{
    TraceSink t;
    t.setCounterInterval(10);
    int pid = t.beginProcess("p");
    int tr = t.addCounterTrack(pid, "q");
    t.counter(tr, 0, 1);  // emitted
    t.counter(tr, 1, 1);  // duplicate value: dropped
    t.counter(tr, 3, 2);  // within interval: held back
    t.counter(tr, 12, 3); // due again: emitted
    t.counter(tr, 14, 4); // held back, flushed by finish()
    size_t before_finish = t.numEvents();
    EXPECT_EQ(before_finish, 2u);
    t.finish();
    EXPECT_EQ(t.numEvents(), 3u);
}

TEST(TraceSink, ProcessNamesDeduplicate)
{
    TraceSink t;
    t.beginProcess("batch");
    t.beginProcess("batch");
    t.beginProcess("batch");
    EXPECT_EQ(t.numProcesses(), 3u);
}

TEST(TraceSink, AdoptMergesRemapsAndResetsChild)
{
    TraceSink parent;
    int ppid = parent.beginProcess("main");
    int ptrack = parent.addSpanTrack(ppid, "m");
    parent.mark(ptrack, 0, TraceSink::kStateBusy);

    TraceSink child;
    int cpid = child.beginProcess("shard");
    int ctrack = child.addSpanTrack(cpid, "w");
    TraceSink::StateId stall = child.internState("stall.mem");
    child.mark(ctrack, 0, TraceSink::kStateBusy);
    child.mark(ctrack, 1, stall);
    int ccounter = child.addCounterTrack(cpid, "q");
    child.counter(ccounter, 0, 7);
    int casync = child.addAsyncTrack(cpid, "mem");
    uint64_t id = child.newAsyncId();
    child.asyncBegin(casync, id, 0, stall);
    child.asyncEnd(casync, id, 2, stall);

    parent.adopt(child);
    parent.finish();

    EXPECT_EQ(parent.numProcesses(), 2u);
    // The child's recordings are reachable under remapped track/state
    // ids, reading as if recorded into the parent directly.
    std::map<std::string, uint64_t> totals;
    for (const auto &span : parent.spans()) {
        totals[parent.trackProcess(span.track) + "/" +
               parent.trackName(span.track) + "/" +
               parent.stateName(span.state)] += span.end - span.begin;
    }
    EXPECT_EQ(totals.at("main/m/busy"), 1u);
    EXPECT_EQ(totals.at("shard/w/busy"), 1u);
    EXPECT_EQ(totals.at("shard/w/stall.mem"), 1u);
    EXPECT_GE(parent.numEvents(), 3u); // counter + async begin/end

    // The child came back empty and reusable.
    EXPECT_EQ(child.numProcesses(), 0u);
    EXPECT_TRUE(child.spans().empty());
    EXPECT_EQ(child.numEvents(), 0u);
}

TEST(TraceSink, AdoptDeduplicatesRepeatedProcessNames)
{
    TraceSink parent;
    for (int round = 0; round < 3; ++round) {
        TraceSink child;
        int pid = child.beginProcess("pipeline0");
        int track = child.addSpanTrack(pid, "m");
        child.mark(track, 0, TraceSink::kStateBusy);
        parent.adopt(child);
        // Adopting the now-reset child again must be a harmless no-op.
        parent.adopt(child);
    }
    parent.finish();
    EXPECT_EQ(parent.numProcesses(), 3u);
    EXPECT_EQ(parent.spans().size(), 3u);
}

TEST(TraceSink, UtilizationSummaryNamesTopStall)
{
    TraceSink t;
    int pid = t.beginProcess("design");
    int tr = t.addSpanTrack(pid, "worker");
    TraceSink::StateId stall = t.internState("stall.backpressure");
    t.mark(tr, 0, TraceSink::kStateBusy);
    for (uint64_t c = 1; c < 9; ++c)
        t.mark(tr, c, stall);
    t.mark(tr, 9, TraceSink::kStateBusy);
    t.finish();
    std::string summary = t.utilizationSummary();
    EXPECT_NE(summary.find("design"), std::string::npos);
    EXPECT_NE(summary.find("worker"), std::string::npos);
    EXPECT_NE(summary.find("stall.backpressure"), std::string::npos);
}

// --- capture through a simulated design ---------------------------------

/** Forwards flits, issuing a memory read for each and waiting on it. */
class TracedWorker final : public sim::Module
{
  public:
    TracedWorker(std::string name, sim::MemoryPort *port,
                 sim::HardwareQueue *in, sim::HardwareQueue *out)
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
            waiting_ = false;
            noteProgress();
        }
        if (!in_->canPop()) {
            if (in_->drained() && port_->idle()) {
                out_->close();
                closed_ = true;
            } else if (!in_->drained()) {
                countStall(stallStarved_);
            }
            return;
        }
        if (!out_->canPush()) {
            countStall(stallBackpressure_);
            return;
        }
        in_->pop();
        const sim::Flit &flit = out_->push(in_->front());
        countFlit();
        port_->issue(static_cast<uint64_t>(flit.key) * 64, 64, false);
        waiting_ = true;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    StatHandle stallStarved_ = stallCounter("starved");
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    sim::MemoryPort *port_;
    sim::HardwareQueue *in_;
    sim::HardwareQueue *out_;
    bool waiting_ = false;
    bool closed_ = false;
};

struct SmallRun {
    uint64_t cycles = 0;
    StatRegistry stats;
};

/** Run the memory-bound chain, optionally traced. */
SmallRun
runSmallDesign(TraceSink *trace, int flit_count = 40,
               uint32_t latency = 200)
{
    sim::MemoryConfig mem;
    mem.latencyCycles = latency; // long quiet spans: fast-forwardable
    sim::Simulator simulator(mem);
    if (trace)
        simulator.attachTrace(trace, "small");
    auto *a = simulator.makeQueue("a", 4);
    auto *b = simulator.makeQueue("b", 4);
    auto *port = simulator.memory().makePort(0);
    std::vector<sim::Flit> flits;
    for (int i = 0; i < flit_count; ++i)
        flits.push_back(sim::makeFlit(i));
    simulator.make<test::VectorSource>("src", a, std::move(flits));
    simulator.make<TracedWorker>("worker", port, a, b);
    simulator.make<test::VectorSink>("sink", b);
    SmallRun r;
    r.cycles = simulator.run();
    r.stats = simulator.collectStats();
    return r;
}

/** Per-(track,state) cycle totals, keyed by name for comparability. */
std::map<std::string, uint64_t>
spanTotals(const TraceSink &t)
{
    std::map<std::string, uint64_t> totals;
    for (const auto &span : t.spans()) {
        totals[t.trackName(span.track) + "/" +
               t.stateName(span.state)] += span.end - span.begin;
    }
    return totals;
}

TEST(TraceCapture, SpansCountersAndAsyncEventsRecorded)
{
    TraceSink trace;
    SmallRun r = runSmallDesign(&trace);
    trace.finish();

    EXPECT_GT(r.cycles, 0u);
    EXPECT_FALSE(trace.spans().empty());
    EXPECT_GT(trace.numEvents(), 0u);

    auto totals = spanTotals(trace);
    // The worker processed every flit (busy) and waited on memory; the
    // stall-reason state carries the interned counter name.
    EXPECT_GE(totals.at("worker/busy"), 40u);
    EXPECT_GT(totals.at("worker/stall.memory"), 0u);

    // Async lifetimes: one begin and one end per memory request.
    std::ostringstream os;
    trace.writeJson(os);
    std::string json = os.str();
    auto count_of = [&json](const std::string &needle) {
        size_t n = 0;
        for (size_t at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + needle.size())) {
            ++n;
        }
        return n;
    };
    EXPECT_EQ(count_of("\"ph\":\"b\""), 40u);
    EXPECT_EQ(count_of("\"ph\":\"e\""), 40u);
    EXPECT_EQ(count_of("\"ph\":\"n\""), 40u);
    EXPECT_GT(count_of("\"ph\":\"X\""), 0u);
    EXPECT_GT(count_of("\"ph\":\"C\""), 0u);
    EXPECT_GT(count_of("process_name"), 0u);
}

TEST(TraceCapture, WriteJsonFileProducesLoadableSkeleton)
{
    TraceSink trace;
    runSmallDesign(&trace, 10);
    trace.finish();
    std::string path = ::testing::TempDir() + "genesis_trace_test.json";
    ASSERT_TRUE(trace.writeJsonFile(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string json = buf.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    ASSERT_GE(json.size(), 4u);
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
    std::remove(path.c_str());
}

// --- observer effect ----------------------------------------------------

TEST(TraceObserver, TracingDoesNotChangeCyclesOrStats)
{
    SmallRun off = runSmallDesign(nullptr);
    TraceSink trace;
    SmallRun on = runSmallDesign(&trace);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.stats.counters(), on.stats.counters());
}

TEST(TraceObserver, AcceleratorRunBitIdenticalWithTracing)
{
    auto w = test::makeSmallWorkload(11, 150, 30'000, 1);

    core::MetadataAccelConfig cfg;
    cfg.numPipelines = 2;
    cfg.psize = 8'192;
    auto hw_off = w.reads.reads;
    auto off = core::MetadataAccelerator(cfg).run(hw_off, w.genome);

    TraceSink trace;
    core::MetadataAccelConfig traced_cfg = cfg;
    traced_cfg.runtime.trace = &trace;
    traced_cfg.runtime.traceLabel = "metadata";
    auto hw_on = w.reads.reads;
    auto on = core::MetadataAccelerator(traced_cfg).run(hw_on, w.genome);
    trace.finish();

    // Simulated time and every statistic must be bit-identical; the
    // tagged reads must agree byte-for-byte.
    EXPECT_EQ(off.info.totalCycles, on.info.totalCycles);
    EXPECT_EQ(off.info.stats.counters(), on.info.stats.counters());
    ASSERT_EQ(hw_off.size(), hw_on.size());
    for (size_t i = 0; i < hw_off.size(); ++i) {
        EXPECT_EQ(hw_off[i].nmTag, hw_on[i].nmTag);
        EXPECT_EQ(hw_off[i].mdTag, hw_on[i].mdTag);
        EXPECT_EQ(hw_off[i].uqTag, hw_on[i].uqTag);
    }
    // And the trace actually captured the batches.
    EXPECT_GT(trace.numProcesses(), 0u);
    EXPECT_FALSE(trace.spans().empty());
}

// --- fast-forward composition -------------------------------------------

TEST(TraceCompose, FastForwardTraceMatchesCycleByCycleTrace)
{
    // Capture the same design twice: once with the idle-cycle
    // fast-forward active, once cycle-by-cycle via the escape hatch.
    // Every (track, state) cycle total must agree exactly — skipped
    // spans are credited, not lost.
    TraceSink ff_trace;
    SmallRun ff = runSmallDesign(&ff_trace, 40, 400);
    ff_trace.finish();

    ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
    TraceSink slow_trace;
    SmallRun slow = runSmallDesign(&slow_trace, 40, 400);
    ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
    slow_trace.finish();

    EXPECT_EQ(ff.cycles, slow.cycles);
    EXPECT_EQ(ff.stats.counters(), slow.stats.counters());
    EXPECT_EQ(spanTotals(ff_trace), spanTotals(slow_trace));
    // The memory-bound design spends most of its time waiting, so the
    // fast-forward must have found long stall spans to credit.
    auto totals = spanTotals(ff_trace);
    EXPECT_GT(totals.at("worker/stall.memory"), ff.cycles / 2);
}

} // namespace
} // namespace genesis
