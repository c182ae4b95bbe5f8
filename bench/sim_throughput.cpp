/**
 * @file
 * Simulator-core throughput bench.
 *
 * Measures how many simulated cycles the event-aware core retires per
 * host second, in two regimes:
 *
 *  - "synthetic": a pure-sim producer/worker/sink chain with a long
 *    memory-bound tail, exercising the hot loop (interned counters,
 *    dirty-queue commit, idle-cycle fast-forward) without any genomics
 *    payload work;
 *  - "example_accel": the match-count ExampleAccelerator on the shared
 *    bench workload, i.e. a full design the other benches run.
 *
 * Output is one JSON object per line so CI and scripts can trend the
 * numbers (host Mcycles/s and simulated cycles per wall second), with
 * the simulator's work counters: module ticks and fast-forwarded
 * cycles, which depend on the scheduler but not on the host.
 *
 * Pass `--trace out.json` to also capture a cycle trace of the
 * synthetic scenario (Chrome trace-event JSON for Perfetto). The traced
 * run is timed separately so the untraced numbers stay comparable.
 */

#include <cinttypes>
#include <cstring>

#include "base/trace.h"
#include "bench_common.h"
#include "core/example_accel.h"
#include "sim/scheduler.h"

using namespace genesis;

namespace {

/** Streams `count` flits into its output queue, one per cycle. */
class Producer final : public sim::Module
{
  public:
    Producer(std::string name, sim::HardwareQueue *out, uint64_t count)
        : Module(std::move(name)), out_(out), remaining_(count)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (!out_->canPush()) {
            countStall(stallBackpressure_);
            return;
        }
        if (remaining_ == 0) {
            out_->close();
            closed_ = true;
            return;
        }
        out_->pushFlit(static_cast<int64_t>(remaining_));
        countFlit();
        --remaining_;
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    sim::HardwareQueue *out_;
    uint64_t remaining_;
    bool closed_ = false;
};

/**
 * Forwards flits while issuing a memory read for every `stride`-th one,
 * stalling until the read retires — the memory-latency-bound pattern the
 * idle-cycle fast-forward targets.
 */
class MemoryBoundWorker final : public sim::Module
{
  public:
    MemoryBoundWorker(std::string name, sim::MemoryPort *port,
                      sim::HardwareQueue *in, sim::HardwareQueue *out,
                      uint64_t stride)
        : Module(std::move(name)), port_(port), in_(in), out_(out),
          stride_(stride)
    {
    }

    void
    tick() override
    {
        if (closed_)
            return;
        if (waitingBytes_ > 0) {
            uint64_t got = port_->takeCompletedReadBytes();
            if (got) {
                waitingBytes_ -= std::min(waitingBytes_, got);
                noteProgress();
            }
            if (waitingBytes_ > 0) {
                countStall(stallMemory_);
                return;
            }
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
        out_->push(in_->front());
        countFlit();
        if (++seen_ % stride_ == 0 && port_->canIssue()) {
            port_->issue(seen_ * 64, 64, false);
            waitingBytes_ += 64;
        }
    }

    bool done() const override { return closed_; }

  private:
    StatHandle stallMemory_ = stallCounter("memory");
    StatHandle stallStarved_ = stallCounter("starved");
    StatHandle stallBackpressure_ = stallCounter("backpressure");
    sim::MemoryPort *port_;
    sim::HardwareQueue *in_;
    sim::HardwareQueue *out_;
    uint64_t stride_;
    uint64_t seen_ = 0;
    uint64_t waitingBytes_ = 0;
    bool closed_ = false;
};

/** Drains its input queue. */
class Sink final : public sim::Module
{
  public:
    Sink(std::string name, sim::HardwareQueue *in)
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
    sim::HardwareQueue *in_;
};

/** Simulated cycles and the simulator's work counters of one run. */
struct SimWork {
    uint64_t cycles = 0;
    uint64_t moduleTicks = 0;
    uint64_t fastForwardedCycles = 0;
};

void
printResult(const char *scenario, const SimWork &work, double seconds)
{
    const double cycles = static_cast<double>(work.cycles);
    std::printf("{\"bench\": \"sim_throughput\", "
                "\"scenario\": \"%s\", "
                "\"sim_cycles\": %" PRIu64 ", "
                "\"module_ticks\": %" PRIu64 ", "
                "\"fast_forwarded_cycles\": %" PRIu64 ", "
                "\"host_seconds\": %.6f, "
                "\"host_mcycles_per_s\": %.3f, "
                "\"sim_cycles_per_wall_s\": %.1f}\n",
                scenario, work.cycles, work.moduleTicks,
                work.fastForwardedCycles, seconds,
                seconds > 0 ? cycles / seconds / 1e6 : 0.0,
                seconds > 0 ? cycles / seconds : 0.0);
}

SimWork
runSynthetic(uint64_t flits, uint64_t stride,
             TraceSink *trace = nullptr)
{
    sim::MemoryConfig mem;
    mem.latencyCycles = 400; // long tail: fast-forward territory
    sim::Simulator simulator(mem);
    if (trace)
        simulator.attachTrace(trace, "synthetic");
    auto *a = simulator.makeQueue("a", 8);
    auto *b = simulator.makeQueue("b", 8);
    auto *port = simulator.memory().makePort(0);
    simulator.make<Producer>("producer", a, flits);
    simulator.make<MemoryBoundWorker>("worker", port, a, b, stride);
    simulator.make<Sink>("sink", b);
    simulator.run();
    return {simulator.cycle(), simulator.moduleTicks(),
            simulator.fastForwardedCycles()};
}

} // namespace

int
main(int argc, char **argv)
{
    const char *trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace out.json]\n", argv[0]);
            return 2;
        }
    }

    // Pure simulator-core throughput, no genomics payload.
    constexpr uint64_t kFlits = 200'000;
    constexpr uint64_t kStride = 4;
    {
        SimWork work;
        double seconds = bench::timeIt(
            [&] { work = runSynthetic(kFlits, kStride); });
        printResult("synthetic", work, seconds);
    }

    // Same scenario with tracing enabled: quantifies observer cost and
    // produces a trace file for Perfetto.
    if (trace_path) {
        TraceSink trace;
        SimWork work;
        double seconds = bench::timeIt([&] {
            work = runSynthetic(kFlits, kStride, &trace);
        });
        printResult("synthetic_traced", work, seconds);
        trace.finish();
        if (!trace.writeJsonFile(trace_path)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_path);
            return 1;
        }
        std::fprintf(stderr, "trace written to %s\n%s", trace_path,
                     trace.utilizationSummary().c_str());
    }

    // A full accelerator design, same workload the other benches use.
    {
        auto workload = bench::makeBenchWorkload(bench::envPairs() / 4);
        core::ExampleAccelConfig cfg;
        cfg.numPipelines = 8;
        cfg.psize = 16'384;
        SimWork work;
        double seconds = bench::timeIt([&] {
            auto result = core::ExampleAccelerator(cfg).run(
                workload.reads, workload.genome);
            work = {result.info.totalCycles, result.info.moduleTicks,
                    result.info.fastForwardedCycles};
        });
        printResult("example_accel", work, seconds);
    }
    return 0;
}
