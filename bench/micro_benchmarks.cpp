/**
 * @file
 * Google-benchmark microbenchmarks for the performance-critical library
 * primitives: CIGAR handling, read explosion, the software baselines,
 * the SQL engine, and raw simulator throughput. These quantify the cost
 * of each layer rather than reproduce a paper figure.
 */

#include <benchmark/benchmark.h>

#include "core/example_accel.h"
#include "engine/executor.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "genome/read_simulator.h"
#include "modules/reducer.h"
#include "sql/parser.h"
#include "table/genomic_schema.h"

namespace genesis {
namespace {

struct SharedWorkload {
    genome::ReferenceGenome genome;
    std::vector<genome::AlignedRead> reads;
};

const SharedWorkload &
workload()
{
    static SharedWorkload w = [] {
        SharedWorkload out;
        genome::SyntheticGenomeConfig gcfg;
        gcfg.numChromosomes = 2;
        gcfg.firstChromosomeLength = 200'000;
        out.genome = genome::ReferenceGenome::synthesize(gcfg);
        genome::ReadSimulatorConfig rcfg;
        rcfg.numPairs = 2'000;
        out.reads =
            genome::ReadSimulator(out.genome, rcfg).simulate().reads;
        return out;
    }();
    return w;
}

void
BM_CigarParse(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            genome::Cigar::parse("12S61M2I55M1D21M"));
    }
}
BENCHMARK(BM_CigarParse);

void
BM_ExplodeRead(benchmark::State &state)
{
    const auto &read = workload().reads.front();
    int64_t bases = 0;
    for (auto _ : state) {
        auto rows = genome::explodeRead(read.pos, read.cigar, read.seq,
                                        read.qual);
        bases += static_cast<int64_t>(rows.size());
        benchmark::DoNotOptimize(rows);
    }
    state.SetItemsProcessed(bases);
}
BENCHMARK(BM_ExplodeRead);

void
BM_SoftwareMarkDuplicates(benchmark::State &state)
{
    for (auto _ : state) {
        auto reads = workload().reads;
        benchmark::DoNotOptimize(gatk::markDuplicates(reads));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(workload().reads.size()));
}
BENCHMARK(BM_SoftwareMarkDuplicates);

void
BM_SoftwareMetadataUpdate(benchmark::State &state)
{
    for (auto _ : state) {
        auto reads = workload().reads;
        gatk::setNmMdUqTags(reads, workload().genome);
        benchmark::DoNotOptimize(reads);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(workload().reads.size()));
}
BENCHMARK(BM_SoftwareMetadataUpdate);

void
BM_SoftwareBqsrTable(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(gatk::buildCovariateTable(
            workload().reads, workload().genome));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(workload().reads.size()));
}
BENCHMARK(BM_SoftwareBqsrTable);

void
BM_SqlParseFigure4(benchmark::State &state)
{
    const std::string text = core::matchCountQueryText();
    for (auto _ : state)
        benchmark::DoNotOptimize(sql::parseScript(text));
}
BENCHMARK(BM_SqlParseFigure4);

void
BM_EngineGroupBy(benchmark::State &state)
{
    engine::Catalog catalog;
    catalog.put("READS", table::buildReadsTable(workload().reads));
    for (auto _ : state) {
        engine::Executor executor(catalog);
        benchmark::DoNotOptimize(executor.run(
            "SELECT CHR, COUNT(*) FROM READS GROUP BY CHR"));
    }
}
BENCHMARK(BM_EngineGroupBy);

void
BM_SimulatorCyclesPerSecond(benchmark::State &state)
{
    // Raw simulation speed: a source/reducer/sink chain; reports host
    // nanoseconds per simulated cycle.
    int64_t cycles = 0;
    for (auto _ : state) {
        sim::Simulator simulator;
        auto *q = simulator.makeQueue("q");
        auto *out = simulator.makeQueue("out");

        class Source : public sim::Module
        {
          public:
            Source(std::string name, sim::HardwareQueue *o)
                : Module(std::move(name)), out_(o)
            {
            }
            void
            tick() override
            {
                if (closed_ || !out_->canPush())
                    return;
                if (n_ < 10'000) {
                    out_->pushFlit(n_++, 1);
                    return;
                }
                out_->close();
                closed_ = true;
            }
            bool done() const override { return closed_; }

          private:
            sim::HardwareQueue *out_;
            int64_t n_ = 0;
            bool closed_ = false;
        };
        simulator.make<Source>("src", q);
        modules::ReducerConfig cfg;
        cfg.op = modules::ReduceOp::Sum;
        simulator.make<modules::Reducer>("sum", q, out, cfg);

        class Sink : public sim::Module
        {
          public:
            Sink(std::string name, sim::HardwareQueue *in)
                : Module(std::move(name)), in_(in)
            {
            }
            void
            tick() override
            {
                if (in_->canPop())
                    in_->pop();
                else if (in_->drained())
                    finished_ = true;
            }
            bool done() const override { return finished_; }

          private:
            sim::HardwareQueue *in_;
            bool finished_ = false;
        };
        simulator.make<Sink>("sink", out);
        cycles += static_cast<int64_t>(simulator.run());
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_SimulatorCyclesPerSecond);

void
BM_ExampleAcceleratorEndToEnd(benchmark::State &state)
{
    for (auto _ : state) {
        core::ExampleAccelConfig cfg;
        cfg.numPipelines = 4;
        cfg.psize = 65'536;
        benchmark::DoNotOptimize(core::ExampleAccelerator(cfg).run(
            workload().reads, workload().genome));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(workload().reads.size()));
}
// Most of this bench's time is simulator wall-clock on a worker thread,
// which google-benchmark's CPU-time iteration control cannot see: pin
// the iteration count.
BENCHMARK(BM_ExampleAcceleratorEndToEnd)->Iterations(3);

} // namespace
} // namespace genesis

BENCHMARK_MAIN();
