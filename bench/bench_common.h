/**
 * @file
 * Shared workload construction and measurement helpers for the
 * table/figure reproduction benches.
 *
 * The workload approximates the paper's evaluation input in miniature: a
 * multi-chromosome reference with dbSNP-like known sites and paired
 * 151 bp Illumina-like reads with duplicates, indels, clips and biased
 * errors. Scale with GENESIS_BENCH_PAIRS (default 20'000 pairs, see
 * envPairs()).
 */

#ifndef GENESIS_BENCH_BENCH_COMMON_H
#define GENESIS_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "base/env.h"
#include "base/logging.h"
#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "genome/read_simulator.h"

namespace genesis::bench {

/** A reference genome plus an aligned read set. */
struct BenchWorkload {
    genome::ReferenceGenome genome;
    std::vector<genome::AlignedRead> reads;
    int64_t totalBases = 0;
};

inline int64_t
envPairs(int64_t default_pairs = 20'000)
{
    return envInt64("GENESIS_BENCH_PAIRS", default_pairs, 1);
}

/**
 * Parse command-line flag `flag`'s value `text` with parseNumber()
 * (base/env.h). A malformed value exits 2 naming the flag, so a typo
 * cannot turn a gate off.
 */
template <typename T>
T
flagNumber(const char *flag, const char *text)
{
    T value{};
    if (!parseNumber(text, value)) {
        std::fprintf(stderr, "%s: '%s' is not %s\n", flag, text,
                     std::is_integral_v<T> ? "an integer" : "a number");
        std::exit(2);
    }
    return value;
}

/**
 * Return `make()`, which builds a configuration from flag values. A
 * value that parses but fails validation makes it throw FatalError;
 * print the error's message and exit 2, as flagNumber() does for a
 * malformed value.
 */
template <typename F>
auto
checkedFlags(F &&make)
{
    try {
        return make();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

inline BenchWorkload
makeBenchWorkload(int64_t num_pairs = envPairs(), int num_chromosomes = 2,
                  uint64_t seed = 2020)
{
    BenchWorkload w;
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = num_chromosomes;
    gcfg.firstChromosomeLength = 300'000;
    gcfg.lengthDecay = 0.6;
    gcfg.minChromosomeLength = 100'000;
    gcfg.seed = seed;
    w.genome = genome::ReferenceGenome::synthesize(gcfg);

    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = num_pairs;
    rcfg.seed = seed * 17 + 3;
    w.reads = genome::ReadSimulator(w.genome, rcfg).simulate().reads;
    for (const auto &read : w.reads)
        w.totalBases += static_cast<int64_t>(read.seq.size());
    return w;
}

/** Wall-clock one callable, in seconds. */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
}

/** Single-thread software time of the three stages on this host. */
struct SoftwareBaselines {
    double markDup = 0, metadata = 0, bqsr = 0;
};

/** Time the three GATK software baselines. */
inline SoftwareBaselines
measureSoftware(const BenchWorkload &workload)
{
    SoftwareBaselines sw;
    // Fresh copies; timings exclude the copy.
    {
        auto reads = workload.reads;
        sw.markDup = timeIt([&] { gatk::markDuplicates(reads); });
    }
    {
        auto reads = workload.reads;
        sw.metadata = timeIt(
            [&] { gatk::setNmMdUqTags(reads, workload.genome); });
    }
    sw.bqsr = timeIt([&] {
        gatk::buildCovariateTable(workload.reads, workload.genome);
    });
    return sw;
}

/** Genesis timing ledgers and run info for the three stages. */
struct StageMeasurements {
    runtime::TimingBreakdown mdTiming, muTiming, bqTiming;
    core::AccelRunInfo mdInfo, muInfo, bqInfo;
};

/** Run the three stages on the accelerators. */
inline StageMeasurements
measureStages(const BenchWorkload &workload,
              const runtime::RuntimeConfig &rt = runtime::RuntimeConfig())
{
    StageMeasurements m;

    // Genesis accelerators at the paper's pipeline counts.
    {
        auto reads = workload.reads;
        core::MarkDupAccelConfig cfg;
        cfg.numPipelines = 16;
        cfg.runtime = rt;
        auto result = core::MarkDupAccelerator(cfg).run(reads);
        m.mdTiming = result.info.timing;
        m.mdInfo = std::move(result.info);
    }
    {
        auto reads = workload.reads;
        core::MetadataAccelConfig cfg;
        cfg.numPipelines = 16;
        cfg.psize = 131'072;
        cfg.runtime = rt;
        auto result =
            core::MetadataAccelerator(cfg).run(reads, workload.genome);
        m.muTiming = result.info.timing;
        m.muInfo = std::move(result.info);
    }
    {
        core::BqsrAccelConfig cfg;
        cfg.numPipelines = 8;
        cfg.psize = 131'072;
        cfg.runtime = rt;
        auto result = core::BqsrAccelerator(cfg).run(workload.reads,
                                                     workload.genome);
        m.bqTiming = result.info.timing;
        m.bqInfo = std::move(result.info);
    }
    return m;
}

/**
 * GATK4-calibrated baseline model, derived from the paper's own numbers:
 * the three accelerated stages take ~3.5 hours for a ~700 M-read
 * (~105.7 Gbp) genome on the 8-core r5.4xlarge, split 27.2 / 41.8 /
 * 12.4 (Figure 9, alignment-accelerated bars). That yields per-stage
 * GATK throughputs of roughly 25 / 16 / 55 Mbp/s, which scale to any
 * workload size. Our C++ baselines are 2-3 orders of magnitude faster
 * per core than GATK's Java, so this model is what paper-comparable
 * speedups must be measured against (see EXPERIMENTS.md).
 */
enum class Stage { MarkDuplicates, MetadataUpdate, BqsrTable };

inline double
paperGatkSeconds(Stage stage, int64_t total_bases)
{
    constexpr double kPaperBases = 700e6 * 151.0;
    constexpr double kPaperTotalSeconds = 3.5 * 3600.0;
    double share = 0;
    switch (stage) {
      case Stage::MarkDuplicates: share = 27.2 / 81.4; break;
      case Stage::MetadataUpdate: share = 41.8 / 81.4; break;
      case Stage::BqsrTable: share = 12.4 / 81.4; break;
    }
    return kPaperTotalSeconds * share *
        static_cast<double>(total_bases) / kPaperBases;
}

/** Print a header naming the bench and the workload. */
inline void
printHeader(const char *title, const BenchWorkload &workload)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title);
    std::printf("workload: %zu reads (%lld bp), reference %lld bp in "
                "%zu chromosomes\n",
                workload.reads.size(),
                static_cast<long long>(workload.totalBases),
                static_cast<long long>(workload.genome.totalLength()),
                workload.genome.numChromosomes());
    std::printf("==================================================\n");
}

} // namespace genesis::bench

#endif // GENESIS_BENCH_BENCH_COMMON_H
