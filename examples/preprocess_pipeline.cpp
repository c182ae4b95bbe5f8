/**
 * @file
 * End-to-end GATK4-style preprocessing with Genesis accelerators.
 *
 * Runs the full data-preprocessing phase on a synthetic genome twice —
 * pure software, then with the three Genesis accelerators (Mark
 * Duplicates, Metadata Update, BQSR covariate construction) standing in
 * for their stages — verifies the outputs agree, and prints each
 * accelerator's host/communication/accelerator timing split.
 *
 * Build and run:  ./build/examples/preprocess_pipeline
 *
 * Pass `--trace out.json` to capture a cycle-accurate activity trace of
 * the three accelerators (Chrome trace-event JSON, loadable in Perfetto
 * or chrome://tracing) and print a per-module utilization summary.
 */

#include <cstdio>
#include <cstring>
#include <sstream>

#include "base/trace.h"
#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/preprocess.h"
#include "genome/read_simulator.h"
#include "genome/samlite.h"

using namespace genesis;

int
main(int argc, char **argv)
{
    const char *trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--trace out.json]\n",
                         argv[0]);
            return 2;
        }
    }
    TraceSink trace;

    // A small whole "genome" with two chromosomes.
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = 2;
    gcfg.firstChromosomeLength = 400'000;
    auto genome = genome::ReferenceGenome::synthesize(gcfg);

    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = 3'000;
    auto workload = genome::ReadSimulator(genome, rcfg).simulate();
    std::printf("workload: %zu reads, %lld bp reference\n",
                workload.reads.size(),
                static_cast<long long>(genome.totalLength()));

    // --- Software pipeline -------------------------------------------
    auto sw_reads = workload.reads;
    gatk::PreprocessOptions options;
    options.runAligner = false; // reads arrive aligned in this demo
    auto sw = gatk::runPreprocess(sw_reads, genome, options);
    std::printf("\nsoftware pipeline: %.3f s\n  %s\n",
                sw.times.total(), sw.times.breakdownStr().c_str());

    // --- Accelerated pipeline ----------------------------------------
    auto hw_reads = workload.reads;

    core::MarkDupAccelConfig md_cfg;
    md_cfg.numPipelines = 8;
    if (trace_path) {
        md_cfg.runtime.trace = &trace;
        md_cfg.runtime.traceLabel = "markdup";
    }
    auto md = core::MarkDupAccelerator(md_cfg).run(hw_reads);
    std::printf("\nMark Duplicates accelerator\n  %s\n  %lld duplicates "
                "marked across %lld sets\n",
                md.info.timing.str().c_str(),
                static_cast<long long>(md.stats.duplicatesMarked),
                static_cast<long long>(md.stats.duplicateSets));

    core::MetadataAccelConfig mu_cfg;
    mu_cfg.numPipelines = 8;
    mu_cfg.psize = 65'536;
    if (trace_path) {
        mu_cfg.runtime.trace = &trace;
        mu_cfg.runtime.traceLabel = "metadata";
    }
    auto mu = core::MetadataAccelerator(mu_cfg).run(hw_reads, genome);
    std::printf("\nMetadata Update accelerator\n  %s\n  %lld reads "
                "tagged over %llu batches (%llu cycles)\n",
                mu.info.timing.str().c_str(),
                static_cast<long long>(mu.readsTagged),
                static_cast<unsigned long long>(mu.info.batches),
                static_cast<unsigned long long>(mu.info.totalCycles));

    core::BqsrAccelConfig bq_cfg;
    bq_cfg.numPipelines = 8;
    bq_cfg.psize = 65'536;
    if (trace_path) {
        bq_cfg.runtime.trace = &trace;
        bq_cfg.runtime.traceLabel = "bqsr";
    }
    auto bq = core::BqsrAccelerator(bq_cfg).run(hw_reads, genome);
    std::printf("\nBQSR (covariate construction) accelerator\n  %s\n"
                "  %lld observations, %lld empirical errors\n",
                bq.info.timing.str().c_str(),
                static_cast<long long>(bq.table.totalObservations()),
                static_cast<long long>(bq.table.totalErrors()));

    // Quality update stays in software (as in the paper).
    int64_t changed = gatk::applyQualityUpdate(hw_reads, bq.table);
    std::printf("  quality update (software): %lld scores adjusted\n",
                static_cast<long long>(changed));

    // --- Verification --------------------------------------------------
    bool ok = hw_reads.size() == sw_reads.size();
    for (size_t i = 0; ok && i < hw_reads.size(); ++i) {
        ok &= hw_reads[i].name == sw_reads[i].name;
        ok &= hw_reads[i].isDuplicate() == sw_reads[i].isDuplicate();
        ok &= hw_reads[i].nmTag == sw_reads[i].nmTag;
        ok &= hw_reads[i].mdTag == sw_reads[i].mdTag;
        ok &= hw_reads[i].uqTag == sw_reads[i].uqTag;
        ok &= hw_reads[i].qual == sw_reads[i].qual;
    }
    std::printf("\naccelerated vs software outputs: %s\n",
                ok ? "identical" : "MISMATCH");

    if (trace_path) {
        trace.finish();
        if (!trace.writeJsonFile(trace_path)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_path);
            return 1;
        }
        std::printf("\ntrace written to %s "
                    "(load in https://ui.perfetto.dev)\n%s",
                    trace_path, trace.utilizationSummary().c_str());
    }

    // A taste of the final SAM output.
    std::ostringstream sam;
    genome::writeSam(sam, genome, {hw_reads.begin(),
                                   hw_reads.begin() + 3});
    std::printf("\nfirst reads of the processed SAM:\n%s",
                sam.str().c_str());
    return ok ? 0 : 1;
}
