/**
 * @file
 * Figure 13(b) reproduction: where the Genesis runtime goes — host
 * software, host-FPGA communication (PCIe DMA), or the accelerator — and
 * the PCIe 4.0 projection.
 *
 * Paper reference: Mark Duplicates is 99.35% host-bound; Metadata Update
 * spends 53.4% and BQSR 29.5% of runtime in DMA; with a 32 GB/s PCIe 4.0
 * link the Metadata Update / BQSR speedups improve to 33x / 16.4x (from
 * 19.25x / 12.59x), i.e. 1.71x / 1.30x faster.
 *
 * The projection holds each stage's host seconds at the PCIe 3 run's
 * measured value, so only the modeled DMA time moves, and the closing
 * line is computed from it: the stage with the largest projected gain,
 * and whether that is the stage with the largest communication share.
 */

#include "bench_common.h"

using namespace genesis;

int
main()
{
    auto workload = bench::makeBenchWorkload();
    bench::printHeader(
        "Figure 13(b): Genesis runtime breakdown + PCIe 4.0 projection",
        workload);

    runtime::RuntimeConfig pcie3;
    auto m3 = bench::measureStages(workload, pcie3);

    runtime::RuntimeConfig pcie4;
    pcie4.dma = runtime::DmaConfig::pcie4();
    auto m4 = bench::measureStages(workload, pcie4);

    auto row = [](const char *stage, const runtime::TimingBreakdown &t,
                  const char *paper) {
        double total = t.total();
        std::printf("%-28s host %5.1f%% | communication %5.1f%% | "
                    "accelerator %5.1f%%\n", stage,
                    100.0 * t.hostSeconds / total,
                    100.0 * t.dmaSeconds / total,
                    100.0 * t.accelSeconds / total);
        std::printf("%-28s (paper: %s)\n", "", paper);
    };
    row("Mark Duplicates", m3.mdTiming, "99.35% host");
    row("Metadata Update", m3.muTiming, "53.4% communication");
    row("BQSR (table construction)", m3.bqTiming,
        "29.5% communication");

    std::printf("\nPCIe 4.0 (32 GB/s) projection, host seconds held at "
                "the pcie3 run's:\n");
    struct Projection {
        const char *stage;
        const runtime::TimingBreakdown &pcie3, &pcie4;
        double paperGain;
    };
    const Projection projections[] = {
        {"Mark Duplicates", m3.mdTiming, m4.mdTiming, 1.0},
        {"Metadata Update", m3.muTiming, m4.muTiming, 33.0 / 19.25},
        {"BQSR", m3.bqTiming, m4.bqTiming, 16.4 / 12.59},
    };
    const Projection *most_gain = nullptr, *most_dma = nullptr;
    double max_gain = 0.0, max_dma_share = 0.0;
    for (const Projection &p : projections) {
        double t3 = p.pcie3.total();
        double t4 = p.pcie3.hostSeconds + p.pcie4.dmaSeconds +
            p.pcie4.accelSeconds;
        double gain = t3 / t4;
        std::printf("  %-26s pcie3 %8.4f s -> pcie4 %8.4f s "
                    "(%.2fx faster; paper projects %.2fx)\n",
                    p.stage, t3, t4, gain, p.paperGain);
        if (!most_gain || gain > max_gain) {
            most_gain = &p;
            max_gain = gain;
        }
        double dma_share = p.pcie3.dmaSeconds / t3;
        if (!most_dma || dma_share > max_dma_share) {
            most_dma = &p;
            max_dma_share = dma_share;
        }
    }

    std::printf("\nlargest PCIe 4.0 gain: %s (%.2fx); largest "
                "communication share: %s (%.1f%%)\n",
                most_gain->stage, max_gain, most_dma->stage,
                100.0 * max_dma_share);
    if (most_gain == most_dma)
        std::printf("the most communication-bound stage gains most from "
                    "the faster interconnect, as the paper argues.\n");
    else
        std::printf("the most communication-bound stage is not the one "
                    "that gains most: the paper's argument does not hold "
                    "at this size.\n");
    return 0;
}
