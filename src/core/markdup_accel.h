/**
 * @file
 * Mark Duplicates accelerator (paper Figure 10, Section IV-B).
 *
 * The simplest Genesis pipeline: a Memory Reader streams READS.QUAL, a
 * per-read sum Reducer computes each read's quality-score total, and a
 * Memory Writer stores the sums. The host then resolves duplicate sets
 * using those sums (the un-accelerated portion that dominates this
 * stage's runtime, per Figure 13(b)). Replicated across 16 pipelines by
 * splitting the read set.
 */

#ifndef GENESIS_CORE_MARKDUP_ACCEL_H
#define GENESIS_CORE_MARKDUP_ACCEL_H

#include "core/accel_common.h"
#include "gatk/markdup.h"

namespace genesis::core {

/** Configuration of the Mark Duplicates accelerator. */
struct MarkDupAccelConfig {
    int numPipelines = 16;
    runtime::RuntimeConfig runtime;
};

/** Result of an accelerated Mark Duplicates run. */
struct MarkDupAccelResult {
    AccelRunInfo info;
    gatk::MarkDuplicatesStats stats;
    /** The hardware-computed per-read quality sums (pre-sort order). */
    std::vector<int64_t> qualSums;
};

/** The accelerated Mark Duplicates stage. */
class MarkDupAccelerator
{
  public:
    explicit MarkDupAccelerator(
        const MarkDupAccelConfig &config = MarkDupAccelConfig());

    /**
     * Run the full stage: hardware quality sums + host duplicate
     * resolution and sort (in place, as the software baseline does).
     */
    MarkDupAccelResult run(std::vector<genome::AlignedRead> &reads);

    /** @return the hardware census without running (for Table IV). */
    static pipeline::HardwareCensus census(int num_pipelines);

  private:
    MarkDupAccelConfig config_;
};

} // namespace genesis::core

#endif // GENESIS_CORE_MARKDUP_ACCEL_H
