/**
 * @file
 * The paper's walk-through example (Figures 4, 5 and 7): count, for each
 * read of a partition, the number of bases matching the reference.
 *
 * One query, three ways to answer it, cross-checked against each other:
 *  - the extended-SQL script of Figure 4 run on the software engine;
 *  - a direct software computation;
 *  - the Figure-7 hardware pipeline on the simulator, compiled from the
 *    same script by the plan-to-pipeline mapper (pipeline/mapper.h).
 */

#ifndef GENESIS_CORE_EXAMPLE_ACCEL_H
#define GENESIS_CORE_EXAMPLE_ACCEL_H

#include <string>

#include "core/accel_common.h"
#include "table/partition.h"

namespace genesis::core {

/** The Figure-4 query script text (parsable by sql::parseScript). */
std::string matchCountQueryText();

/** Direct software ground truth: matching-base count per read. */
std::vector<int64_t>
matchCountsSoftware(const std::vector<genome::AlignedRead> &reads,
                    const std::vector<size_t> &indices,
                    const genome::ReferenceGenome &genome);

/**
 * Run the Figure-4 script on the software SQL engine for one partition;
 * returns the per-read match counts from the Output table.
 */
std::vector<int64_t>
matchCountsSqlEngine(const std::vector<genome::AlignedRead> &reads,
                     const table::ReadPartition &partition,
                     const genome::ReferenceGenome &genome,
                     int64_t psize, int64_t overlap);

/** Configuration of the example accelerator. */
struct ExampleAccelConfig {
    int numPipelines = 4;
    runtime::RuntimeConfig runtime;
    int64_t psize = 1'000'000;
    int64_t overlap = 151;
    /**
     * Stage the reference in an on-chip SPM (the paper's design). When
     * false, the mapper lowers the reference read to a GatherReader that
     * re-fetches each read's reference span from device memory — the
     * no-data-reuse counterfactual measured by the ablate_spm bench.
     */
    bool useSpm = true;
};

/** Result of the example accelerator. */
struct ExampleAccelResult {
    AccelRunInfo info;
    /** Match count per read, indexed like the input read vector. */
    std::vector<int64_t> counts;
};

/**
 * The Figure-7 hardware pipeline, replicated per Figure 8: every lane is
 * the Figure-4 script, fused once per run() and lowered by the mapper.
 */
class ExampleAccelerator
{
  public:
    explicit ExampleAccelerator(
        const ExampleAccelConfig &config = ExampleAccelConfig());

    ExampleAccelResult
    run(const std::vector<genome::AlignedRead> &reads,
        const genome::ReferenceGenome &genome);

  private:
    ExampleAccelConfig config_;
};

} // namespace genesis::core

#endif // GENESIS_CORE_EXAMPLE_ACCEL_H
