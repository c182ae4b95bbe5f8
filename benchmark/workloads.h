/**
 * @file
 * The two benchmark workloads. Each synthesizes its inputs from
 * opts.seed, measures for opts.seconds, checks every result against the
 * software reference, and records its samples into `results`.
 */

#ifndef GENESIS_BENCHMARK_WORKLOADS_H
#define GENESIS_BENCHMARK_WORKLOADS_H

#include "harness.h"

namespace genesis::benchmark {

/** The paper's three stages at its pipeline counts. */
void runStages16(const Options &opts, Results &results);

/** The Figure-4 script from SQL text to three-way verified counts. */
void runSqlMapped(const Options &opts, Results &results);

} // namespace genesis::benchmark

#endif // GENESIS_BENCHMARK_WORKLOADS_H
