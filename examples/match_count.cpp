/**
 * @file
 * The paper's walk-through (Figures 4, 5, 7): express "count the bases
 * of each read that match the reference" as an extended-SQL script, show
 * its logical query plan, run it on the software engine, automatically
 * lower the fused plan onto Genesis hardware modules, run the simulated
 * pipeline, and cross-check all three answers.
 *
 * Build and run:  ./build/examples/match_count
 */

#include <cstdio>

#include "core/accel_common.h"
#include "core/example_accel.h"
#include "genome/read_simulator.h"
#include "pipeline/mapper.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "table/partition.h"

using namespace genesis;

int
main()
{
    // Workload: one reference window's worth of reads.
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = 1;
    gcfg.firstChromosomeLength = 20'000;
    gcfg.minChromosomeLength = 20'000;
    auto genome = genome::ReferenceGenome::synthesize(gcfg);
    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = 40;
    auto reads = genome::ReadSimulator(genome, rcfg).simulate().reads;

    constexpr int64_t kPsize = 20'000;
    table::Partitioner partitioner(kPsize);
    auto partitions = partitioner.partitionReads(reads);
    const auto &part = partitions.front();

    // 1. The query (Figure 4).
    std::printf("=== extended-SQL query (Figure 4) ===\n%s\n",
                core::matchCountQueryText().c_str());

    // 2. Its logical plan (the tree the hardware mapping consumes).
    sql::Script script = sql::parseScript(core::matchCountQueryText());
    std::printf("=== logical plans (EXPLAIN) ===\n%s\n",
                sql::explainScript(script).c_str());

    // 3. Software engine execution.
    auto sql_counts = core::matchCountsSqlEngine(reads, part, genome,
                                                 kPsize, 512);

    // 4. Automatic lowering of the fused plan to hardware (Section
    //    III-D) and simulation.
    sql::PlanPtr fused = pipeline::fuseScriptToPlan(script);
    std::printf("=== fused streaming plan ===\n%s\n",
                fused->str().c_str());

    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    pipeline::PipelineBuilder builder(session.sim(), 0);
    pipeline::QueryBinding binding = core::stagePartition(
        session, builder, reads, genome, part, kPsize, 512,
        core::kPos | core::kEndPos | core::kCigar | core::kSeq |
            core::kRefSeq);

    auto mapped = pipeline::mapPlanToPipeline(builder, session, *fused,
                                              binding);
    std::printf("=== plan -> module lowering (Figure 7) ===\n%s\n",
                mapped.trace.c_str());

    session.start();
    session.wait();
    const auto *hw = session.flush(mapped.output->name);

    // 5. Direct software ground truth + three-way check.
    auto direct = core::matchCountsSoftware(reads, part.readIndices,
                                            genome);
    bool ok = hw->elements.size() == direct.size() &&
        sql_counts.size() == direct.size();
    std::printf("read                matches(sql) matches(hw) "
                "matches(direct)\n");
    for (size_t i = 0; i < direct.size() && ok; ++i) {
        const auto &read = reads[part.readIndices[i]];
        if (i < 8) {
            std::printf("%-20s %12lld %11lld %15lld\n",
                        read.name.c_str(),
                        static_cast<long long>(sql_counts[i]),
                        static_cast<long long>(hw->elements[i]),
                        static_cast<long long>(direct[i]));
        }
        ok &= sql_counts[i] == direct[i] && hw->elements[i] == direct[i];
    }
    std::printf("... (%zu reads total)\n", direct.size());
    std::printf("simulated accelerator: %llu cycles (%.1f us at "
                "250 MHz)\n",
                static_cast<unsigned long long>(session.sim().cycle()),
                session.secondsForCycles(session.sim().cycle()) * 1e6);
    std::printf(ok ? "all three implementations agree\n"
                   : "MISMATCH between implementations\n");
    return ok ? 0 : 1;
}
