/**
 * @file
 * Tests for the automated logical-plan -> hardware-pipeline mapper: the
 * Figure-4 script fuses into one plan, lowers onto hardware modules, and
 * the resulting simulated pipeline reproduces the SQL engine's answer.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/accel_common.h"
#include "core/example_accel.h"
#include "genome/cigar.h"
#include "pipeline/mapper.h"
#include "sim_test_utils.h"
#include "sql/parser.h"
#include "table/partition.h"

namespace genesis::pipeline {
namespace {

TEST(Fusion, Figure4ScriptFusesToSinglePlan)
{
    sql::Script script = sql::parseScript(core::matchCountQueryText());
    sql::PlanPtr plan = fuseScriptToPlan(script);
    std::string text = plan->str();
    // The fused tree: Aggregate over Project over Join of ReadExplode
    // with the LIMIT-windowed reference.
    EXPECT_NE(text.find("Aggregate"), std::string::npos);
    EXPECT_NE(text.find("ReadExplode"), std::string::npos);
    EXPECT_NE(text.find("InnerJoin"), std::string::npos);
    EXPECT_NE(text.find("Scan(RelevantReference"), std::string::npos);
    // Temp-table scans were inlined away.
    EXPECT_EQ(text.find("Scan(AlignedRead"), std::string::npos);
    EXPECT_EQ(text.find("Scan(ReadAndRef"), std::string::npos);
}

TEST(Fusion, ScriptWithoutLoopFatal)
{
    EXPECT_THROW(fuseScriptToPlan(sql::parseScript("SELECT a FROM t")),
                 FatalError);
}

TEST(Fusion, LoopWithoutInsertFatal)
{
    EXPECT_THROW(
        fuseScriptToPlan(sql::parseScript(
            "FOR r IN t: SET @x = 1; END LOOP")),
        FatalError);
}

class MappedPipeline : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MappedPipeline, ReproducesSqlEngineAnswer)
{
    auto w = test::makeSmallWorkload(GetParam(), 120, 20'000, 1);
    constexpr int64_t kPsize = 20'000;
    constexpr int64_t kOverlap = 512;
    table::Partitioner partitioner(kPsize);
    auto partitions = partitioner.partitionReads(w.reads.reads);
    ASSERT_EQ(partitions.size(), 1u);
    const auto &part = partitions[0];

    // Software answer via the SQL engine.
    auto expected = core::matchCountsSqlEngine(
        w.reads.reads, part, w.genome, kPsize, kOverlap);

    // Hardware answer via the automatically mapped pipeline.
    sql::Script script = sql::parseScript(core::matchCountQueryText());
    sql::PlanPtr plan = fuseScriptToPlan(script);

    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    PipelineBuilder builder(session.sim(), 0);
    QueryBinding binding = core::stagePartition(
        session, builder, w.reads.reads, w.genome, part, kPsize, kOverlap,
        core::kPos | core::kEndPos | core::kCigar | core::kSeq |
            core::kRefSeq);

    MappedQuery mapped =
        mapPlanToPipeline(builder, session, *plan, binding);
    EXPECT_NE(mapped.trace.find("ReadToBases"), std::string::npos);
    EXPECT_NE(mapped.trace.find("Joiner"), std::string::npos);
    EXPECT_NE(mapped.trace.find("Reducer"), std::string::npos);

    session.start();
    session.wait();
    const auto *out = session.flush(mapped.output->name);
    ASSERT_EQ(out->elements.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(out->elements[i], expected[i]) << "read " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappedPipeline,
                         ::testing::Values(2u, 13u));

TEST(Mapper, RejectsUnsupportedShapes)
{
    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    PipelineBuilder builder(session.sim(), 0);
    QueryBinding binding;

    // A bare scan has no streaming lowering.
    sql::Script scan_script =
        sql::parseScript("FOR r IN t: INSERT INTO o SELECT COUNT(*) "
                         "FROM plain; END LOOP");
    auto plan = fuseScriptToPlan(scan_script);
    EXPECT_THROW(mapPlanToPipeline(builder, session, *plan, binding),
                 FatalError);
}

/**
 * Whether POS forks to a reference reader follows from the plan, not
 * from which columns are staged: a join-free per-read COUNT(*) with
 * ENDPOS staged gets no fork (a forked POS with no reader wedges the
 * pipeline) and counts every exploded base of every read.
 */
TEST(Mapper, JoinFreeCountIgnoresStagedEndpos)
{
    auto w = test::makeSmallWorkload(3, 120, 20'000, 1);
    constexpr int64_t kPsize = 20'000;
    auto partitions = table::Partitioner(kPsize).partitionReads(
        w.reads.reads);
    ASSERT_EQ(partitions.size(), 1u);
    const auto &part = partitions[0];

    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    PipelineBuilder builder(session.sim(), 0);
    QueryBinding binding = core::stagePartition(
        session, builder, w.reads.reads, w.genome, part, kPsize, 512,
        core::kPos | core::kEndPos | core::kCigar | core::kSeq |
            core::kRefSeq);
    ASSERT_NE(binding.endpos, nullptr);

    sql::PlanPtr plan = fuseScriptToPlan(sql::parseScript(R"(
CREATE TABLE ReadPartition AS
SELECT POS, ENDPOS, CIGAR, SEQ
FROM READS PARTITION (@P);
FOR SingleRead IN ReadPartition:
  CREATE TABLE #AlignedRead AS
  ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ)
  FROM SingleRead;
  INSERT INTO Output
  SELECT COUNT(*) FROM #AlignedRead;
END LOOP;
)"));
    MappedQuery mapped =
        mapPlanToPipeline(builder, session, *plan, binding);
    EXPECT_EQ(mapped.trace.find("Joiner"), std::string::npos);

    session.start();
    session.wait();
    const auto *out = session.flush(mapped.output->name);
    ASSERT_EQ(out->elements.size(), part.readIndices.size());
    for (size_t i = 0; i < part.readIndices.size(); ++i) {
        const auto &read = w.reads.reads[part.readIndices[i]];
        const auto bases = genome::explodeRead(read.pos, read.cigar,
                                               read.seq, read.qual);
        EXPECT_EQ(out->elements[i], static_cast<int64_t>(bases.size()))
            << "read " << i;
    }
}

} // namespace
} // namespace genesis::pipeline
