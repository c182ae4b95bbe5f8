/**
 * @file
 * Integration tests: each Genesis accelerator (simulated hardware) must
 * produce byte-identical results to the software baseline, across seeds.
 * These are the strongest correctness statements in the repository —
 * they exercise memory readers, ReadToBases, SPMs, joiners, filters,
 * reducers, custom modules, writers, arbitration and the host runtime
 * together.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/bqsr_accel.h"
#include "core/example_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "sim_test_utils.h"

namespace genesis::core {
namespace {

class AccelEquivalence : public ::testing::TestWithParam<uint64_t>
{
  protected:
    void
    SetUp() override
    {
        workload_ = test::makeSmallWorkload(GetParam(), 250, 40'000, 2);
    }

    test::SmallWorkload workload_;
};

TEST_P(AccelEquivalence, ExampleMatchCountsEqualSoftware)
{
    ExampleAccelConfig cfg;
    cfg.numPipelines = 3;
    cfg.psize = 8'192;
    ExampleAccelerator accel(cfg);
    auto result = accel.run(workload_.reads.reads, workload_.genome);

    std::vector<size_t> all(workload_.reads.reads.size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    auto expected =
        matchCountsSoftware(workload_.reads.reads, all,
                            workload_.genome);
    ASSERT_EQ(result.counts.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(result.counts[i], expected[i]) << "read " << i;
    EXPECT_GT(result.info.totalCycles, 0u);
}

TEST_P(AccelEquivalence, MarkDupSumsAndFlagsEqualSoftware)
{
    auto hw_reads = workload_.reads.reads;
    auto sw_reads = workload_.reads.reads;

    MarkDupAccelConfig cfg;
    cfg.numPipelines = 4;
    MarkDupAccelerator accel(cfg);
    auto hw = accel.run(hw_reads);

    auto sw_sums = gatk::computeQualSums(sw_reads);
    auto sw_stats = gatk::markDuplicatesWithQualSums(sw_reads, sw_sums);

    EXPECT_EQ(hw.qualSums, sw_sums);
    EXPECT_EQ(hw.stats.duplicatesMarked, sw_stats.duplicatesMarked);
    ASSERT_EQ(hw_reads.size(), sw_reads.size());
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        EXPECT_EQ(hw_reads[i].name, sw_reads[i].name);
        EXPECT_EQ(hw_reads[i].isDuplicate(), sw_reads[i].isDuplicate());
    }
}

TEST_P(AccelEquivalence, MetadataTagsEqualSoftware)
{
    auto hw_reads = workload_.reads.reads;
    auto sw_reads = workload_.reads.reads;

    MetadataAccelConfig cfg;
    cfg.numPipelines = 4;
    cfg.psize = 8'192;
    MetadataAccelerator accel(cfg);
    auto result = accel.run(hw_reads, workload_.genome);
    EXPECT_EQ(result.readsTagged,
              static_cast<int64_t>(hw_reads.size()));

    gatk::setNmMdUqTags(sw_reads, workload_.genome);
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        EXPECT_EQ(hw_reads[i].nmTag, sw_reads[i].nmTag)
            << "NM of read " << i << " (" << hw_reads[i].name << ")";
        EXPECT_EQ(hw_reads[i].mdTag, sw_reads[i].mdTag)
            << "MD of read " << i;
        EXPECT_EQ(hw_reads[i].uqTag, sw_reads[i].uqTag)
            << "UQ of read " << i;
    }
}

TEST_P(AccelEquivalence, BqsrCovariateTableEqualsSoftware)
{
    BqsrAccelConfig cfg;
    cfg.numPipelines = 4;
    cfg.psize = 8'192;
    BqsrAccelerator accel(cfg);
    auto hw = accel.run(workload_.reads.reads, workload_.genome);

    auto sw = gatk::buildCovariateTable(workload_.reads.reads,
                                        workload_.genome, cfg.bqsr);
    EXPECT_EQ(hw.table.totalObservations(), sw.totalObservations());
    EXPECT_EQ(hw.table.totalErrors(), sw.totalErrors());
    EXPECT_TRUE(hw.table == sw) << "covariate tables differ";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccelEquivalence,
                         ::testing::Values(3u, 11u, 29u));

TEST(AccelBehaviour, MorePipelinesDoNotChangeResults)
{
    auto w = test::makeSmallWorkload(5, 150, 30'000, 1);
    ExampleAccelConfig one;
    one.numPipelines = 1;
    one.psize = 6'000;
    ExampleAccelConfig many;
    many.numPipelines = 6;
    many.psize = 6'000;
    auto r1 = ExampleAccelerator(one).run(w.reads.reads, w.genome);
    auto r6 = ExampleAccelerator(many).run(w.reads.reads, w.genome);
    EXPECT_EQ(r1.counts, r6.counts);
    // Parallelism shrinks total simulated time (more pipelines per
    // batch, fewer sequential batches).
    EXPECT_LT(r6.info.totalCycles, r1.info.totalCycles);
}

TEST(AccelBehaviour, TimingLedgersPopulated)
{
    auto w = test::makeSmallWorkload(7, 120, 30'000, 1);
    MetadataAccelConfig cfg;
    cfg.numPipelines = 2;
    cfg.psize = 8'192;
    auto result = MetadataAccelerator(cfg).run(w.reads.reads, w.genome);
    EXPECT_GT(result.info.timing.dmaSeconds, 0.0);
    EXPECT_GT(result.info.timing.accelSeconds, 0.0);
    EXPECT_GT(result.info.timing.hostSeconds, 0.0);
    EXPECT_GT(result.info.batches, 0u);
    EXPECT_GT(result.info.stats.get("cycles"), 0u);
}

TEST(AccelBehaviour, EmptyReadSetRunsNoCycles)
{
    auto w = test::makeSmallWorkload(7, 10, 30'000, 1);
    std::vector<genome::AlignedRead> none;

    auto md = MarkDupAccelerator().run(none);
    EXPECT_TRUE(md.qualSums.empty());
    EXPECT_EQ(md.stats.duplicatesMarked, 0);
    EXPECT_EQ(md.info.totalCycles, 0u);

    auto mu = MetadataAccelerator().run(none, w.genome);
    EXPECT_EQ(mu.readsTagged, 0);
    EXPECT_EQ(mu.info.totalCycles, 0u);

    auto bq = BqsrAccelerator().run(none, w.genome);
    EXPECT_EQ(bq.table.totalObservations(), 0);
    EXPECT_EQ(bq.table.totalErrors(), 0);
    EXPECT_EQ(bq.info.totalCycles, 0u);

    auto ex = ExampleAccelerator().run(none, w.genome);
    EXPECT_TRUE(ex.counts.empty());
    EXPECT_EQ(ex.info.totalCycles, 0u);
}

TEST(AccelBehaviour, ScatterRowsChecksTheRowCount)
{
    modules::ColumnBuffer flushed;
    flushed.name = "p0.CNT";
    flushed.elements = {7, 8};
    std::vector<int64_t> dst(4, 0);
    scatterRows(flushed, {3, 1}, dst);
    EXPECT_EQ(dst, (std::vector<int64_t>{0, 8, 0, 7}));
    // A buffer shorter, then longer, than the rows it is scattered to.
    EXPECT_THROW(scatterRows(flushed, {0, 1, 2}, dst), PanicError);
    EXPECT_THROW(scatterRows(flushed, {0}, dst), PanicError);
    EXPECT_EQ(dst, (std::vector<int64_t>{0, 8, 0, 7}));
}

TEST(AccelBehaviour, CensusCountsModules)
{
    auto census = MarkDupAccelerator::census(16);
    EXPECT_EQ(census.numPipelines, 16);
    EXPECT_EQ(census.moduleCounts.at("MemoryReader"), 16);
    EXPECT_EQ(census.moduleCounts.at("ReducerWide"), 16);
    EXPECT_EQ(census.moduleCounts.at("MemoryWriter"), 16);

    auto meta = MetadataAccelerator::census(16);
    EXPECT_EQ(meta.moduleCounts.at("MemoryReader"), 16 * 6);
    EXPECT_EQ(meta.moduleCounts.at("MDGen"), 16);
    EXPECT_GT(meta.spmBits, 0u);

    auto bqsr = BqsrAccelerator::census(8);
    EXPECT_EQ(bqsr.moduleCounts.at("SpmUpdaterRMW"), 8 * 4);
    EXPECT_EQ(bqsr.moduleCounts.at("BinIDGen"), 8);
}

TEST(AccelBehaviour, RmwHazardStallsObservedInBqsr)
{
    auto w = test::makeSmallWorkload(9, 150, 30'000, 1);
    BqsrAccelConfig cfg;
    cfg.numPipelines = 2;
    cfg.psize = 8'192;
    auto result = BqsrAccelerator(cfg).run(w.reads.reads, w.genome);
    // Consecutive bases with equal quality and context collide in the
    // covariate counters; the interlock must have fired at least once.
    uint64_t hazard_stalls = 0;
    for (const auto &[name, value] : result.info.stats.counters()) {
        if (name.find("rmw_hazard") != std::string::npos)
            hazard_stalls += value;
    }
    EXPECT_GT(hazard_stalls, 0u);
}

} // namespace
} // namespace genesis::core
