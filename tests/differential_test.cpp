/**
 * @file
 * Differential golden-model battery: every accelerator pipeline must
 * agree exactly with its software (src/gatk) implementation on seeded
 * read_simulator inputs across several workload sizes and seeds, with
 * the pipeline/batch geometry varied by size. This widens the seed
 * coverage of accel_test.cpp into a size x seed grid, so partition
 * boundaries, batch counts and SPM window positions all shift between
 * cases while the outputs must stay bit-identical.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>

#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "sim_test_utils.h"

namespace genesis::core {
namespace {

/** (read pairs, seed) — the grid axes. */
using DiffParam = std::tuple<int64_t, uint64_t>;

class DifferentialGoldenModel
    : public ::testing::TestWithParam<DiffParam>
{
  protected:
    void
    SetUp() override
    {
        pairs_ = std::get<0>(GetParam());
        seed_ = std::get<1>(GetParam());
        // Chromosome length scales with the workload so coverage stays
        // comparable; two chromosomes exercise reference partitioning.
        workload_ = test::makeSmallWorkload(seed_, pairs_,
                                            40'000 + 80 * pairs_, 2);
    }

    /** Vary the hardware geometry with the workload so batch splits
     *  differ between grid points. */
    int
    pipelinesForSize() const
    {
        return pairs_ < 200 ? 1 : pairs_ < 500 ? 3 : 5;
    }

    int64_t pairs_ = 0;
    uint64_t seed_ = 0;
    test::SmallWorkload workload_;
};

TEST_P(DifferentialGoldenModel, MarkDupMatchesSoftwareExactly)
{
    auto hw_reads = workload_.reads.reads;
    auto sw_reads = workload_.reads.reads;

    MarkDupAccelConfig cfg;
    cfg.numPipelines = pipelinesForSize();
    auto hw = MarkDupAccelerator(cfg).run(hw_reads);

    auto sw_sums = gatk::computeQualSums(sw_reads);
    auto sw_stats = gatk::markDuplicatesWithQualSums(sw_reads, sw_sums);

    EXPECT_EQ(hw.qualSums, sw_sums);
    EXPECT_EQ(hw.stats.duplicatesMarked, sw_stats.duplicatesMarked);
    EXPECT_EQ(hw.stats.duplicateSets, sw_stats.duplicateSets);
    ASSERT_EQ(hw_reads.size(), sw_reads.size());
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        ASSERT_EQ(hw_reads[i].isDuplicate(), sw_reads[i].isDuplicate())
            << "duplicate flag of read " << i << " ("
            << hw_reads[i].name << "), pairs=" << pairs_
            << " seed=" << seed_;
    }
}

TEST_P(DifferentialGoldenModel, MetadataTagsMatchSoftwareExactly)
{
    auto hw_reads = workload_.reads.reads;
    auto sw_reads = workload_.reads.reads;

    MetadataAccelConfig cfg;
    cfg.numPipelines = pipelinesForSize();
    cfg.psize = 8'192;
    auto result = MetadataAccelerator(cfg).run(hw_reads,
                                               workload_.genome);
    EXPECT_EQ(result.readsTagged, static_cast<int64_t>(hw_reads.size()));

    gatk::setNmMdUqTags(sw_reads, workload_.genome);
    ASSERT_EQ(hw_reads.size(), sw_reads.size());
    for (size_t i = 0; i < hw_reads.size(); ++i) {
        ASSERT_EQ(hw_reads[i].nmTag, sw_reads[i].nmTag)
            << "NM of read " << i << ", pairs=" << pairs_
            << " seed=" << seed_;
        ASSERT_EQ(hw_reads[i].mdTag, sw_reads[i].mdTag)
            << "MD of read " << i;
        ASSERT_EQ(hw_reads[i].uqTag, sw_reads[i].uqTag)
            << "UQ of read " << i;
    }
}

TEST_P(DifferentialGoldenModel, BqsrTableMatchesSoftwareExactly)
{
    BqsrAccelConfig cfg;
    cfg.numPipelines = pipelinesForSize();
    cfg.psize = 8'192;
    auto hw = BqsrAccelerator(cfg).run(workload_.reads.reads,
                                       workload_.genome);

    auto sw = gatk::buildCovariateTable(workload_.reads.reads,
                                        workload_.genome, cfg.bqsr);
    EXPECT_EQ(hw.table.totalObservations(), sw.totalObservations());
    EXPECT_EQ(hw.table.totalErrors(), sw.totalErrors());
    EXPECT_TRUE(hw.table == sw)
        << "covariate tables differ, pairs=" << pairs_
        << " seed=" << seed_;
}

/** FNV-1a (64-bit) over a stat map's sorted "name=value" lines. */
uint64_t
statDigest(const std::map<std::string, uint64_t> &stats)
{
    uint64_t hash = 14695981039346656037ull;
    for (const auto &[name, value] : stats) {
        std::string line = name + "=" + std::to_string(value) + "\n";
        for (unsigned char c : line) {
            hash ^= c;
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

/** Exact MarkDup totals of one grid point. */
struct PinnedRun {
    int64_t pairs;
    uint64_t seed;
    uint64_t totalCycles;
    uint64_t statDigest;
};

/**
 * Simulated cycles and stat digest of every grid point, so a drift in
 * the scheduler's multi-lane (3- and 5-pipeline) results fails here
 * rather than only in a downstream bench. Update these only for a
 * deliberate change to the modeled hardware.
 */
constexpr PinnedRun kPinnedRuns[] = {
    {60, 5, 19'224, 4707762294587321ull},
    {60, 17, 19'829, 6815095692869401248ull},
    {300, 5, 31'444, 13370586055922107439ull},
    {300, 17, 32'658, 908425289161630154ull},
    {700, 5, 45'551, 15587225018735256916ull},
    {700, 17, 46'160, 10795923898056628353ull},
};

TEST_P(DifferentialGoldenModel, SleepSchedulingIsCycleExact)
{
    // The active-set (sleep/wake) scheduler is a pure host-side
    // optimisation: simulated cycle counts and every merged simulator
    // statistic must be bit-identical with it disabled
    // (GENESIS_SIM_NO_SLEEP=1), and with the idle-cycle fast-forward
    // disabled on top, across the whole size x seed grid. The base run
    // must also reproduce the grid point's pinned values exactly.
    auto run_once = [&] {
        auto reads = workload_.reads.reads;
        MarkDupAccelConfig cfg;
        cfg.numPipelines = pipelinesForSize();
        auto r = MarkDupAccelerator(cfg).run(reads);
        return std::make_pair(r.info.totalCycles,
                              r.info.stats.counters());
    };
    auto base = run_once();
    EXPECT_GT(base.first, 0u);
    const PinnedRun *pinned = nullptr;
    for (const auto &run : kPinnedRuns) {
        if (run.pairs == pairs_ && run.seed == seed_)
            pinned = &run;
    }
    ASSERT_NE(pinned, nullptr) << "no pinned values for this grid point";
    EXPECT_EQ(base.first, pinned->totalCycles)
        << "pinned cycle drift, pairs=" << pairs_ << " seed=" << seed_;
    EXPECT_EQ(statDigest(base.second), pinned->statDigest)
        << "pinned stat drift, pairs=" << pairs_ << " seed=" << seed_;
    {
        ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
        auto no_sleep = run_once();
        ::unsetenv("GENESIS_SIM_NO_SLEEP");
        EXPECT_EQ(base.first, no_sleep.first)
            << "cycle drift with sleep disabled, pairs=" << pairs_
            << " seed=" << seed_;
        EXPECT_EQ(base.second, no_sleep.second);
    }
    {
        ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
        ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
        auto plain = run_once();
        ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
        ::unsetenv("GENESIS_SIM_NO_SLEEP");
        EXPECT_EQ(base.first, plain.first)
            << "cycle drift vs tick-everything, pairs=" << pairs_
            << " seed=" << seed_;
        EXPECT_EQ(base.second, plain.second);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizeSeedGrid, DifferentialGoldenModel,
    ::testing::Combine(::testing::Values<int64_t>(60, 300, 700),
                       ::testing::Values<uint64_t>(5u, 17u)),
    [](const ::testing::TestParamInfo<DiffParam> &info) {
        return "pairs" + std::to_string(std::get<0>(info.param)) +
            "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace genesis::core
