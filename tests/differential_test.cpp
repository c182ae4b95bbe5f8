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
#include <numeric>
#include <string>
#include <tuple>

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

/** Exact totals of one grid point. */
struct PinnedRun {
    int64_t pairs;
    uint64_t seed;
    uint64_t totalCycles;
    uint64_t statDigest;
    double dmaSeconds;
    double accelSeconds;
};

/**
 * Simulated cycles, stat digest (test::statDigest) and modeled DMA and
 * accelerator seconds of every grid point, one table per accelerator,
 * so a drift in the scheduler's or the memory arbiters' multi-lane (3-
 * and 5-pipeline) results fails here rather than only in a downstream
 * bench. BQSR and Metadata Update put several memory ports behind each
 * local arbiter and load the banks far harder than MarkDup's two ports
 * per pipeline, so their rows pin arbitration and bank-conflict
 * accounting. The seconds are hex-float literals compared exactly: the
 * DMA seconds depend on which columns the host stages and in which
 * order it sums the transfers. Update these only for a deliberate
 * change to the modeled hardware.
 */
constexpr PinnedRun kPinnedMarkDup[] = {
    {60, 5, 19'224, 4707762294587321ull,
     0x1.66f2d346b977ep-15, 0x1.4286738849207p-14},
    {60, 17, 19'829, 6815095692869401248ull,
     0x1.67b107ef1f25ep-15, 0x1.4cace8113212bp-14},
    {300, 5, 31'444, 13370586055922107439ull,
     0x1.185b3453004bdp-13, 0x1.07c579cfd84d9p-13},
    {300, 17, 32'658, 908425289161630154ull,
     0x1.1978834f98d0ep-13, 0x1.11f4855eb5534p-13},
    {700, 5, 45'551, 15587225018735256916ull,
     0x1.e8cea39dda899p-13, 0x1.7e1c071412d3ep-13},
    {700, 17, 46'160, 10795923898056628353ull,
     0x1.e9bc657059a2fp-13, 0x1.8337d85e7b607p-13},
};
constexpr PinnedRun kPinnedMetadata[] = {
    {60, 5, 106'176, 12865785474082268559ull,
     0x1.05df0364fa71ep-9, 0x1.bd559ca5cec26p-12},
    {60, 17, 106'829, 17053821876279295506ull,
     0x1.05e5a96dbaa4ep-9, 0x1.c012c3ebc1737p-12},
    {300, 5, 81'647, 7626295744749759832ull,
     0x1.67ef7b078be3p-9, 0x1.5673cc77dfacep-12},
    {300, 17, 83'473, 3379457861677602504ull,
     0x1.681538406aa46p-9, 0x1.5e1c7386bdfd6p-12},
    {700, 5, 107'734, 3838919721618621704ull,
     0x1.09c994d2af4c5p-8, 0x1.c3de806d3c884p-12},
    {700, 17, 106'575, 13703326069496703117ull,
     0x1.09dab90d6c132p-8, 0x1.bf0208eebc0aep-12},
};
constexpr PinnedRun kPinnedBqsr[] = {
    {60, 5, 1'506'590, 12271431443262784483ull,
     0x1.1f17e79368dcdp-7, 0x1.8af18b1d2a079p-8},
    {60, 17, 1'415'875, 7452670088712735843ull,
     0x1.0e2f96c7baa7fp-7, 0x1.7329c347e8ccep-8},
    {300, 5, 926'560, 2617803908536137003ull,
     0x1.fb4a33caba1e2p-7, 0x1.e5c8c72ea8342p-9},
    {300, 17, 925'550, 14453648363515081929ull,
     0x1.fb5354410d72ep-7, 0x1.e54137d8b461ap-9},
    {700, 5, 882'063, 18366848561403211710ull,
     0x1.7485d25d9a48ap-6, 0x1.ce747de772a6bp-9},
    {700, 17, 879'446, 15873312945676381516ull,
     0x1.7489c671aa02ap-6, 0x1.cd153e78023c9p-9},
};
constexpr PinnedRun kPinnedExample[] = {
    {60, 5, 104'586, 3983850631381014108ull,
     0x1.5df85164d793bp-10, 0x1.b6aa5cc690aedp-12},
    {60, 17, 105'275, 7909609213481668507ull,
     0x1.5dff161b3f53p-10, 0x1.b98e2ba74db73p-12},
    {300, 5, 80'436, 12709365562568495985ull,
     0x1.e038bccffbd8cp-10, 0x1.515f7f52acb16p-12},
    {300, 17, 82'495, 3643995297258816609ull,
     0x1.e05f780d1cf04p-10, 0x1.5a0254eeefb76p-12},
    {700, 5, 106'031, 5413527271718305196ull,
     0x1.62119f5fcc1fcp-9, 0x1.bcb9eb59e6e25p-12},
    {700, 17, 105'299, 15559652074141715822ull,
     0x1.6222f724ac9f2p-9, 0x1.b9a7f0b929f18p-12},
};
/**
 * The match count without the reference SPM (ExampleAccelConfig::useSpm
 * = false, the ablate_spm counterfactual): a GatherReader re-fetches each
 * read's reference span from device memory.
 */
constexpr PinnedRun kPinnedExampleNoSpm[] = {
    {60, 5, 24'192, 8502005438240726359ull,
     0x1.5df85164d793bp-10, 0x1.95dfd94c958d7p-14},
    {60, 17, 25'063, 14383567365594610633ull,
     0x1.5dff161b3f53p-10, 0x1.a47cc3ed4c967p-14},
    {300, 5, 49'205, 8458222728733888606ull,
     0x1.e038bccffbd8cp-10, 0x1.9cc2eed2861f4p-13},
    {300, 17, 50'292, 4294551173594179139ull,
     0x1.e05f780d1cf04p-10, 0x1.a5e13f645dbc6p-13},
    {700, 5, 80'023, 14959296189221271261ull,
     0x1.62119f5fcc1fcp-9, 0x1.4fa40abf5446ep-12},
    {700, 17, 75'737, 12810427361338319710ull,
     0x1.6222f724ac9f2p-9, 0x1.3da9fc09c8a31p-12},
};

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

    /** Expect one run to reproduce this grid point's row of `pins`. */
    template <size_t N>
    void
    expectPinned(const PinnedRun (&pins)[N], const AccelRunInfo &info) const
    {
        const PinnedRun *pinned = nullptr;
        for (const auto &run : pins) {
            if (run.pairs == pairs_ && run.seed == seed_)
                pinned = &run;
        }
        ASSERT_NE(pinned, nullptr) << "no pinned values for this grid point";
        EXPECT_EQ(info.totalCycles, pinned->totalCycles)
            << "pinned cycle drift, pairs=" << pairs_ << " seed=" << seed_;
        EXPECT_EQ(test::statDigest(info.stats.counters()),
                  pinned->statDigest)
            << "pinned stat drift, pairs=" << pairs_ << " seed=" << seed_;
        EXPECT_EQ(info.timing.dmaSeconds, pinned->dmaSeconds)
            << "pinned DMA drift, pairs=" << pairs_ << " seed=" << seed_;
        EXPECT_EQ(info.timing.accelSeconds, pinned->accelSeconds)
            << "pinned accelerator-time drift, pairs=" << pairs_
            << " seed=" << seed_;
    }

    /** Expect the match count to equal software's and reproduce `pins`. */
    template <size_t N>
    void
    expectMatchCount(bool use_spm, const PinnedRun (&pins)[N]) const
    {
        ExampleAccelConfig cfg;
        cfg.numPipelines = pipelinesForSize();
        cfg.psize = 8'192;
        cfg.useSpm = use_spm;
        auto hw = ExampleAccelerator(cfg).run(workload_.reads.reads,
                                              workload_.genome);

        std::vector<size_t> all(workload_.reads.reads.size());
        std::iota(all.begin(), all.end(), size_t{0});
        EXPECT_EQ(hw.counts, matchCountsSoftware(workload_.reads.reads,
                                                 all, workload_.genome))
            << "match counts differ, pairs=" << pairs_ << " seed=" << seed_;
        expectPinned(pins, hw.info);
    }

    /**
     * The active-set (sleep/wake) scheduler is a pure host-side
     * optimisation: simulated cycle counts and every merged simulator
     * statistic must be bit-identical with it disabled
     * (GENESIS_SIM_NO_SLEEP=1), and with the idle-cycle fast-forward
     * disabled on top. `run_once` runs one design and returns its
     * AccelRunInfo; the default run must also reproduce the grid point's
     * row of `pins`.
     */
    template <size_t N, typename Run>
    void
    expectSchedulingExact(const PinnedRun (&pins)[N], Run run_once) const
    {
        const AccelRunInfo base = run_once();
        EXPECT_GT(base.totalCycles, 0u);
        expectPinned(pins, base);
        {
            ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
            const AccelRunInfo no_sleep = run_once();
            ::unsetenv("GENESIS_SIM_NO_SLEEP");
            EXPECT_EQ(base.totalCycles, no_sleep.totalCycles)
                << "cycle drift with sleep disabled, pairs=" << pairs_
                << " seed=" << seed_;
            EXPECT_EQ(base.stats.counters(), no_sleep.stats.counters());
        }
        {
            ::setenv("GENESIS_SIM_NO_SLEEP", "1", 1);
            ::setenv("GENESIS_SIM_NO_FASTFORWARD", "1", 1);
            const AccelRunInfo plain = run_once();
            ::unsetenv("GENESIS_SIM_NO_FASTFORWARD");
            ::unsetenv("GENESIS_SIM_NO_SLEEP");
            EXPECT_EQ(base.totalCycles, plain.totalCycles)
                << "cycle drift vs tick-everything, pairs=" << pairs_
                << " seed=" << seed_;
            EXPECT_EQ(base.stats.counters(), plain.stats.counters());
        }
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
    expectPinned(kPinnedMetadata, result.info);

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
    expectPinned(kPinnedBqsr, hw.info);
}

TEST_P(DifferentialGoldenModel, ExampleCountsMatchSoftwareExactly)
{
    expectMatchCount(true, kPinnedExample);
}

TEST_P(DifferentialGoldenModel, ExampleNoSpmCountsMatchSoftwareExactly)
{
    expectMatchCount(false, kPinnedExampleNoSpm);
}

TEST_P(DifferentialGoldenModel, SleepSchedulingIsCycleExact)
{
    expectSchedulingExact(kPinnedMarkDup, [&] {
        auto reads = workload_.reads.reads;
        MarkDupAccelConfig cfg;
        cfg.numPipelines = pipelinesForSize();
        return MarkDupAccelerator(cfg).run(reads).info;
    });
}

// The designs below wait on another module's done(): their SPM readers
// sleep through the preload (Metadata Update, BQSR, the match count with
// its SPM) and BQSR's drains sleep through the count updates.

TEST_P(DifferentialGoldenModel, MetadataSleepSchedulingIsCycleExact)
{
    expectSchedulingExact(kPinnedMetadata, [&] {
        auto reads = workload_.reads.reads;
        MetadataAccelConfig cfg;
        cfg.numPipelines = pipelinesForSize();
        cfg.psize = 8'192;
        return MetadataAccelerator(cfg).run(reads, workload_.genome).info;
    });
}

TEST_P(DifferentialGoldenModel, BqsrSleepSchedulingIsCycleExact)
{
    expectSchedulingExact(kPinnedBqsr, [&] {
        BqsrAccelConfig cfg;
        cfg.numPipelines = pipelinesForSize();
        cfg.psize = 8'192;
        return BqsrAccelerator(cfg)
            .run(workload_.reads.reads, workload_.genome)
            .info;
    });
}

TEST_P(DifferentialGoldenModel, ExampleSleepSchedulingIsCycleExact)
{
    for (bool use_spm : {true, false}) {
        SCOPED_TRACE(use_spm ? "with SPM" : "without SPM");
        expectSchedulingExact(use_spm ? kPinnedExample : kPinnedExampleNoSpm,
                              [&] {
            ExampleAccelConfig cfg;
            cfg.numPipelines = pipelinesForSize();
            cfg.psize = 8'192;
            cfg.useSpm = use_spm;
            return ExampleAccelerator(cfg)
                .run(workload_.reads.reads, workload_.genome)
                .info;
        });
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
