/**
 * @file
 * Tests for the design-space exploration harness (src/dse): grid
 * enumeration, worker-count determinism, Pareto dominance, per-point
 * error capture, and the frontier sanity gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/logging.h"
#include "core/metadata_accel.h"
#include "dse/dse.h"
#include "pipeline/resource_model.h"

namespace genesis::dse {
namespace {

/** A cheap markdup-only grid for the end-to-end tests. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.accels = {Accel::MarkDup};
    spec.pipelines = {4};
    spec.psizes = {32'768};
    spec.memPresets = {"f1-ddr4", "pim"};
    spec.dmaPresets = {"pcie3"};
    spec.clocksMHz = {250.0};
    spec.numPairs = 60;
    return spec;
}

TEST(DseSpec, DefaultGridCoversTheIssueFloor)
{
    SweepSpec spec = SweepSpec::defaultGrid();
    // >= 40 points across >= 4 swept knob axes (ISSUE acceptance).
    EXPECT_GE(spec.numPoints(), 40u);
    int swept_axes = 0;
    swept_axes += spec.pipelines.size() > 1;
    swept_axes += spec.psizes.size() > 1;
    swept_axes += spec.memPresets.size() > 1;
    swept_axes += spec.dmaPresets.size() > 1;
    swept_axes += spec.clocksMHz.size() > 1;
    EXPECT_GE(swept_axes, 4);
    // The grid includes a near-bank/PIM-style memory configuration.
    EXPECT_NE(std::find(spec.memPresets.begin(), spec.memPresets.end(),
                        "pim"),
              spec.memPresets.end());
    EXPECT_TRUE(spec.validate().empty());
}

TEST(DseSpec, PimPresetIsNearBank)
{
    const MemPreset *pim = nullptr;
    for (const auto &preset : builtinMemPresets()) {
        if (preset.name == "pim")
            pim = &preset;
    }
    ASSERT_NE(pim, nullptr);
    EXPECT_TRUE(pim->nearBank);
    EXPECT_LT(pim->dmaTrafficFraction, 1.0);
    EXPECT_GT(pim->memory.numChannels, 4);
    // The built-in presets must all be simulatable.
    for (const auto &preset : builtinMemPresets())
        EXPECT_TRUE(sim::validate(preset.memory).empty())
            << preset.name;
}

TEST(DseSpec, ValidateNamesTheEmptyAxis)
{
    SweepSpec spec;
    spec.accels.clear();
    spec.clocksMHz = {0.0};
    spec.pipelines = {0};
    std::vector<std::string> errors = spec.validate();
    auto contains = [&errors](const char *needle) {
        for (const auto &e : errors) {
            if (e.find(needle) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(contains("accels"));
    EXPECT_TRUE(contains("clocksMHz[0]"));
    EXPECT_TRUE(contains("pipelines[0]"));
    EXPECT_THROW(runSweep(spec), FatalError);
}

TEST(DseSpec, EnumerationIsDeterministicWithDistinctSeeds)
{
    SweepSpec spec = SweepSpec::defaultGrid();
    std::vector<SweepPoint> a = enumeratePoints(spec);
    std::vector<SweepPoint> b = enumeratePoints(spec);
    ASSERT_EQ(a.size(), spec.numPoints());
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, i);
        EXPECT_EQ(a[i].seed, b[i].seed);
        seeds.push_back(a[i].seed);
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

TEST(DseSweep, FrontierJsonIsByteIdenticalAtAnyWorkerCount)
{
    SweepSpec spec = smallSpec();
    HarnessOptions serial;
    serial.workers = 1;
    HarnessOptions wide;
    wide.workers = 4;
    SweepResult a = runSweep(spec, serial);
    SweepResult b = runSweep(spec, wide);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_TRUE(checkFrontier(a).empty());
}

TEST(DseSweep, SlowClockPointIsDominatedAndExcluded)
{
    // Same architecture at 125 vs 250 MHz: identical price and
    // resources, strictly lower throughput — provably dominated, so it
    // must not appear on the frontier.
    SweepSpec spec = smallSpec();
    spec.memPresets = {"f1-ddr4"};
    spec.clocksMHz = {125.0, 250.0};
    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 2u);
    const PointResult &slow = result.points[0];
    const PointResult &fast = result.points[1];
    ASSERT_TRUE(slow.ok);
    ASSERT_TRUE(fast.ok);
    EXPECT_LT(slow.basesPerSecond, fast.basesPerSecond);
    EXPECT_DOUBLE_EQ(slow.dollarsPerHour, fast.dollarsPerHour);
    EXPECT_DOUBLE_EQ(slow.maxUtilPct, fast.maxUtilPct);
    EXPECT_TRUE(dominates(fast, slow));
    EXPECT_FALSE(dominates(slow, fast));
    ASSERT_EQ(result.frontiers.count("markdup"), 1u);
    EXPECT_EQ(result.frontiers.at("markdup"),
              (std::vector<size_t>{1}));
    EXPECT_TRUE(checkFrontier(result).empty());
}

TEST(DseSweep, ResourcesPriceEveryPipelineOfTheDesign)
{
    // The workload's two chromosomes make three 131 072 bp partitions,
    // so a run fills only three of the design's 16 pipelines; the
    // point's resources must still count all 16.
    SweepSpec spec = smallSpec();
    spec.accels = {Accel::Metadata};
    spec.pipelines = {16};
    spec.psizes = {131'072};
    spec.memPresets = {"f1-ddr4"};
    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 1u);
    const PointResult &pt = result.points[0];
    ASSERT_TRUE(pt.ok) << pt.error;
    pipeline::ResourceUsage design = pipeline::estimateResources(
        core::MetadataAccelerator::census(16, 131'072));
    EXPECT_EQ(pt.luts, design.luts);
    EXPECT_EQ(pt.bramMiB, design.bramMiB);
}

TEST(DseSweep, InvalidPresetIsACleanPerPointError)
{
    setQuiet(true);
    SweepSpec spec = smallSpec();
    MemPreset broken;
    broken.name = "broken";
    broken.memory.numChannels = 0;
    spec.customPresets = {broken};
    spec.memPresets = {"broken", "f1-ddr4"};
    SweepResult result = runSweep(spec);
    setQuiet(false);
    ASSERT_EQ(result.points.size(), 2u);
    const PointResult &bad = result.points[0];
    const PointResult &good = result.points[1];
    EXPECT_FALSE(bad.ok);
    // The error names the offending field, prefixed by the model.
    EXPECT_NE(bad.error.find("memory.numChannels"), std::string::npos)
        << bad.error;
    EXPECT_TRUE(good.ok) << good.error;
    // The broken point never reaches the frontier; the sweep survives.
    for (size_t i : result.frontiers.at("markdup"))
        EXPECT_NE(i, bad.point.index);
    EXPECT_TRUE(checkFrontier(result).empty());
}

TEST(DseSweep, UnknownPresetNameIsAPerPointError)
{
    SweepSpec spec = smallSpec();
    spec.memPresets = {"no-such-preset"};
    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 1u);
    EXPECT_FALSE(result.points[0].ok);
    EXPECT_NE(result.points[0].error.find("memPreset"),
              std::string::npos);
    // All points failed: the gate reports the starved frontier.
    EXPECT_FALSE(checkFrontier(result).empty());
}

TEST(DseSweep, CheckFrontierCatchesACorruptedFrontier)
{
    SweepSpec spec = smallSpec();
    spec.memPresets = {"f1-ddr4"};
    spec.clocksMHz = {125.0, 250.0};
    SweepResult result = runSweep(spec);
    ASSERT_TRUE(checkFrontier(result).empty());
    // Put the dominated point on the frontier instead.
    result.frontiers["markdup"] = {0};
    std::vector<std::string> problems = checkFrontier(result);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("dominated"), std::string::npos);
    // An empty frontier despite feasible points is also a failure.
    result.frontiers["markdup"] = {};
    EXPECT_FALSE(checkFrontier(result).empty());
}

TEST(DseDominance, StrictImprovementRequired)
{
    PointResult a, b;
    a.basesPerSecond = b.basesPerSecond = 100.0;
    a.dollarsPerGenome = b.dollarsPerGenome = 2.0;
    a.maxUtilPct = b.maxUtilPct = 50.0;
    // Identical points tie: neither dominates.
    EXPECT_FALSE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    a.dollarsPerGenome = 1.5;
    EXPECT_TRUE(dominates(a, b));
    // A trade-off (faster but more expensive) is not dominance.
    b.basesPerSecond = 150.0;
    EXPECT_FALSE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
}

TEST(DseDominance, FrontierKeepsOnlyNonDominated)
{
    std::vector<PointResult> pts(3);
    pts[0].basesPerSecond = 100;
    pts[0].dollarsPerGenome = 1.0;
    pts[0].maxUtilPct = 10;
    pts[1].basesPerSecond = 200;
    pts[1].dollarsPerGenome = 2.0;
    pts[1].maxUtilPct = 20;
    pts[2].basesPerSecond = 90; // dominated by pts[0]
    pts[2].dollarsPerGenome = 1.5;
    pts[2].maxUtilPct = 15;
    std::vector<size_t> frontier = paretoFrontier(pts, {0, 1, 2});
    EXPECT_EQ(frontier, (std::vector<size_t>{0, 1}));
}

} // namespace
} // namespace genesis::dse
