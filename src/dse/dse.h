/**
 * @file
 * Design-space exploration (DSE) harness over the Genesis hardware
 * models (ROADMAP item 5, DESIGN.md §10).
 *
 * A SweepSpec is a cross-product grid over the architectural knobs —
 * pipeline replication x SPM partition size x memory architecture
 * (DRAM channels/banks, including a near-bank/PIM-style preset) x PCIe
 * generation x accelerator clock — evaluated for each of the three
 * paper accelerators (markdup / metadata / BQSR). Every point runs one
 * full simulation of a deterministic synthetic workload; points are
 * farmed across host threads (one simulation per thread at a time).
 * Each point's simulated throughput is joined with
 * cost::boardDollarsPerHour (-> $/genome, scaled to a 700 M-read
 * genome) and pipeline::estimateResources (-> VU9P
 * LUT/FF/BRAM utilization) to produce per-accelerator Pareto frontiers
 * of throughput vs $/genome vs FPGA utilization.
 *
 * Determinism contract: the frontier JSON is a pure function of the
 * sweep spec — metrics use only *modeled* time (simulated cycles /
 * clockHz plus the DMA transfer model), never wall clock, and points
 * are collected by index — so the output is byte-identical at any
 * harness worker count.
 *
 * An invalid point (e.g. zero memory channels in a custom preset) is a
 * clean per-point error naming the offending field via
 * runtime::validate / sim::validate; the rest of the sweep proceeds.
 */

#ifndef GENESIS_DSE_DSE_H
#define GENESIS_DSE_DSE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/memory.h"

namespace genesis::dse {

/** The three paper accelerators a sweep evaluates. */
enum class Accel { MarkDup, Metadata, Bqsr };

/** @return the stable identifier ("markdup" / "metadata" / "bqsr"). */
const char *accelName(Accel accel);

/**
 * One memory-architecture preset: a named MemoryConfig plus the
 * architectural attributes the cost model and the DMA model need. The
 * "pim" preset models a near-bank processing-in-memory organization
 * (many channels, low per-access latency) where most column traffic is
 * resident in the stacks, so only `dmaTrafficFraction` of the modeled
 * host<->card transfer time crosses PCIe.
 */
struct MemPreset {
    std::string name;
    sim::MemoryConfig memory;
    /** Near-bank / PIM-style organization (priced as a premium part). */
    bool nearBank = false;
    /** Fraction of modeled DMA time that still crosses the PCIe link. */
    double dmaTrafficFraction = 1.0;
};

/** @return the built-in presets: f1-ddr4, f1-ddr4-8ch, hbm, pim. */
const std::vector<MemPreset> &builtinMemPresets();

/** Grid specification: the cross product of every axis. */
struct SweepSpec {
    std::vector<Accel> accels{Accel::MarkDup, Accel::Metadata,
                              Accel::Bqsr};
    std::vector<int> pipelines{4, 16};
    /** SPM partition sizes (reference window base pairs; ignored by the
     *  SPM-less markdup pipeline but recorded in its points). */
    std::vector<int64_t> psizes{32'768, 131'072};
    /** Names resolved against customPresets then builtinMemPresets(). */
    std::vector<std::string> memPresets{"f1-ddr4", "pim"};
    /** DmaConfig preset names ("pcie3" / "pcie4"). */
    std::vector<std::string> dmaPresets{"pcie3", "pcie4"};
    std::vector<double> clocksMHz{250.0, 400.0};
    /** Workload seed; also the base of every per-point seed. */
    uint64_t seed = 2020;
    /** Read pairs in the synthetic workload. */
    int64_t numPairs = 400;
    /**
     * When false (default) all points simulate one shared workload
     * synthesized from `seed`, so frontier differences are purely
     * architectural. When true each point synthesizes its own workload
     * from its per-point seed (workload-robustness sweeps).
     */
    bool perPointWorkloads = false;
    /** Extra presets consulted before the built-ins (tests, PIM
     *  variants, deliberately-broken configs). */
    std::vector<MemPreset> customPresets;

    /** @return the default grid (the bench/sim_dse sweep). */
    static SweepSpec defaultGrid() { return SweepSpec(); }

    size_t numPoints() const;

    /** @return "field: problem" lines for every invalid axis (empty =
     *  valid). Unknown preset *names* are reported per point at run
     *  time, not here, so one bad name cannot kill a whole sweep. */
    std::vector<std::string> validate() const;
};

/** One grid point (a full accelerator configuration). */
struct SweepPoint {
    size_t index = 0;
    Accel accel = Accel::MarkDup;
    int numPipelines = 0;
    int64_t psize = 0;
    std::string memPreset;
    std::string dmaPreset;
    double clockMHz = 0.0;
    /** Deterministic per-point seed derived from spec.seed + index. */
    uint64_t seed = 0;
};

/** @return the spec's points in deterministic grid order. */
std::vector<SweepPoint> enumeratePoints(const SweepSpec &spec);

/** Simulated + modeled metrics of one evaluated point. */
struct PointResult {
    SweepPoint point;
    /** False when the configuration was rejected or the run failed;
     *  `error` then names the offending field or failure. */
    bool ok = false;
    std::string error;

    int64_t totalBases = 0;
    uint64_t cycles = 0;
    /** Modeled time only (deterministic): simulated cycles / clock and
     *  the DMA transfer model scaled by the preset's PCIe fraction. */
    double accelSeconds = 0.0;
    double dmaSeconds = 0.0;
    double basesPerSecond = 0.0;

    double dollarsPerHour = 0.0;
    /** Hardware dollars for a 700 M-read genome at this throughput. */
    double dollarsPerGenome = 0.0;

    uint64_t luts = 0;
    uint64_t registers = 0;
    double bramMiB = 0.0;
    double lutPct = 0.0;
    double regPct = 0.0;
    double bramPct = 0.0;
    double maxUtilPct = 0.0;
    /** True when every resource fits the VU9P (<= 100%). */
    bool fits = false;
};

/** A completed sweep: every point plus the per-accelerator frontiers. */
struct SweepResult {
    SweepSpec spec;
    std::vector<PointResult> points;
    /** accel name -> Pareto-optimal point indices (ascending). Only
     *  ok && fits points are eligible. */
    std::map<std::string, std::vector<size_t>> frontiers;
};

struct HarnessOptions {
    /** Concurrent points (0 = auto: hardware_concurrency, capped by the
     *  point count). `sim_dse` reads it from GENESIS_DSE_WORKERS, then
     *  from --workers. The frontier JSON is byte-identical at any
     *  value. */
    int workers = 0;
};

/** Run the sweep: simulate every point, join the models, build the
 *  frontiers. Fatal on an invalid spec (bad *axis*); an invalid *point*
 *  is recorded as that point's error. */
SweepResult runSweep(const SweepSpec &spec,
                     const HarnessOptions &options = HarnessOptions());

/** @return true when `a` Pareto-dominates `b` (no worse on throughput,
 *  $/genome and max utilization; strictly better on at least one). */
bool dominates(const PointResult &a, const PointResult &b);

/** @return the non-dominated subset of `candidates` (ascending). */
std::vector<size_t>
paretoFrontier(const std::vector<PointResult> &points,
               const std::vector<size_t> &candidates);

/** Serialize the whole sweep (spec, points, frontiers) as one JSON
 *  object with fixed field order and formatting (byte-stable). */
std::string toJson(const SweepResult &result);

/** Human-readable sweep summary with per-accelerator frontier tables. */
std::string summary(const SweepResult &result);

/**
 * Frontier sanity gate (CI): every accelerator with at least one
 * eligible point has a non-empty frontier; every frontier point is ok,
 * fits, and is not dominated by any eligible point (monotone front);
 * every eligible non-frontier point is dominated by a frontier point.
 * @return problem descriptions (empty = sane).
 */
std::vector<std::string> checkFrontier(const SweepResult &result);

} // namespace genesis::dse

#endif // GENESIS_DSE_DSE_H
