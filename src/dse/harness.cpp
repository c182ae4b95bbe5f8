/**
 * @file
 * Sweep execution: one simulation per point, points farmed across host
 * threads, metrics joined from the cost and resource models. See dse.h
 * for the determinism contract.
 */

#include "dse/dse.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "base/env.h"
#include "base/logging.h"
#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "cost/cost.h"
#include "genome/read_simulator.h"
#include "pipeline/resource_model.h"

namespace genesis::dse {

namespace {

/** The genome size $/genome is scaled to (700 M x 151 bp reads). */
constexpr double kGenomeBases = 700e6 * 151.0;

/** Deterministic synthetic workload shared by (or per) sweep points. */
struct Workload {
    genome::ReferenceGenome genome;
    std::vector<genome::AlignedRead> reads;
    int64_t totalBases = 0;
};

Workload
makeWorkload(uint64_t seed, int64_t num_pairs)
{
    Workload w;
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = 2;
    gcfg.firstChromosomeLength = 200'000;
    gcfg.lengthDecay = 0.6;
    gcfg.minChromosomeLength = 80'000;
    gcfg.seed = seed;
    w.genome = genome::ReferenceGenome::synthesize(gcfg);

    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = num_pairs;
    rcfg.seed = seed * 17 + 3;
    w.reads = genome::ReadSimulator(w.genome, rcfg).simulate().reads;
    for (const auto &read : w.reads)
        w.totalBases += static_cast<int64_t>(read.seq.size());
    return w;
}

/** Resolve a preset name: custom presets shadow the built-ins. */
const MemPreset *
findPreset(const SweepSpec &spec, const std::string &name)
{
    for (const auto &preset : spec.customPresets) {
        if (preset.name == name)
            return &preset;
    }
    for (const auto &preset : builtinMemPresets()) {
        if (preset.name == name)
            return &preset;
    }
    return nullptr;
}

std::string
joinErrors(const std::vector<std::string> &errors)
{
    std::string joined;
    for (const auto &e : errors)
        joined += (joined.empty() ? "" : "; ") + e;
    return joined;
}

/** Simulate one point and join the models. Never throws: any model
 *  rejection or failure becomes the point's error string. */
PointResult
runPoint(const SweepPoint &pt, const SweepSpec &spec,
         const Workload *shared)
{
    PointResult r;
    r.point = pt;
    try {
        const MemPreset *preset = findPreset(spec, pt.memPreset);
        if (!preset) {
            r.error = strfmt("memPreset: unknown preset '%s'",
                             pt.memPreset.c_str());
            return r;
        }

        runtime::RuntimeConfig rt;
        rt.clockHz = pt.clockMHz * 1e6;
        rt.dma = runtime::DmaConfig::fromName(pt.dmaPreset);
        rt.memory = preset->memory;

        std::vector<std::string> errors = runtime::validate(rt);
        if (pt.numPipelines < 1) {
            errors.push_back(strfmt("numPipelines: must be >= 1 "
                                    "(got %d)", pt.numPipelines));
        }
        if (pt.psize < 1) {
            errors.push_back(strfmt("psize: must be >= 1 (got %lld)",
                                    static_cast<long long>(pt.psize)));
        }
        if (!errors.empty()) {
            r.error = joinErrors(errors);
            return r;
        }

        Workload local;
        if (!shared)
            local = makeWorkload(pt.seed, spec.numPairs);
        const Workload &w = shared ? *shared : local;
        r.totalBases = w.totalBases;

        core::AccelRunInfo info;
        switch (pt.accel) {
          case Accel::MarkDup: {
            auto reads = w.reads;
            core::MarkDupAccelConfig cfg;
            cfg.numPipelines = pt.numPipelines;
            cfg.runtime = rt;
            info = std::move(
                core::MarkDupAccelerator(cfg).run(reads).info);
            break;
          }
          case Accel::Metadata: {
            auto reads = w.reads;
            core::MetadataAccelConfig cfg;
            cfg.numPipelines = pt.numPipelines;
            cfg.runtime = rt;
            cfg.psize = pt.psize;
            info = std::move(
                core::MetadataAccelerator(cfg).run(reads, w.genome)
                    .info);
            break;
          }
          case Accel::Bqsr: {
            core::BqsrAccelConfig cfg;
            cfg.numPipelines = pt.numPipelines;
            cfg.runtime = rt;
            cfg.psize = pt.psize;
            info = std::move(
                core::BqsrAccelerator(cfg).run(w.reads, w.genome).info);
            break;
          }
        }

        // Modeled hardware time only: simulated accelerator seconds
        // plus the DMA transfer model, scaled by the preset's resident
        // fraction. Host wall-clock buckets are excluded so the
        // frontier is deterministic.
        r.cycles = info.totalCycles;
        r.accelSeconds = info.timing.accelSeconds;
        r.dmaSeconds = info.timing.dmaSeconds * preset->dmaTrafficFraction;
        double hw_seconds = r.accelSeconds + r.dmaSeconds;
        if (!(hw_seconds > 0)) {
            r.error = "model: zero modeled hardware time";
            return r;
        }
        r.basesPerSecond =
            static_cast<double>(r.totalBases) / hw_seconds;

        r.dollarsPerHour = cost::boardDollarsPerHour(
            preset->memory.numChannels, rt.dma.name == "pcie4",
            preset->nearBank);
        double genome_seconds =
            hw_seconds * kGenomeBases / static_cast<double>(r.totalBases);
        r.dollarsPerGenome =
            genome_seconds / 3600.0 * r.dollarsPerHour;

        pipeline::ResourceUsage usage =
            pipeline::estimateResources(info.census);
        r.luts = usage.luts;
        r.registers = usage.registers;
        r.bramMiB = usage.bramMiB;
        r.lutPct = usage.lutUtilization();
        r.regPct = usage.registerUtilization();
        r.bramPct = usage.bramUtilization();
        r.maxUtilPct = std::max({r.lutPct, r.regPct, r.bramPct});
        r.fits = r.maxUtilPct <= 100.0;
        r.ok = true;
    } catch (const FatalError &e) {
        r.ok = false;
        r.error = e.what();
    } catch (const PanicError &e) {
        r.ok = false;
        r.error = std::string("internal: ") + e.what();
    }
    return r;
}

} // namespace

SweepResult
runSweep(const SweepSpec &spec, const HarnessOptions &options)
{
    std::vector<std::string> spec_errors = spec.validate();
    if (!spec_errors.empty())
        fatal("invalid SweepSpec: %s", joinErrors(spec_errors).c_str());

    SweepResult result;
    result.spec = spec;
    std::vector<SweepPoint> points = enumeratePoints(spec);
    result.points.resize(points.size());

    Workload shared;
    if (!spec.perPointWorkloads)
        shared = makeWorkload(spec.seed, spec.numPairs);
    const Workload *shared_ptr =
        spec.perPointWorkloads ? nullptr : &shared;

    int workers = static_cast<int>(envInt64(
        "GENESIS_DSE_WORKERS", options.workers, 0, 1024));
    if (workers <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = static_cast<int>(hw ? hw : 1);
    }
    workers = std::max(
        1, std::min(workers, static_cast<int>(points.size())));

    // Farm the points over `workers` threads pulling the next index.
    // Results land at their point's index, so farming order never shows
    // in the output. The first exception escaping a point is rethrown
    // after every thread joined; the other threads finish their points.
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto farm = [&] {
        for (size_t i = next++; i < points.size(); i = next++) {
            try {
                result.points[i] = runPoint(points[i], spec, shared_ptr);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    {
        // jthread joins on destruction, also if a later spawn throws.
        std::vector<std::jthread> threads;
        for (int t = 0; t < workers; ++t)
            threads.emplace_back(farm);
    }
    if (first_error)
        std::rethrow_exception(first_error);

    // Per-accelerator Pareto frontiers over the feasible points.
    for (Accel accel : spec.accels) {
        std::string name = accelName(accel);
        if (result.frontiers.count(name))
            continue; // duplicate axis entry
        std::vector<size_t> eligible;
        for (size_t i = 0; i < result.points.size(); ++i) {
            const PointResult &p = result.points[i];
            if (p.point.accel == accel && p.ok && p.fits)
                eligible.push_back(i);
        }
        result.frontiers[name] =
            paretoFrontier(result.points, eligible);
    }
    return result;
}

} // namespace genesis::dse
