/**
 * @file
 * Multi-tenant accelerator-service load bench (open-loop generator).
 *
 * Drives src/service with the bench read set's quality-sum pipeline
 * (the Mark Duplicates hardware portion, Figure 10) under an open-loop
 * load generator: Poisson arrivals, heavy-tailed (bounded-Pareto) shard
 * sizes, four tenants with weighted-fair shares. The read set is
 * pre-split into chunks whose QUAL columns are cached per board under
 * stable keys, so repeat queries skip the configure_mem DMA-in.
 *
 * Reported as one JSON array:
 *  - a "phase": "warm_cache" record — the same chunk jobs cold then
 *    warm, with per-phase DMA seconds, cache counters, and a
 *    bit-identity verdict (exit 1 when warm != cold results);
 *  - one record per offered-load point ("offered_jps" key): p50 / p99 /
 *    p999 latency (admission -> completion), goodput (completed
 *    jobs/s over the point's makespan), reject + failure counts, and
 *    cache hit rate;
 *  - a "phase": "accounting" record — per-tenant dollars must sum to
 *    the fleet total (exit 1 otherwise).
 *
 * Every job's output is checked against the host-computed golden sums
 * for its chunk (exit 1 on any mismatch) — scheduling order, board
 * placement and cache hits must never change results.
 *
 * Knobs: GENESIS_BENCH_PAIRS (workload size), GENESIS_SERVICE_JOBS
 * (jobs per load point, default 96), GENESIS_SERVICE_* (fleet shape,
 * see ServiceConfig::fromEnv), --dma pcie3|pcie4 (any other preset
 * exits 2), and --require-goodput X (exit 1 unless some point sustains
 * X jobs/s).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "bench_common.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"
#include "service/service.h"

using namespace genesis;

namespace {

/** One pre-split shard of the read set: a cached QUAL column. */
struct Chunk {
    std::string key;
    std::vector<int64_t> qual;
    std::vector<uint32_t> qualLens;
    /** Host-computed per-read quality sums (the golden output). */
    std::vector<int64_t> golden;
};

/**
 * Split the read set into chunks with bounded-Pareto (alpha = 1.5)
 * sizes — a heavy tail: most chunks are small, a few hold a large
 * slice of the reads.
 */
std::vector<Chunk>
makeChunks(const bench::BenchWorkload &workload, size_t num_chunks)
{
    Rng rng(4242);
    const size_t n = workload.reads.size();
    const double alpha = 1.5;
    const double min_share = 0.2; // of the uniform share
    std::vector<double> sizes(num_chunks);
    double total = 0.0;
    for (auto &s : sizes) {
        // Inverse-CDF bounded Pareto, capped at 8x the uniform share.
        double u = rng.uniform();
        s = std::min(min_share / std::pow(1.0 - u, 1.0 / alpha),
                     min_share * 40.0);
        total += s;
    }

    std::vector<Chunk> chunks(num_chunks);
    size_t first = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
        size_t count = static_cast<size_t>(
            sizes[c] / total * static_cast<double>(n));
        if (c + 1 == num_chunks)
            count = n - first;
        count = std::min(count, n - first);
        if (count == 0)
            count = first < n ? 1 : 0;
        Chunk &chunk = chunks[c];
        chunk.key = "reads.QUAL.chunk" + std::to_string(c);
        for (size_t r = first; r < first + count; ++r) {
            const auto &read = workload.reads[r];
            int64_t sum = 0;
            for (uint8_t q : read.qual) {
                chunk.qual.push_back(q);
                sum += q;
            }
            chunk.qualLens.push_back(
                static_cast<uint32_t>(read.qual.size()));
            chunk.golden.push_back(sum);
        }
        first += count;
    }
    return chunks;
}

/** Build fn: per-read quality sums over one chunk's cached column. */
service::JobBuild
qualSumJob(const Chunk &chunk)
{
    return [&chunk](service::JobContext &ctx) {
        auto *in =
            ctx.input(chunk.key, chunk.qual, chunk.qualLens, 1);
        auto *out = ctx.output("QSUM", 4);
        auto &sim = ctx.sim();
        auto *qual_q = sim.makeQueue("qual");
        auto *sum_q = sim.makeQueue("sum");
        modules::MemoryReaderConfig reader_cfg;
        reader_cfg.emitBoundaries = true;
        sim.make<modules::MemoryReader>("rd", in,
                                        sim.memory().makePort(0),
                                        qual_q, reader_cfg);
        modules::ReducerConfig red_cfg;
        red_cfg.op = modules::ReduceOp::Sum;
        red_cfg.granularity = modules::ReduceGranularity::PerItem;
        red_cfg.valueField = 0;
        sim.make<modules::Reducer>("sum", qual_q, sum_q, red_cfg);
        modules::MemoryWriterConfig writer_cfg;
        writer_cfg.fieldIndex = 0;
        writer_cfg.elemSizeBytes = 4;
        sim.make<modules::MemoryWriter>(
            "wr", out, sim.memory().makePort(0), sum_q, writer_cfg);
    };
}

bool
resultMatchesGolden(const service::JobResult &result, const Chunk &chunk)
{
    return result.ok && result.outputs.size() == 1 &&
        result.outputs[0].elements == chunk.golden;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

long long
envJobs()
{
    return envInt64("GENESIS_SERVICE_JOBS", 96, 1);
}

const char *kTenants[] = {"tenantA", "tenantB", "tenantC", "tenantD"};
const double kWeights[] = {1.0, 1.0, 2.0, 4.0};

service::ServiceConfig
makeServiceConfig(const runtime::DmaConfig &dma)
{
    service::ServiceConfig cfg;
    cfg.runtime.dma = dma;
    cfg = service::ServiceConfig::fromEnv(cfg);
    return cfg;
}

void
setWeights(service::AcceleratorService &svc)
{
    for (size_t t = 0; t < std::size(kTenants); ++t)
        svc.setTenantWeight(kTenants[t], kWeights[t]);
}

/** Aggregate outcome of one offered-load point. */
struct LoadPoint {
    double offeredJps = 0.0;
    size_t submitted = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t failed = 0;
    size_t mismatches = 0;
    double makespan = 0.0;
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
    double goodput = 0.0;
    double hitRate = 0.0;
};

/**
 * Open-loop point: submit `jobs` jobs with exponential inter-arrival
 * times at `offered_jps`, never waiting for completions; collect
 * latency (admission -> completion) from the futures afterwards.
 */
LoadPoint
runLoadPoint(const service::ServiceConfig &cfg,
             const std::vector<Chunk> &chunks, double offered_jps,
             size_t jobs, uint64_t seed)
{
    service::AcceleratorService svc(cfg);
    setWeights(svc);
    Rng rng(seed);

    struct InFlight {
        std::shared_future<service::JobResult> future;
        size_t chunk = 0;
    };
    std::vector<InFlight> inflight;
    inflight.reserve(jobs);

    LoadPoint point;
    point.offeredJps = offered_jps;
    point.submitted = jobs;

    const auto start = std::chrono::steady_clock::now();
    double arrival = 0.0; // seconds since start
    for (size_t j = 0; j < jobs; ++j) {
        arrival += -std::log(1.0 - rng.uniform()) / offered_jps;
        std::this_thread::sleep_until(
            start + std::chrono::duration<double>(arrival));
        const size_t c = rng.below(chunks.size());
        service::JobRequest req;
        req.tenant = kTenants[rng.below(std::size(kTenants))];
        req.costHint = static_cast<double>(chunks[c].qual.size());
        req.build = qualSumJob(chunks[c]);
        service::Admission admission = svc.submit(std::move(req));
        if (admission.accepted)
            inflight.push_back({admission.result, c});
        else
            ++point.rejected;
    }
    svc.drain();
    point.makespan = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    std::vector<double> latencies;
    latencies.reserve(inflight.size());
    for (const auto &job : inflight) {
        service::JobResult result = job.future.get();
        if (!result.ok) {
            ++point.failed;
            continue;
        }
        if (!resultMatchesGolden(result, chunks[job.chunk])) {
            ++point.mismatches;
            continue;
        }
        ++point.completed;
        latencies.push_back(result.queueSeconds +
                            result.serviceSeconds);
    }
    std::sort(latencies.begin(), latencies.end());
    point.p50 = percentile(latencies, 0.50);
    point.p99 = percentile(latencies, 0.99);
    point.p999 = percentile(latencies, 0.999);
    point.goodput = point.makespan > 0
        ? static_cast<double>(point.completed) / point.makespan
        : 0.0;
    auto cache = svc.cacheStats();
    point.hitRate = cache.hits + cache.misses > 0
        ? static_cast<double>(cache.hits) /
            static_cast<double>(cache.hits + cache.misses)
        : 0.0;
    svc.stop();
    return point;
}

const char *
argValue(int argc, char **argv, const char *flag)
{
    const size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], flag, flag_len) == 0 &&
            argv[i][flag_len] == '=')
            return argv[i] + flag_len + 1;
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[i + 1];
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *dma_arg = argValue(argc, argv, "--dma");
    const runtime::DmaConfig dma = bench::checkedFlags([&] {
        return runtime::DmaConfig::fromName(dma_arg ? dma_arg : "pcie3");
    });
    const char *goodput_arg = argValue(argc, argv, "--require-goodput");
    const double require_goodput = goodput_arg
        ? bench::flagNumber<double>("--require-goodput", goodput_arg)
        : 0.0;

    auto workload = bench::makeBenchWorkload();
    bench::printHeader("multi-tenant accelerator service (open loop)",
                       workload);
    service::ServiceConfig cfg = makeServiceConfig(dma);
    const int total_slots = cfg.numBoards * cfg.slotsPerBoard;
    std::printf("fleet: %d boards x %d slots, queue %zu, dma %s\n\n",
                cfg.numBoards, cfg.slotsPerBoard, cfg.queueCapacity,
                dma.name.c_str());

    constexpr size_t kChunks = 16;
    std::vector<Chunk> chunks = makeChunks(workload, kChunks);
    bool ok = true;

    std::printf("[\n");

    // --- Warm-cache phase: every chunk cold, then every chunk warm ----
    // One board: per-board caches mean a multi-board fleet would land
    // some warm jobs on a board that never saw the chunk.
    double cold_dma = 0.0, warm_dma = 0.0;
    {
        service::ServiceConfig warm_cfg = cfg;
        warm_cfg.numBoards = 1;
        service::AcceleratorService svc(warm_cfg);
        setWeights(svc);
        bool waves_identical = true;
        auto run_wave = [&](double *dma_seconds) {
            std::vector<std::shared_future<service::JobResult>> wave;
            for (size_t c = 0; c < chunks.size(); ++c) {
                service::JobRequest req;
                req.tenant = kTenants[c % std::size(kTenants)];
                req.build = qualSumJob(chunks[c]);
                auto admission = svc.submit(std::move(req));
                if (admission.accepted)
                    wave.push_back(admission.result);
            }
            svc.drain();
            for (size_t c = 0; c < wave.size(); ++c) {
                service::JobResult result = wave[c].get();
                if (!resultMatchesGolden(result, chunks[c]))
                    waves_identical = false;
                *dma_seconds += result.timing.dmaSeconds;
            }
        };
        run_wave(&cold_dma);
        run_wave(&warm_dma);
        auto cache = svc.cacheStats();
        // Warm jobs flush outputs back over DMA but never DMA inputs
        // in: their total DMA must be well under the cold wave's. With
        // the cache explicitly disabled (GENESIS_SERVICE_NO_CACHE) the
        // warm wave re-DMAs everything, so only correctness is gated.
        const bool dma_drops = warm_dma < cold_dma;
        if (!waves_identical)
            ok = false;
        if (warm_cfg.enableCache &&
            (!dma_drops || cache.hits < chunks.size()))
            ok = false;
        std::printf(
            "  {\"phase\": \"warm_cache\", \"chunks\": %zu, "
            "\"cache_enabled\": %s, "
            "\"cold_dma_seconds\": %.6f, \"warm_dma_seconds\": %.6f, "
            "\"cache_hits\": %llu, \"cache_misses\": %llu, "
            "\"bit_identical\": %s, \"dma_drops_when_warm\": %s},\n",
            chunks.size(), warm_cfg.enableCache ? "true" : "false",
            cold_dma, warm_dma,
            static_cast<unsigned long long>(cache.hits),
            static_cast<unsigned long long>(cache.misses),
            waves_identical ? "true" : "false",
            dma_drops ? "true" : "false");
        svc.stop();
    }

    // --- Calibrate the fleet's service rate ---------------------------
    double mean_service = 0.0;
    {
        service::AcceleratorService svc(cfg);
        size_t measured = 0;
        for (size_t c = 0; c < chunks.size(); ++c) {
            service::JobRequest req;
            req.build = qualSumJob(chunks[c]);
            auto result = svc.submit(std::move(req)).result.get();
            if (result.ok) {
                mean_service += result.serviceSeconds;
                ++measured;
            }
        }
        mean_service = measured ? mean_service / measured : 0.01;
        svc.stop();
    }
    const double capacity_jps =
        mean_service > 0 ? total_slots / mean_service : 100.0;
    std::printf("  {\"phase\": \"calibration\", "
                "\"mean_service_seconds\": %.6f, "
                "\"capacity_jps\": %.2f},\n",
                mean_service, capacity_jps);

    // --- Offered-load sweep -------------------------------------------
    const size_t jobs = static_cast<size_t>(envJobs());
    const double load_factors[] = {0.25, 0.5, 1.0, 2.0};
    double best_goodput = 0.0;
    for (size_t i = 0; i < std::size(load_factors); ++i) {
        LoadPoint point =
            runLoadPoint(cfg, chunks, load_factors[i] * capacity_jps,
                         jobs, 1000 + i);
        if (point.mismatches > 0 || point.failed > 0)
            ok = false;
        best_goodput = std::max(best_goodput, point.goodput);
        std::printf(
            "  {\"offered_jps\": %.2f, \"load_factor\": %.2f, "
            "\"jobs\": %zu, \"completed\": %zu, \"rejected\": %zu, "
            "\"failed\": %zu, \"mismatches\": %zu, "
            "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"p999_ms\": %.2f, "
            "\"goodput_jps\": %.2f, \"makespan_seconds\": %.3f, "
            "\"cache_hit_rate\": %.3f},\n",
            point.offeredJps, load_factors[i], point.submitted,
            point.completed, point.rejected, point.failed,
            point.mismatches, point.p50 * 1e3, point.p99 * 1e3,
            point.p999 * 1e3, point.goodput, point.makespan,
            point.hitRate);
    }

    // --- Accounting: per-tenant dollars sum to the fleet total --------
    {
        service::AcceleratorService svc(cfg);
        setWeights(svc);
        Rng rng(77);
        std::vector<std::shared_future<service::JobResult>> futures;
        for (size_t j = 0; j < 32; ++j) {
            const size_t c = rng.below(chunks.size());
            service::JobRequest req;
            req.tenant = kTenants[rng.below(std::size(kTenants))];
            req.costHint = static_cast<double>(chunks[c].qual.size());
            req.build = qualSumJob(chunks[c]);
            auto admission = svc.submit(std::move(req));
            if (admission.accepted)
                futures.push_back(admission.result);
        }
        for (auto &f : futures)
            f.get();
        svc.drain();
        double tenant_dollars = 0.0, tenant_accel = 0.0;
        for (const auto &usage : svc.usage()) {
            tenant_dollars += usage.dollars;
            tenant_accel += usage.accelSeconds;
        }
        const double fleet_dollars = svc.fleetDollars();
        const double rel = fleet_dollars > 0
            ? std::fabs(tenant_dollars - fleet_dollars) / fleet_dollars
            : 0.0;
        const bool balanced = rel < 1e-9;
        if (!balanced)
            ok = false;
        std::printf("  {\"phase\": \"accounting\", "
                    "\"tenant_dollars\": %.9f, "
                    "\"fleet_dollars\": %.9f, "
                    "\"fleet_accel_seconds\": %.6f, "
                    "\"tenant_accel_seconds\": %.6f, "
                    "\"balanced\": %s}\n",
                    tenant_dollars, fleet_dollars,
                    svc.fleetAccelSeconds(), tenant_accel,
                    balanced ? "true" : "false");
        svc.stop();
    }
    std::printf("]\n");

    if (require_goodput > 0 && best_goodput < require_goodput) {
        std::fprintf(stderr,
                     "FAIL: best goodput %.2f jobs/s below required "
                     "%.2f\n",
                     best_goodput, require_goodput);
        return 1;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "FAIL: mismatched results, failed jobs, or "
                     "unbalanced accounting (see records)\n");
        return 1;
    }
    std::printf("\nall jobs bit-identical to host goldens; accounting "
                "balanced\n");
    return 0;
}
