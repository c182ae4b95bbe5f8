/**
 * @file
 * stages16: Mark Duplicates x16, Metadata Update x16 (psize 131 072)
 * and BQSR x8 over one synthesized read set — the paper's three stages
 * at its pipeline counts. Simulator host time dominates each run(), so
 * simulator-core, DRAM-model and accelerator-model changes show here.
 *
 * The simulator runs on one thread: on a host whose cores are shared
 * with other tenants, its spinning lane workers measure the neighbours
 * (pass times spread 155 % between runs with the default thread count),
 * and one thread is as fast here (a pass's wall time was the same).
 *
 * Each pass runs on fresh read copies made outside the timer. Results
 * are checked against gatk::markDuplicates, gatk::setNmMdUqTags and
 * gatk::buildCovariateTable, computed once per run.
 */

#include <algorithm>

#include "core/bqsr_accel.h"
#include "core/markdup_accel.h"
#include "core/metadata_accel.h"
#include "gatk/bqsr.h"
#include "gatk/markdup.h"
#include "gatk/metadata.h"
#include "workloads.h"

namespace genesis::benchmark {

namespace {

double
ratio(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Per-stage numbers of one run() call. */
struct StageRun {
    double wallS = 0, cpuS = 0;
    const core::AccelRunInfo *info = nullptr;
};

/** Record the per-layer samples of one stage; returns its sim seconds. */
double
recordStage(Results &r, const std::string &s, const StageRun &run)
{
    const core::AccelRunInfo &info = *run.info;
    const StatRegistry &st = info.stats;
    const double sim_s =
        run.wallS - info.prepSeconds - info.timing.hostSeconds;
    const uint64_t flits = sumModuleCounters(st, ".flits");

    r.sample("core." + s + ".prep_s", "s", info.prepSeconds);
    r.sample("core." + s + ".host_s", "s", info.timing.hostSeconds);
    r.sample("sim." + s + ".run_s", "s", sim_s);
    r.sample("sim." + s + ".ns_per_flit", "ns", sim_s * 1e9 /
             static_cast<double>(std::max<uint64_t>(flits, 1)));
    r.sample("sim." + s + ".cpu_util", "ratio",
             run.cpuS / (run.wallS * hostThreads()));
    r.exact("sim." + s + ".cycles", "count",
            static_cast<double>(info.totalCycles));
    r.exact("sim." + s + ".flits", "count", static_cast<double>(flits));
    for (const char *why : {"backpressure", "memory", "starved"}) {
        r.exact("sim." + s + ".stall_cycles." + why, "count",
                static_cast<double>(
                    sumModuleCounters(st, std::string(".stall.") + why)));
    }
    const std::string mem = "sim.mem." + s + ".";
    r.exact(mem + "read_bytes", "bytes",
            static_cast<double>(st.get("mem.read_bytes")));
    r.exact(mem + "write_bytes", "bytes",
            static_cast<double>(st.get("mem.write_bytes")));
    r.exact(mem + "row_hit_ratio", "ratio",
            ratio(st.get("mem.row_hits"),
                  st.get("mem.row_hits") + st.get("mem.row_misses")));
    r.exact(mem + "bank_conflict_cycles", "count",
            static_cast<double>(st.get("mem.bank_conflict_cycles")));
    r.exact(mem + "channel_busy_frac", "ratio",
            ratio(st.get("mem.channel_busy_cycles"),
                  st.get("mem.channel_busy_cycles") +
                      st.get("mem.channel_idle_cycles")));
    r.exact("runtime." + s + ".dma_s", "s", info.timing.dmaSeconds);
    r.exact("runtime." + s + ".accel_s", "s", info.timing.accelSeconds);
    return sim_s;
}

template <typename Fn>
StageRun
timeStage(SpanRecorder &rec, const char *span, int64_t request, Fn &&fn)
{
    SpanRecorder::Scope scope(rec, span, request);
    StageRun run;
    double cpu0 = processCpuSeconds();
    int64_t t0 = nowNs();
    run.info = fn();
    run.wallS = secondsSince(t0);
    run.cpuS = processCpuSeconds() - cpu0;
    return run;
}

} // namespace

void
runStages16(const Options &opts, Results &results)
{
    // A 96 kbp reference: two 131 072 bp partitions, so a pass takes
    // about 0.6 s and a run holds dozens of them.
    const int64_t pairs = opts.smoke ? 60 : 300;
    Inputs in;
    const auto setup = [&] { in = makeInputs(pairs, opts.seed, 60'000); };
    timeSetup(results, setup);

    // Software references, once per run (outside every timed window).
    auto ref_md = in.reads;
    auto ref_mu = in.reads;
    int64_t t0 = nowNs();
    const gatk::MarkDuplicatesStats ref_md_stats =
        gatk::markDuplicates(ref_md);
    results.sample("gatk.markdup.verify_s", "s", secondsSince(t0));
    t0 = nowNs();
    gatk::setNmMdUqTags(ref_mu, in.genome);
    results.sample("gatk.metadata.verify_s", "s", secondsSince(t0));
    t0 = nowNs();
    core::BqsrAccelConfig bq_cfg;
    bq_cfg.numPipelines = 8;
    bq_cfg.psize = 131'072;
    bq_cfg.runtime.simThreads = 1;
    const gatk::CovariateTable ref_table =
        gatk::buildCovariateTable(in.reads, in.genome, bq_cfg.bqsr);
    results.sample("gatk.bqsr.verify_s", "s", secondsSince(t0));

    core::MarkDupAccelConfig md_cfg;
    md_cfg.numPipelines = 16;
    md_cfg.runtime.simThreads = 1;
    core::MetadataAccelConfig mu_cfg;
    mu_cfg.numPipelines = 16;
    mu_cfg.psize = 131'072;
    mu_cfg.runtime.simThreads = 1;

    SpanRecorder rec;
    int64_t pass_id = 0;
    PassFn pass = [&](Results &r) {
        const int64_t id = pass_id++;
        auto md_reads = in.reads;
        auto mu_reads = in.reads;
        const double cpu0 = processCpuSeconds();

        core::MarkDupAccelResult md;
        StageRun md_run = timeStage(rec, "core.markdup.run", id, [&] {
            md = core::MarkDupAccelerator(md_cfg).run(md_reads);
            return &md.info;
        });
        core::MetadataAccelResult mu;
        StageRun mu_run = timeStage(rec, "core.metadata.run", id, [&] {
            mu = core::MetadataAccelerator(mu_cfg).run(mu_reads, in.genome);
            return &mu.info;
        });
        core::BqsrAccelResult bq;
        StageRun bq_run = timeStage(rec, "core.bqsr.run", id, [&] {
            bq = core::BqsrAccelerator(bq_cfg).run(in.reads, in.genome);
            return &bq.info;
        });
        const double wall = md_run.wallS + mu_run.wallS + bq_run.wallS;
        const double cpu = processCpuSeconds() - cpu0;

        double sim_s = recordStage(r, "markdup", md_run) +
            recordStage(r, "metadata", mu_run) +
            recordStage(r, "bqsr", bq_run);
        double cycles = 0, accel_s = 0, dma_s = 0;
        for (const core::AccelRunInfo *info :
             {&md.info, &mu.info, &bq.info}) {
            cycles += static_cast<double>(info->totalCycles);
            accel_s += info->timing.accelSeconds;
            dma_s += info->timing.dmaSeconds;
        }
        r.exact("model_ms", "sim_ms", (accel_s + dma_s) * 1e3);
        r.sample("sim.host_ms", "ms", sim_s * 1e3);
        r.exact("sim.cycles", "count", cycles);
        r.sample("sim.ns_per_cycle", "ns", sim_s * 1e9 / cycles);
        r.exact("model.accel_sim_ms", "sim_ms", accel_s * 1e3);
        r.exact("model.dma_sim_ms", "sim_ms", dma_s * 1e3);
        r.sample("host.cpu_util", "ratio", cpu / (wall * hostThreads()));

        SpanRecorder::Scope verify(rec, "ref.verify", id);
        const int64_t v0 = nowNs();
        bool md_ok = md.stats.duplicatesMarked ==
                ref_md_stats.duplicatesMarked &&
            md_reads.size() == ref_md.size();
        for (size_t i = 0; md_ok && i < md_reads.size(); ++i) {
            md_ok = md_reads[i].name == ref_md[i].name &&
                md_reads[i].isDuplicate() == ref_md[i].isDuplicate();
        }
        bool mu_ok = mu_reads.size() == ref_mu.size();
        for (size_t i = 0; mu_ok && i < mu_reads.size(); ++i) {
            mu_ok = mu_reads[i].nmTag == ref_mu[i].nmTag &&
                mu_reads[i].mdTag == ref_mu[i].mdTag &&
                mu_reads[i].uqTag == ref_mu[i].uqTag;
        }
        const bool bq_ok = bq.table == ref_table;
        r.sample("ref.verify_ms", "ms", secondsSince(v0) * 1e3);
        const std::string at = " (pass " + std::to_string(id) + ")";
        r.attempt(md_ok, "markdup flags differ from gatk" + at);
        r.attempt(mu_ok, "metadata tags differ from gatk" + at);
        r.attempt(bq_ok, "bqsr covariate table differs from gatk" + at);
        return wall;
    };

    const double untraced = timedPasses(opts, results, pass, setup);
    tracedPass(opts, results, rec, untraced, pass);
}

} // namespace genesis::benchmark
