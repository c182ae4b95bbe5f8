/**
 * @file
 * sql_mapped: the Figure-4 script (core::matchCountQueryText) from SQL
 * text to verified results, both ways. The hardware leg parses, fuses,
 * partitions at psize 8 192 (16 partitions), encodes and uploads each
 * partition, maps it onto one lane (8 lanes per session, 2 sessions),
 * simulates, flushes and checks every partition's counts against
 * core::matchCountsSoftware, computed once per run. The engine leg runs
 * the same script on the software SQL engine (core::matchCountsSqlEngine)
 * per partition and checks it against the same counts.
 *
 * This is the only workload that starts from SQL text, and the engine
 * leg does most of its work, so SQL engine, optimizer and vectorizer
 * changes show here and nowhere else.
 */

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/accel_common.h"
#include "core/example_accel.h"
#include "pipeline/mapper.h"
#include "sql/parser.h"
#include "table/partition.h"
#include "workloads.h"

namespace genesis::benchmark {

namespace {

constexpr int64_t kPsize = 8'192;
/** Reference bases staged past each window end (reads are 151 bp). */
constexpr int64_t kOverlap = 512;
constexpr size_t kLanesPerSession = 8;

/** Accumulates one leg's per-layer seconds across partitions. */
struct Clock {
    std::map<std::string, double> seconds;

    template <typename Fn>
    auto
    time(SpanRecorder &rec, const std::string &span, int64_t request,
         Fn &&fn)
    {
        SpanRecorder::Scope scope(rec, span, request);
        const int64_t t0 = nowNs();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            seconds[span] += secondsSince(t0);
        } else {
            auto out = fn();
            seconds[span] += secondsSince(t0);
            return out;
        }
    }
};

} // namespace

void
runSqlMapped(const Options &opts, Results &results)
{
    const int64_t pairs = opts.smoke ? 60 : 300;
    Inputs in;
    const auto setup = [&] { in = makeInputs(pairs, opts.seed, 80'000); };
    timeSetup(results, setup);

    // Software reference counts per partition, once per run (outside
    // every timed window); set-up repeats with the same seed, so they
    // hold for every pass.
    const int64_t r0 = nowNs();
    std::vector<std::vector<int64_t>> direct;
    for (const table::ReadPartition &part :
         table::Partitioner(kPsize).partitionReads(in.reads)) {
        direct.push_back(core::matchCountsSoftware(in.reads,
                                                   part.readIndices,
                                                   in.genome));
    }
    results.sample("core.software_ref_s", "s", secondsSince(r0));

    SpanRecorder rec;
    int64_t pass_id = 0;
    PassFn pass = [&](Results &r) {
        const int64_t id = pass_id++;
        Clock clk;
        const double cpu0 = processCpuSeconds();

        // --- Hardware leg: SQL text -> verified hardware counts -------
        const int64_t hw0 = nowNs();
        const sql::Script script = clk.time(rec, "sql.parse", id, [&] {
            return sql::parseScript(core::matchCountQueryText());
        });
        const sql::PlanPtr plan = clk.time(rec, "pipeline.fuse", id, [&] {
            return pipeline::fuseScriptToPlan(script);
        });
        const auto parts = clk.time(rec, "table.partition", id, [&] {
            return table::Partitioner(kPsize).partitionReads(in.reads);
        });

        r.attempt(parts.size() == direct.size(),
                  "partition count differs from the reference run's");
        if (parts.size() != direct.size())
            return secondsSince(hw0);
        double cycles = 0, flits = 0, accel_s = 0, dma_s = 0;
        uint64_t row_hits = 0, row_misses = 0;
        for (size_t base = 0; base < parts.size();
             base += kLanesPerSession) {
            const size_t lanes =
                std::min(kLanesPerSession, parts.size() - base);
            runtime::RuntimeConfig rt;
            rt.simThreads = 1;
            runtime::AcceleratorSession session{rt};
            std::vector<const modules::ColumnBuffer *> outs(lanes);
            for (size_t lane = 0; lane < lanes; ++lane) {
                const table::ReadPartition &part = parts[base + lane];
                const int64_t req = static_cast<int64_t>(base + lane);
                pipeline::PipelineBuilder builder(session.sim(),
                                                  static_cast<int>(lane));
                auto [cols, ref] = clk.time(rec, "core.encode", req, [&] {
                    return std::make_pair(
                        core::ReadColumns::fromReads(in.reads,
                                                     part.readIndices),
                        core::RefColumns::fromGenome(
                            in.genome, part.chr, part.windowStart,
                            part.windowEnd, kOverlap));
                });
                pipeline::QueryBinding bind;
                clk.time(rec, "runtime.upload", req, [&] {
                    const size_t n = cols.numReads;
                    bind.pos = session.configureMem(
                        builder.scopedName("READS.POS"), std::move(cols.pos),
                        core::ReadColumns::scalarLens(n), 4);
                    bind.endpos = session.configureMem(
                        builder.scopedName("READS.ENDPOS"),
                        std::move(cols.endpos),
                        core::ReadColumns::scalarLens(n), 4);
                    bind.cigar = session.configureMem(
                        builder.scopedName("READS.CIGAR"),
                        std::move(cols.cigar), std::move(cols.cigarLens), 2);
                    bind.seq = session.configureMem(
                        builder.scopedName("READS.SEQ"), std::move(cols.seq),
                        std::move(cols.seqLens), 1);
                    const size_t ref_n = ref.seq.size();
                    bind.refSeq = session.configureMem(
                        builder.scopedName("REFS.SEQ"), std::move(ref.seq),
                        core::ReadColumns::scalarLens(ref_n), 1);
                });
                bind.windowStart = part.windowStart;
                bind.spmWords = static_cast<size_t>(kPsize + kOverlap);
                outs[lane] = clk.time(rec, "pipeline.map", req, [&] {
                    return pipeline::mapPlanToPipeline(builder, session,
                                                       *plan, bind)
                        .output;
                });
            }
            clk.time(rec, "sim.run", id, [&] {
                session.start();
                session.wait();
            });
            for (size_t lane = 0; lane < lanes; ++lane) {
                const size_t p = base + lane;
                const auto *hw = clk.time(
                    rec, "runtime.flush", static_cast<int64_t>(p),
                    [&] { return session.flush(outs[lane]->name); });
                const bool ok = clk.time(
                    rec, "ref.verify", static_cast<int64_t>(p),
                    [&] { return hw->elements == direct[p]; });
                r.attempt(ok, "partition " + std::to_string(p) +
                                  ": hardware counts differ from "
                                  "matchCountsSoftware");
            }
            const StatRegistry stats = session.sim().collectStats();
            cycles += static_cast<double>(session.sim().cycle());
            flits += static_cast<double>(sumModuleCounters(stats, ".flits"));
            row_hits += stats.get("mem.row_hits");
            row_misses += stats.get("mem.row_misses");
            accel_s += session.timing().accelSeconds;
            dma_s += session.timing().dmaSeconds;
        }
        const double hw_wall = secondsSince(hw0);

        // --- Engine leg: the same script on the software SQL engine ---
        const int64_t en0 = nowNs();
        for (size_t p = 0; p < parts.size(); ++p) {
            const auto counts = clk.time(
                rec, "engine.script", static_cast<int64_t>(p), [&] {
                    return core::matchCountsSqlEngine(
                        in.reads, parts[p], in.genome, kPsize, kOverlap);
                });
            r.attempt(counts == direct[p],
                      "partition " + std::to_string(p) +
                          ": SQL engine counts differ from "
                          "matchCountsSoftware");
        }
        const double engine_wall = secondsSince(en0);
        const double wall = hw_wall + engine_wall;
        const double cpu = processCpuSeconds() - cpu0;

        for (const auto &[span, secs] : clk.seconds) {
            if (span != "ref.verify")
                r.sample(span + "_s", "s", secs);
        }
        const double sim_s = clk.seconds["sim.run"];
        r.sample("sql_hw_wall_s", "s", hw_wall);
        r.sample("sql_engine_wall_s", "s", engine_wall);
        r.exact("model_ms", "sim_ms", (accel_s + dma_s) * 1e3);
        r.sample("engine.us_per_read", "us", clk.seconds["engine.script"] *
                 1e6 / static_cast<double>(in.reads.size()));
        r.exact("sim.flits", "count", flits);
        r.sample("sim.ns_per_flit", "ns", sim_s * 1e9 / flits);
        r.exact("sim.mem.row_hit_ratio", "ratio",
                static_cast<double>(row_hits) /
                    static_cast<double>(row_hits + row_misses));
        r.exact("runtime.dma_s", "s", dma_s);
        r.exact("runtime.accel_s", "s", accel_s);
        r.sample("sim.host_ms", "ms", sim_s * 1e3);
        r.exact("sim.cycles", "count", cycles);
        r.sample("sim.ns_per_cycle", "ns", sim_s * 1e9 / cycles);
        r.exact("model.accel_sim_ms", "sim_ms", accel_s * 1e3);
        r.exact("model.dma_sim_ms", "sim_ms", dma_s * 1e3);
        r.sample("host.cpu_util", "ratio", cpu / (wall * hostThreads()));
        r.sample("ref.verify_ms", "ms", clk.seconds["ref.verify"] * 1e3);
        return wall;
    };

    const double untraced = timedPasses(opts, results, pass, setup);
    tracedPass(opts, results, rec, untraced, pass);
}

} // namespace genesis::benchmark
