/**
 * @file
 * Concurrent multi-pipeline scaling bench (BatchRunner).
 *
 * Lane sweep over the bench read set's quality-sum pipeline (the Mark
 * Duplicates hardware portion, Figure 10), reported as one JSON array:
 * shards the workload into a fixed number of shards and sweeps the
 * number of concurrent BatchRunner pipeline slots: 1, 2, 4, 8.
 * Session-level parallelism — each slot is its own AcceleratorSession
 * on its own host thread. Every point's per-read sums must match the
 * 1-lane run exactly (exit 1 on mismatch).
 *
 * Wall-clock scaling requires host cores — the report includes
 * hardware_concurrency so single-core results are interpretable.
 *
 * Scale the workload with GENESIS_BENCH_PAIRS.
 */

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"
#include "pipeline/builder.h"
#include "runtime/batch.h"

using namespace genesis;

namespace {

constexpr size_t kShards = 8;

/** Wire one Figure-10 quality-sum pipeline into a shard's session. */
void
buildQualSumPipeline(runtime::AcceleratorSession &session, size_t shard,
                     std::vector<int64_t> qual,
                     std::vector<uint32_t> qual_lens)
{
    pipeline::PipelineBuilder builder(session.sim(),
                                      static_cast<int>(shard));
    modules::ColumnBuffer *qual_buf = session.configureMem(
        builder.scopedName("READS.QUAL"), std::move(qual),
        std::move(qual_lens), 1);
    auto *qual_q = builder.queue("qual");
    auto *sum_q = builder.queue("sum");
    modules::ColumnBuffer *out =
        session.configureOutput(builder.scopedName("QSUM"), 4);

    modules::MemoryReaderConfig reader_cfg;
    reader_cfg.emitBoundaries = true;
    builder.add<modules::MemoryReader>("MemoryReader", "rd_qual",
                                       qual_buf, builder.port(), qual_q,
                                       reader_cfg);

    modules::ReducerConfig red_cfg;
    red_cfg.op = modules::ReduceOp::Sum;
    red_cfg.granularity = modules::ReduceGranularity::PerItem;
    red_cfg.valueField = 0;
    builder.add<modules::Reducer>("ReducerWide", "sum", qual_q, sum_q,
                                  red_cfg);

    modules::MemoryWriterConfig writer_cfg;
    writer_cfg.fieldIndex = 0;
    writer_cfg.elemSizeBytes = 4;
    builder.add<modules::MemoryWriter>("MemoryWriter", "wr_sum", out,
                                       builder.port(), sum_q,
                                       writer_cfg);
}

/** One sweep point: run kShards shards over `lanes` concurrent slots. */
runtime::BatchStats
runPoint(const bench::BenchWorkload &workload, int lanes,
         std::vector<int64_t> &sums)
{
    size_t n = workload.reads.size();
    size_t per = (n + kShards - 1) / kShards;
    std::vector<std::pair<size_t, size_t>> chunks;
    for (size_t s = 0; s < kShards; ++s) {
        size_t first = std::min(n, s * per);
        size_t last = std::min(n, first + per);
        if (first < last)
            chunks.emplace_back(first, last);
    }
    sums.assign(n, 0);

    runtime::BatchConfig cfg;
    cfg.numLanes = lanes;
    runtime::BatchRunner runner(cfg);
    return runner.run(
        chunks.size(),
        [&](size_t shard, runtime::AcceleratorSession &session) {
            auto [first, last] = chunks[shard];
            core::ReadColumns cols = core::ReadColumns::fromRange(
                workload.reads, first, last);
            buildQualSumPipeline(session, shard, std::move(cols.qual),
                                 std::move(cols.qualLens));
        },
        [&](size_t shard, runtime::AcceleratorSession &session) {
            auto [first, last] = chunks[shard];
            std::string out_name = "p";
            out_name += std::to_string(shard);
            out_name += ".QSUM";
            const modules::ColumnBuffer *flushed =
                session.flush(out_name);
            for (size_t i = 0; i < flushed->elements.size(); ++i)
                sums[first + i] = flushed->elements[i];
        });
}

} // namespace

int
main()
{
    auto workload = bench::makeBenchWorkload();
    bench::printHeader("concurrent multi-pipeline scaling (BatchRunner)",
                       workload);
    std::printf("host hardware_concurrency: %u\n\n",
                std::thread::hardware_concurrency());

    std::vector<int64_t> baseline;
    double baseline_wall = 0.0;
    bool ok = true;

    std::printf("[\n");
    const int lane_counts[] = {1, 2, 4, 8};
    for (size_t i = 0; i < std::size(lane_counts); ++i) {
        int lanes = lane_counts[i];
        std::vector<int64_t> sums;
        runtime::BatchStats stats = runPoint(workload, lanes, sums);
        if (lanes == 1) {
            baseline = sums;
            baseline_wall = stats.wallSeconds;
        } else if (sums != baseline) {
            ok = false;
        }
        std::printf("  {\"lanes\": %d, \"shards\": %zu, "
                    "\"wall_seconds\": %.4f, \"speedup_vs_1\": %.2f, "
                    "\"total_cycles\": %llu, "
                    "\"accel_seconds\": %.6f, \"dma_seconds\": %.6f, "
                    "\"host_seconds\": %.6f, "
                    "\"hardware_concurrency\": %u, "
                    "\"sums_match_baseline\": %s}%s\n",
                    lanes, stats.shards, stats.wallSeconds,
                    stats.wallSeconds > 0
                        ? baseline_wall / stats.wallSeconds
                        : 0.0,
                    static_cast<unsigned long long>(stats.totalCycles),
                    stats.timing.accelSeconds, stats.timing.dmaSeconds,
                    stats.timing.hostSeconds,
                    std::thread::hardware_concurrency(),
                    (lanes == 1 || sums == baseline) ? "true" : "false",
                    i + 1 < std::size(lane_counts) ? "," : "");
    }
    std::printf("]\n");

    if (!ok) {
        std::fprintf(stderr,
                     "FAIL: sweep point diverges from its baseline "
                     "(lanes vs 1-lane sums)\n");
        return 1;
    }
    std::printf("\nall sweep points bit-identical to their baselines\n");
    return 0;
}
