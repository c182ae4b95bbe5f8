#include "core/markdup_accel.h"

#include <algorithm>
#include <numeric>

#include "base/logging.h"
#include "base/timer.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"

namespace genesis::core {

using modules::ColumnBuffer;
using pipeline::PipelineBuilder;
using pipeline::QueryBinding;

namespace {

/** Wire one Figure-10 pipeline; returns the output (sums) buffer. */
ColumnBuffer *
buildPipeline(PipelineBuilder &builder, runtime::AcceleratorSession &s,
              const ColumnBuffer *qual_buffer)
{
    auto *qual_q = builder.queue("qual");
    auto *sum_q = builder.queue("sum");
    ColumnBuffer *out = s.configureOutput(
        builder.scopedName("QSUM"), 4);

    modules::MemoryReaderConfig reader_cfg;
    reader_cfg.emitBoundaries = true;
    builder.add<modules::MemoryReader>(
        "MemoryReader", "rd_qual", qual_buffer, builder.port(), qual_q,
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
                                       builder.port(), sum_q, writer_cfg);
    return out;
}

} // namespace

MarkDupAccelerator::MarkDupAccelerator(const MarkDupAccelConfig &config)
    : config_(config)
{
    if (config_.numPipelines < 1)
        fatal("need at least one pipeline");
}

pipeline::HardwareCensus
MarkDupAccelerator::census(int num_pipelines)
{
    return censusOf(num_pipelines, 1,
                    [](runtime::AcceleratorSession &s, PipelineBuilder &b,
                       const QueryBinding &in) {
                        buildPipeline(b, s, in.qual);
                    });
}

MarkDupAccelResult
MarkDupAccelerator::run(std::vector<genome::AlignedRead> &reads)
{
    MarkDupAccelResult result;

    // Split the read set into one contiguous chunk per pipeline; the
    // chunks run as a single batch of replicated pipelines.
    const size_t n = reads.size();
    const size_t lanes = static_cast<size_t>(config_.numPipelines);
    const size_t per = (n + lanes - 1) / lanes;
    std::vector<std::vector<size_t>> chunks;
    {
        ScopedTimer timer(result.info.prepSeconds);
        for (size_t first = 0; first < n; first += per) {
            chunks.emplace_back(std::min(per, n - first));
            std::iota(chunks.back().begin(), chunks.back().end(), first);
        }
    }

    auto wire = [&](runtime::AcceleratorSession &s, PipelineBuilder &b,
                    size_t item) {
        ReadColumns cols = ReadColumns::fromReads(reads, chunks[item]);
        ColumnBuffer *qual = s.configureMem(
            b.scopedName("READS.QUAL"), std::move(cols.qual),
            std::move(cols.qualLens), 1);
        return std::vector<ColumnBuffer *>{buildPipeline(b, s, qual)};
    };
    result.qualSums.assign(n, 0);
    auto collect = [&](size_t item,
                       const std::vector<const ColumnBuffer *> &outs) {
        scatterRows(*outs[0], chunks[item], result.qualSums);
    };
    runBatches(chunks.size(), config_.numPipelines, config_.runtime,
               result.info, wire, collect);

    {
        // Host: duplicate resolution + coordinate sort with hardware sums.
        ScopedTimer timer(result.info.timing.hostSeconds);
        result.stats =
            gatk::markDuplicatesWithQualSums(reads, result.qualSums);
    }
    return result;
}

} // namespace genesis::core
