#include "core/example_accel.h"

#include <algorithm>

#include "base/logging.h"
#include "engine/executor.h"
#include "modules/filter.h"
#include "modules/fork.h"
#include "modules/gather_reader.h"
#include "modules/joiner.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/read_to_bases.h"
#include "modules/reducer.h"
#include "modules/spm_reader.h"
#include "modules/spm_updater.h"
#include "table/genomic_schema.h"

namespace genesis::core {

using modules::ColumnBuffer;
using pipeline::PipelineBuilder;

std::string
matchCountQueryText()
{
    // The Figure-4 script in this library's dialect. @P (partition id)
    // and @WSTART (the partition's first reference position) are preset
    // by the host before execution.
    return R"(
/* I1: Extract Reads and Reference Partition P */
CREATE TABLE ReadPartition AS
SELECT POS, ENDPOS, CIGAR, SEQ
FROM READS PARTITION (@P);
CREATE TABLE ReferenceRow AS
SELECT REFPOS, SEQ
FROM REF PARTITION (@P);
/* I2: posExplode on ReferenceRow */
CREATE TABLE RelevantReference AS
PosExplode (ReferenceRow.SEQ, ReferenceRow.REFPOS)
FROM ReferenceRow;
DECLARE @rlen int;
/* Iterate over Rows */
FOR SingleRead IN ReadPartition:
  SET @rlen = SingleRead.ENDPOS - SingleRead.POS;
  /* Q1: ReadExplode converts a read into a multi-row table where each
     row represents a base pair */
  CREATE TABLE #AlignedRead AS
  ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ)
  FROM SingleRead;
  /* Q2: Inner-join the two tables on the base pair's position */
  CREATE TABLE #ReadAndRef AS
  SELECT #AlignedRead.BP, RelevantReference.SEQ
  FROM #AlignedRead
  INNER JOIN (SELECT * FROM RelevantReference
              LIMIT (SingleRead.POS - @WSTART), @rlen)
  ON #AlignedRead.POS = RelevantReference.POS;
  /* Q3: Count the matching base pairs */
  INSERT INTO Output
  SELECT SUM(#ReadAndRef.BP == #ReadAndRef.SEQ)
  FROM #ReadAndRef;
END LOOP;
)";
}

std::vector<int64_t>
matchCountsSoftware(const std::vector<genome::AlignedRead> &reads,
                    const std::vector<size_t> &indices,
                    const genome::ReferenceGenome &genome)
{
    std::vector<int64_t> counts;
    counts.reserve(indices.size());
    for (size_t idx : indices) {
        const auto &read = reads[idx];
        int64_t count = 0;
        for (const auto &b :
             genome::explodeRead(read.pos, read.cigar, read.seq,
                                 read.qual)) {
            if (b.isInsertion() || b.isDeletion())
                continue;
            if (b.readBase == genome.baseAt(read.chr, b.refPos))
                ++count;
        }
        counts.push_back(count);
    }
    return counts;
}

std::vector<int64_t>
matchCountsSqlEngine(const std::vector<genome::AlignedRead> &reads,
                     const table::ReadPartition &partition,
                     const genome::ReferenceGenome &genome,
                     int64_t psize, int64_t overlap)
{
    engine::Catalog catalog;
    catalog.putPartition(
        "READS", partition.pid,
        table::buildReadsTable(reads, partition.readIndices));
    catalog.putPartition(
        "REF", partition.pid,
        table::buildRefPartition(genome, partition.pid, psize, overlap));

    engine::Executor executor(catalog);
    executor.env().variables["P"] = table::Value(partition.pid);
    executor.env().variables["WSTART"] =
        table::Value(partition.windowStart);
    executor.run(matchCountQueryText());

    const table::Table *output = catalog.find("Output");
    std::vector<int64_t> counts;
    if (!output)
        return counts;
    counts.reserve(output->numRows());
    for (size_t r = 0; r < output->numRows(); ++r)
        counts.push_back(output->at(r, 0).asInt());
    return counts;
}

namespace {

struct ExampleInputs {
    const ColumnBuffer *pos = nullptr;
    const ColumnBuffer *endpos = nullptr;
    const ColumnBuffer *cigar = nullptr;
    const ColumnBuffer *seq = nullptr;
    const ColumnBuffer *refSeq = nullptr;
    int64_t windowStart = 0;
    size_t spmWords = 1;
    bool useSpm = true;
};

/** Wire one Figure-7 pipeline; returns the match-count output buffer. */
ColumnBuffer *
buildPipeline(PipelineBuilder &b, runtime::AcceleratorSession &s,
              const ExampleInputs &in)
{
    ColumnBuffer *out = s.configureOutput(b.scopedName("CNT"), 4);

    auto *pos_q = b.queue("pos");
    auto *pos_rtb_q = b.queue("pos_rtb");
    auto *pos_spm_q = b.queue("pos_spm");
    auto *endpos_q = b.queue("endpos");
    auto *cigar_q = b.queue("cigar");
    auto *seq_q = b.queue("seq");
    auto *refseq_q = b.queue("refseq");
    auto *bases_q = b.queue("bases");
    auto *ref_q = b.queue("ref");
    auto *joined_q = b.queue("joined");
    auto *match_q = b.queue("match");
    auto *count_q = b.queue("count");

    modules::MemoryReaderConfig scalar_cfg;
    modules::MemoryReaderConfig array_cfg;
    array_cfg.emitBoundaries = true;
    b.add<modules::MemoryReader>("MemoryReader", "rd_pos", in.pos,
                                 b.port(), pos_q, scalar_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_endpos", in.endpos,
                                 b.port(), endpos_q, scalar_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_cigar", in.cigar,
                                 b.port(), cigar_q, array_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_seq", in.seq,
                                 b.port(), seq_q, array_cfg);

    b.add<modules::Fork>("Fork", "fork_pos", pos_q,
                         std::vector<sim::HardwareQueue *>{pos_rtb_q,
                                                           pos_spm_q});

    if (in.useSpm) {
        b.add<modules::MemoryReader>("MemoryReader", "rd_refseq",
                                     in.refSeq, b.port(), refseq_q,
                                     scalar_cfg);
        auto *spm = b.scratchpad("ref_spm", in.spmWords, 1, 2);
        modules::SpmUpdaterConfig upd_cfg;
        upd_cfg.mode = modules::SpmUpdateMode::Sequential;
        auto *updater = b.add<modules::SpmUpdater>(
            "SpmUpdater", "spm_init", spm, refseq_q, upd_cfg);

        modules::SpmReaderConfig rd_cfg;
        rd_cfg.mode = modules::SpmReadMode::Interval;
        rd_cfg.addrBase = in.windowStart;
        rd_cfg.waitFor = updater;
        b.add<modules::SpmReader>("SpmReader", "spm_rd", spm, pos_spm_q,
                                  endpos_q, ref_q, rd_cfg);
    } else {
        // Ablation: no scratchpad — every read's reference span is
        // re-fetched from device memory.
        modules::GatherReaderConfig gather_cfg;
        gather_cfg.addrBase = in.windowStart;
        b.add<modules::GatherReader>("MemoryReader", "gather_ref",
                                     in.refSeq, b.port(), pos_spm_q,
                                     endpos_q, ref_q, gather_cfg);
    }

    b.add<modules::ReadToBases>("ReadToBases", "rtb", pos_rtb_q, cigar_q,
                                seq_q, nullptr, bases_q);

    modules::JoinerConfig join_cfg;
    join_cfg.mode = modules::JoinMode::Inner;
    join_cfg.leftFields = 3;
    join_cfg.rightFields = 1;
    b.add<modules::Joiner>("Joiner", "join", bases_q, ref_q, joined_q,
                           join_cfg);

    modules::FilterConfig match_filter;
    match_filter.lhs = modules::FilterOperand::field(0);
    match_filter.op = modules::CompareOp::Eq;
    match_filter.rhs = modules::FilterOperand::field(3);
    b.add<modules::Filter>("Filter", "match", joined_q, match_q,
                           match_filter);

    modules::ReducerConfig count_cfg;
    count_cfg.op = modules::ReduceOp::Count;
    count_cfg.granularity = modules::ReduceGranularity::PerItem;
    b.add<modules::Reducer>("Reducer", "count", match_q, count_q,
                            count_cfg);

    modules::MemoryWriterConfig wr;
    wr.fieldIndex = 0;
    wr.elemSizeBytes = 4;
    b.add<modules::MemoryWriter>("MemoryWriter", "wr_cnt", out, b.port(),
                                 count_q, wr);
    return out;
}

} // namespace

ExampleAccelerator::ExampleAccelerator(const ExampleAccelConfig &config)
    : config_(config)
{
    if (config_.numPipelines < 1)
        fatal("need at least one pipeline");
}

pipeline::HardwareCensus
ExampleAccelerator::census(int num_pipelines, int64_t psize,
                           int64_t overlap)
{
    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    ColumnBuffer dummy;
    ExampleInputs in;
    in.pos = in.endpos = in.cigar = in.seq = in.refSeq = &dummy;
    in.spmWords = static_cast<size_t>(psize + overlap);
    pipeline::HardwareCensus census;
    for (int p = 0; p < num_pipelines; ++p) {
        PipelineBuilder builder(session.sim(), p);
        buildPipeline(builder, session, in);
        census.merge(builder.census());
    }
    return census;
}

ExampleAccelResult
ExampleAccelerator::run(const std::vector<genome::AlignedRead> &reads,
                        const genome::ReferenceGenome &genome)
{
    ExampleAccelResult result;
    result.counts.assign(reads.size(), 0);

    table::Partitioner partitioner(config_.psize, config_.overlap);
    auto partitions = partitioner.partitionReads(reads);

    for (size_t base = 0; base < partitions.size();
         base += static_cast<size_t>(config_.numPipelines)) {
        runtime::AcceleratorSession session(config_.runtime);
        size_t batch = std::min<size_t>(
            static_cast<size_t>(config_.numPipelines),
            partitions.size() - base);

        std::vector<ColumnBuffer *> outs(batch);
        {
            PrepTimer timer(result.info.prepSeconds);
            for (size_t p = 0; p < batch; ++p) {
                const auto &part = partitions[base + p];
                ReadColumns cols =
                    ReadColumns::fromReads(reads, part.readIndices);
                int64_t overlap = config_.overlap;
                for (size_t idx : part.readIndices) {
                    overlap = std::max(overlap, reads[idx].endPos() -
                                       part.windowEnd);
                }
                RefColumns ref = RefColumns::fromGenome(
                    genome, part.chr, part.windowStart, part.windowEnd,
                    overlap);

                PipelineBuilder builder(session.sim(),
                                        static_cast<int>(p));
                ExampleInputs in;
                in.pos = session.configureMem(
                    builder.scopedName("READS.POS"), std::move(cols.pos),
                    ReadColumns::scalarLens(cols.numReads), 4);
                in.endpos = session.configureMem(
                    builder.scopedName("READS.ENDPOS"),
                    std::move(cols.endpos),
                    ReadColumns::scalarLens(cols.numReads), 4);
                in.cigar = session.configureMem(
                    builder.scopedName("READS.CIGAR"),
                    std::move(cols.cigar), std::move(cols.cigarLens), 2);
                in.seq = session.configureMem(
                    builder.scopedName("READS.SEQ"), std::move(cols.seq),
                    std::move(cols.seqLens), 1);
                in.refSeq = session.configureMem(
                    builder.scopedName("REFS.SEQ"), std::move(ref.seq),
                    ReadColumns::scalarLens(
                        static_cast<size_t>(ref.seq.size())), 1);
                in.windowStart = part.windowStart;
                in.spmWords =
                    static_cast<size_t>(config_.psize + overlap);
                in.useSpm = config_.useSpm;
                outs[p] = buildPipeline(builder, session, in);
                if (result.info.batches == 0)
                    result.info.census.merge(builder.census());
            }
        }

        session.start();
        session.wait();
        result.info.totalCycles += session.sim().cycle();
        ++result.info.batches;
        result.info.stats.merge(session.sim().collectStats());

        {
            runtime::HostTimer host_timer(session);
            for (size_t p = 0; p < batch; ++p) {
                const auto &part = partitions[base + p];
                const ColumnBuffer *flushed =
                    session.flush(outs[p]->name);
                GENESIS_ASSERT(
                    flushed->elements.size() == part.readIndices.size(),
                    "count rows %zu != reads %zu",
                    flushed->elements.size(), part.readIndices.size());
                for (size_t i = 0; i < part.readIndices.size(); ++i) {
                    result.counts[part.readIndices[i]] =
                        flushed->elements[i];
                }
            }
        }
        result.info.timing += session.timing();
    }
    return result;
}

} // namespace genesis::core
