#include "core/example_accel.h"

#include "base/logging.h"
#include "base/timer.h"
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

/**
 * Wire one Figure-7 pipeline; returns the match-count output buffer.
 * Without `use_spm` a GatherReader re-fetches each read's reference
 * span from device memory instead of an SPM (the ablate_spm design).
 */
ColumnBuffer *
buildPipeline(PipelineBuilder &b, runtime::AcceleratorSession &s,
              const PipelineInputs &in, bool use_spm)
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

    if (use_spm) {
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
    return censusOf(num_pipelines, static_cast<size_t>(psize + overlap),
                    [](runtime::AcceleratorSession &s, PipelineBuilder &b,
                       const PipelineInputs &in) {
                        buildPipeline(b, s, in, true);
                    });
}

ExampleAccelResult
ExampleAccelerator::run(const std::vector<genome::AlignedRead> &reads,
                        const genome::ReferenceGenome &genome)
{
    ExampleAccelResult result;
    result.counts.assign(reads.size(), 0);

    table::Partitioner partitioner(config_.psize, config_.overlap);
    std::vector<table::ReadPartition> partitions;
    {
        ScopedTimer timer(result.info.prepSeconds);
        partitions = partitioner.partitionReads(reads);
    }

    auto wire = [&](runtime::AcceleratorSession &s, PipelineBuilder &b,
                    size_t item) {
        PipelineInputs in = stagePartition(
            s, b, reads, genome, partitions[item], config_.psize,
            config_.overlap, kPos | kEndPos | kCigar | kSeq | kRefSeq);
        return std::vector<ColumnBuffer *>{
            buildPipeline(b, s, in, config_.useSpm)};
    };
    auto collect = [&](size_t item,
                       const std::vector<const ColumnBuffer *> &outs) {
        scatterRows(*outs[0], partitions[item].readIndices, result.counts);
    };
    runBatches(partitions.size(), config_.numPipelines, config_.runtime,
               result.info, wire, collect);
    return result;
}

} // namespace genesis::core
