#include "core/example_accel.h"

#include "base/logging.h"
#include "base/timer.h"
#include "engine/executor.h"
#include "pipeline/mapper.h"
#include "sql/parser.h"
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
    // One parse per process: a pass runs the script once per partition.
    static const sql::Script script = sql::parseScript(matchCountQueryText());
    executor.runScript(script);

    const table::Table *output = catalog.find("Output");
    std::vector<int64_t> counts;
    if (!output)
        return counts;
    counts.reserve(output->numRows());
    for (size_t r = 0; r < output->numRows(); ++r)
        counts.push_back(output->at(r, 0).asInt());
    return counts;
}

ExampleAccelerator::ExampleAccelerator(const ExampleAccelConfig &config)
    : config_(config)
{
    if (config_.numPipelines < 1)
        fatal("need at least one pipeline");
}

ExampleAccelResult
ExampleAccelerator::run(const std::vector<genome::AlignedRead> &reads,
                        const genome::ReferenceGenome &genome)
{
    ExampleAccelResult result;
    result.counts.assign(reads.size(), 0);

    table::Partitioner partitioner(config_.psize, config_.overlap);
    std::vector<table::ReadPartition> partitions;
    sql::PlanPtr plan;
    {
        ScopedTimer timer(result.info.prepSeconds);
        partitions = partitioner.partitionReads(reads);
        plan = pipeline::fuseScriptToPlan(
            sql::parseScript(matchCountQueryText()));
    }

    // Each lane is the Figure-4 script lowered onto its staged columns;
    // without the SPM the mapper gathers the reference from memory.
    auto wire = [&](runtime::AcceleratorSession &s, PipelineBuilder &b,
                    size_t item) {
        pipeline::QueryBinding in = stagePartition(
            s, b, reads, genome, partitions[item], config_.psize,
            config_.overlap, kPos | kEndPos | kCigar | kSeq | kRefSeq);
        if (!config_.useSpm)
            in.spmWords = 0;
        return std::vector<ColumnBuffer *>{
            pipeline::mapPlanToPipeline(b, s, *plan, in).output};
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
