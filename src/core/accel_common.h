/**
 * @file
 * The host driver every Genesis accelerator runs through (paper
 * Sections III-B and III-E, Figure 8): decompose a partition's reads
 * into the column streams configure_mem uploads (stagePartition), run
 * the work items numPipelines at a time, one accelerator invocation per
 * batch, flushing and collecting each lane's outputs (runBatches), and
 * count the hardware a design instantiates (censusOf).
 */

#ifndef GENESIS_CORE_ACCEL_COMMON_H
#define GENESIS_CORE_ACCEL_COMMON_H

#include <cstdint>
#include <functional>
#include <vector>

#include "genome/read.h"
#include "genome/reference.h"
#include "pipeline/builder.h"
#include "runtime/api.h"
#include "table/partition.h"

namespace genesis::core {

/** Column-decomposed image of a set of reads (Table I layout). */
struct ReadColumns {
    size_t numReads = 0;
    std::vector<int64_t> pos;
    std::vector<int64_t> endpos;
    std::vector<int64_t> flags;
    std::vector<int64_t> cigar;
    std::vector<uint32_t> cigarLens;
    std::vector<int64_t> seq;
    std::vector<uint32_t> seqLens;
    std::vector<int64_t> qual;
    std::vector<uint32_t> qualLens;

    /** Build columns for the reads selected by `indices`. */
    static ReadColumns
    fromReads(const std::vector<genome::AlignedRead> &reads,
              const std::vector<size_t> &indices);

    /** @return row lengths of 1 for a scalar column of n rows. */
    static std::vector<uint32_t> scalarLens(size_t n);
};

/** Reference slice for one partition window. */
struct RefColumns {
    std::vector<int64_t> seq;
    std::vector<int64_t> isSnp;
    int64_t windowStart = 0;

    /** Extract [window_start, window_end + overlap) from a chromosome. */
    static RefColumns fromGenome(const genome::ReferenceGenome &genome,
                                 uint8_t chr, int64_t window_start,
                                 int64_t window_end, int64_t overlap);
};

/** Aggregate accounting shared by all accelerator results. */
struct AccelRunInfo {
    /**
     * Host / communication / accelerator split of the stage runtime
     * (paper Figure 13(b)). "Host" covers the algorithmic software
     * portions of the stage (duplicate resolution, tag attachment,
     * table merging), not data-layout preparation.
     */
    runtime::TimingBreakdown timing;
    /**
     * Row-to-column conversion and partitioning time. The paper performs
     * this pre-partitioning in software ahead of the accelerated stage
     * (Section III-B), outside the reported stage runtime; it is kept
     * separately here for transparency.
     */
    double prepSeconds = 0.0;
    uint64_t totalCycles = 0; ///< summed across sequential batches
    /** Simulator host work summed across batches (see
     *  Simulator::moduleTicks() and fastForwardedCycles()). */
    uint64_t moduleTicks = 0;
    uint64_t fastForwardedCycles = 0;
    uint64_t batches = 0;
    StatRegistry stats; ///< merged simulator statistics
};

/** Column bits selecting what stagePartition() uploads. */
enum StagedColumn : unsigned {
    kPos = 1u << 0,
    kEndPos = 1u << 1,
    kCigar = 1u << 2,
    kSeq = 1u << 3,
    kQual = 1u << 4,
    kFlags = 1u << 5,
    kRefSeq = 1u << 6,
    kRefSnp = 1u << 7,
};

/**
 * configure_mem the `columns` of one read partition and its reference
 * window into `session`, named under `builder`'s pipeline scope. The
 * uploads always run in the order POS, ENDPOS, CIGAR, SEQ, QUAL, FLAGS,
 * REFS.SEQ, REFS.IS_SNP: upload order sets device addresses, which set
 * channel interleaving, so it is part of the modeled hardware. The
 * reference window spans [windowStart, windowEnd + overlap), with the
 * overlap stretched to cover the partition's longest read.
 */
pipeline::QueryBinding
stagePartition(runtime::AcceleratorSession &session,
               const pipeline::PipelineBuilder &builder,
               const std::vector<genome::AlignedRead> &reads,
               const genome::ReferenceGenome &genome,
               const table::ReadPartition &part, int64_t psize,
               int64_t overlap, unsigned columns);

/**
 * Wires work item `item` as one pipeline lane (uploading its inputs
 * before creating its outputs) and returns the lane's output buffers in
 * the order they are flushed.
 */
using WireFn = std::function<std::vector<modules::ColumnBuffer *>(
    runtime::AcceleratorSession &session, pipeline::PipelineBuilder &builder,
    size_t item)>;

/** Consumes the flushed outputs of work item `item`, in wire order. */
using CollectFn = std::function<void(
    size_t item, const std::vector<const modules::ColumnBuffer *> &outputs)>;

/**
 * Run `items` work items `num_pipelines` at a time, one accelerator
 * session per batch: wire each lane, run, flush every lane's outputs
 * and collect them. Wiring (encode, upload, build) is charged to
 * info.prepSeconds, flushing to the modeled DMA ledger and collecting
 * to host seconds; cycles, batches and statistics accumulate in `info`.
 */
void runBatches(size_t items, int num_pipelines,
                const runtime::RuntimeConfig &runtime, AccelRunInfo &info,
                const WireFn &wire, const CollectFn &collect);

/**
 * The hardware census of `num_pipelines` lanes of one design: `wire`
 * builds a lane on placeholder inputs (reference SPM of `spm_words`) in
 * a throwaway session. The census describes the design, not a run.
 */
pipeline::HardwareCensus
censusOf(int num_pipelines, size_t spm_words,
         const std::function<void(runtime::AcceleratorSession &,
                                  pipeline::PipelineBuilder &,
                                  const pipeline::QueryBinding &)> &wire);

/**
 * dst[rows[i]] = flushed.elements[i] for every row; panics unless the
 * buffer holds exactly rows.size() elements.
 */
void scatterRows(const modules::ColumnBuffer &flushed,
                 const std::vector<size_t> &rows,
                 std::vector<int64_t> &dst);

} // namespace genesis::core

#endif // GENESIS_CORE_ACCEL_COMMON_H
