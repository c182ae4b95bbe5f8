#include "core/metadata_accel.h"

#include "base/logging.h"
#include "base/timer.h"
#include "modules/filter.h"
#include "modules/fork.h"
#include "modules/joiner.h"
#include "modules/mdgen.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/read_to_bases.h"
#include "modules/reducer.h"
#include "modules/spm_reader.h"
#include "modules/spm_updater.h"

namespace genesis::core {

using modules::ColumnBuffer;
using pipeline::PipelineBuilder;
using pipeline::QueryBinding;
using sim::Flit;

namespace {

/**
 * Wire one Figure-11 pipeline; returns its NM, UQ and MD buffers in
 * flush order. They are allocated NM, MD, UQ: allocation order sets
 * their device addresses.
 */
std::vector<ColumnBuffer *>
buildPipeline(PipelineBuilder &b, runtime::AcceleratorSession &s,
              const QueryBinding &in)
{
    ColumnBuffer *nm_out = s.configureOutput(b.scopedName("NM"), 4);
    ColumnBuffer *md_out = s.configureOutput(b.scopedName("MD"), 1);
    ColumnBuffer *uq_out = s.configureOutput(b.scopedName("UQ"), 4);

    // Queues.
    auto *pos_q = b.queue("pos");
    auto *pos_rtb_q = b.queue("pos_rtb");
    auto *pos_spm_q = b.queue("pos_spm");
    auto *endpos_q = b.queue("endpos");
    auto *cigar_q = b.queue("cigar");
    auto *seq_q = b.queue("seq");
    auto *qual_q = b.queue("qual");
    auto *refseq_q = b.queue("refseq");
    auto *bases_q = b.queue("bases");
    auto *ref_q = b.queue("ref");
    auto *joined_q = b.queue("joined");
    auto *join_nm_q = b.queue("join_nm");
    auto *join_uq_q = b.queue("join_uq");
    auto *join_md_q = b.queue("join_md");
    auto *nm_mask_q = b.queue("nm_mask");
    auto *uq_noins_q = b.queue("uq_noins");
    auto *uq_mask_q = b.queue("uq_mask");
    auto *nm_q = b.queue("nm");
    auto *uq_q = b.queue("uq");
    auto *md_q = b.queue("md");

    // Memory readers (Figure 11 shows six).
    modules::MemoryReaderConfig scalar_cfg; // one flit per row
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
    b.add<modules::MemoryReader>("MemoryReader", "rd_qual", in.qual,
                                 b.port(), qual_q, array_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_refseq", in.refSeq,
                                 b.port(), refseq_q, scalar_cfg);

    // POS feeds both ReadToBases and the SPM reader.
    b.add<modules::Fork>("Fork", "fork_pos", pos_q,
                         std::vector<sim::HardwareQueue *>{pos_rtb_q,
                                                           pos_spm_q});

    // Reference SPM: initialised sequentially from REFS.SEQ; 2-bit base
    // storage architecturally.
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

    b.add<modules::ReadToBases>("ReadToBases", "rtb", pos_rtb_q, cigar_q,
                                seq_q, qual_q, bases_q);

    // Left join bases (bp, qual, cycle) with reference (refbase): keeps
    // insertions (null reference) so NM/MD see them.
    modules::JoinerConfig join_cfg;
    join_cfg.mode = modules::JoinMode::Left;
    join_cfg.leftFields = 3;
    join_cfg.rightFields = 1;
    b.add<modules::Joiner>("Joiner", "join", bases_q, ref_q, joined_q,
                           join_cfg);

    b.add<modules::Fork>("Fork", "fork_join", joined_q,
                         std::vector<sim::HardwareQueue *>{
                             join_nm_q, join_uq_q, join_md_q});

    // NM: per-read count of bases differing from the reference
    // (mismatches, insertions and deletions all compare unequal).
    modules::FilterConfig nm_filter;
    nm_filter.lhs = modules::FilterOperand::field(0);
    nm_filter.op = modules::CompareOp::Ne;
    nm_filter.rhs = modules::FilterOperand::field(3);
    nm_filter.maskMode = true;
    b.add<modules::Filter>("Filter", "nm_filter", join_nm_q, nm_mask_q,
                           nm_filter);
    modules::ReducerConfig nm_red;
    nm_red.op = modules::ReduceOp::Count;
    nm_red.granularity = modules::ReduceGranularity::PerItem;
    nm_red.maskField = 4;
    b.add<modules::Reducer>("Reducer", "nm_count", nm_mask_q, nm_q,
                            nm_red);
    modules::MemoryWriterConfig wr32;
    wr32.fieldIndex = 0;
    wr32.elemSizeBytes = 4;
    b.add<modules::MemoryWriter>("MemoryWriter", "wr_nm", nm_out,
                                 b.port(), nm_q, wr32);

    // UQ: per-read sum of quality scores at mismatching aligned bases —
    // insertions are excluded first, then the mismatch mask gates a sum.
    modules::FilterConfig uq_noins;
    uq_noins.lhs = modules::FilterOperand::key();
    uq_noins.op = modules::CompareOp::Ne;
    uq_noins.rhs = modules::FilterOperand::constant_(Flit::kIns);
    b.add<modules::Filter>("Filter", "uq_noins", join_uq_q, uq_noins_q,
                           uq_noins);
    modules::FilterConfig uq_filter;
    uq_filter.lhs = modules::FilterOperand::field(0);
    uq_filter.op = modules::CompareOp::Ne;
    uq_filter.rhs = modules::FilterOperand::field(3);
    uq_filter.maskMode = true;
    b.add<modules::Filter>("Filter", "uq_filter", uq_noins_q, uq_mask_q,
                           uq_filter);
    modules::ReducerConfig uq_red;
    uq_red.op = modules::ReduceOp::Sum;
    uq_red.granularity = modules::ReduceGranularity::PerItem;
    uq_red.valueField = 1;
    uq_red.maskField = 4;
    b.add<modules::Reducer>("Reducer", "uq_sum", uq_mask_q, uq_q,
                            uq_red);
    b.add<modules::MemoryWriter>("MemoryWriter", "wr_uq", uq_out,
                                 b.port(), uq_q, wr32);

    // MD: the custom MDGen module emits the tag characters.
    b.add<modules::MdGen>("MDGen", "mdgen", join_md_q, md_q);
    modules::MemoryWriterConfig wr_md;
    wr_md.fieldIndex = 0;
    wr_md.elemSizeBytes = 1;
    wr_md.rowMode = true;
    b.add<modules::MemoryWriter>("MemoryWriter", "wr_md", md_out,
                                 b.port(), md_q, wr_md);
    return {nm_out, uq_out, md_out};
}

} // namespace

MetadataAccelerator::MetadataAccelerator(const MetadataAccelConfig &config)
    : config_(config)
{
    if (config_.numPipelines < 1)
        fatal("need at least one pipeline");
    if (config_.psize < 1)
        fatal("partition size must be positive");
}

pipeline::HardwareCensus
MetadataAccelerator::census(int num_pipelines, int64_t psize,
                            int64_t overlap)
{
    return censusOf(num_pipelines, static_cast<size_t>(psize + overlap),
                    [](runtime::AcceleratorSession &s, PipelineBuilder &b,
                       const QueryBinding &in) {
                        buildPipeline(b, s, in);
                    });
}

MetadataAccelResult
MetadataAccelerator::run(std::vector<genome::AlignedRead> &reads,
                         const genome::ReferenceGenome &genome)
{
    MetadataAccelResult result;
    table::Partitioner partitioner(config_.psize, config_.overlap);
    std::vector<table::ReadPartition> partitions;
    {
        // Pre-partitioning happens in software ahead of the stage
        // (Section III-B); it is accounted as preparation.
        ScopedTimer timer(result.info.prepSeconds);
        partitions = partitioner.partitionReads(reads);
    }

    auto wire = [&](runtime::AcceleratorSession &s, PipelineBuilder &b,
                    size_t item) {
        QueryBinding in = stagePartition(
            s, b, reads, genome, partitions[item], config_.psize,
            config_.overlap, kPos | kEndPos | kCigar | kSeq | kQual | kRefSeq);
        return buildPipeline(b, s, in);
    };
    auto collect = [&](size_t item,
                       const std::vector<const ColumnBuffer *> &outs) {
        const ColumnBuffer *nm = outs[0], *uq = outs[1], *md = outs[2];
        const auto &indices = partitions[item].readIndices;
        GENESIS_ASSERT(nm->elements.size() == indices.size(),
                       "NM count %zu != reads %zu in partition",
                       nm->elements.size(), indices.size());
        GENESIS_ASSERT(uq->elements.size() == indices.size(),
                       "UQ count %zu != reads %zu in partition",
                       uq->elements.size(), indices.size());
        GENESIS_ASSERT(md->numRows() == indices.size(),
                       "MD rows %zu != reads %zu in partition",
                       md->numRows(), indices.size());
        size_t md_cursor = 0;
        for (size_t i = 0; i < indices.size(); ++i) {
            auto &read = reads[indices[i]];
            read.nmTag = static_cast<int32_t>(nm->elements[i]);
            read.uqTag = static_cast<int32_t>(uq->elements[i]);
            std::string tag;
            for (uint32_t c = 0; c < md->rowLengths[i]; ++c)
                tag.push_back(static_cast<char>(md->elements[md_cursor++]));
            read.mdTag = std::move(tag);
            ++result.readsTagged;
        }
    };
    runBatches(partitions.size(), config_.numPipelines, config_.runtime,
               result.info, wire, collect);
    return result;
}

} // namespace genesis::core
