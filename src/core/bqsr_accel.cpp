#include "core/bqsr_accel.h"

#include "base/logging.h"
#include "base/timer.h"
#include "modules/binidgen.h"
#include "modules/filter.h"
#include "modules/fork.h"
#include "modules/joiner.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/read_to_bases.h"
#include "modules/spm_reader.h"
#include "modules/spm_updater.h"
#include "modules/stream_alu.h"

namespace genesis::core {

using modules::ColumnBuffer;
using pipeline::PipelineBuilder;
using pipeline::QueryBinding;
using sim::Flit;

namespace {

/**
 * Wire one Figure-12 pipeline; returns its TOT1, TOT2, ERR1 and ERR2
 * (cycle/context totals and errors) buffers.
 */
std::vector<ColumnBuffer *>
buildPipeline(PipelineBuilder &b, runtime::AcceleratorSession &s,
              const QueryBinding &in, const gatk::BqsrConfig &bqsr)
{
    modules::BinIdGenConfig bin_cfg;
    bin_cfg.numCycleValues = bqsr.numCycleValues;
    bin_cfg.readLength = bqsr.readLength;
    bin_cfg.numContextTypes = bqsr.numContextTypes;
    const size_t cycle_bins = bqsr.cycleTableSize();
    const size_t context_bins = bqsr.contextTableSize();

    std::vector<ColumnBuffer *> outs;
    for (const char *name : {"TOT1", "TOT2", "ERR1", "ERR2"})
        outs.push_back(s.configureOutput(b.scopedName(name), 4));

    // Queues.
    auto *pos_q = b.queue("pos");
    auto *pos_rtb_q = b.queue("pos_rtb");
    auto *pos_spm_q = b.queue("pos_spm");
    auto *endpos_q = b.queue("endpos");
    auto *cigar_q = b.queue("cigar");
    auto *seq_q = b.queue("seq");
    auto *qual_q = b.queue("qual");
    auto *flags_q = b.queue("flags");
    auto *refseq_q = b.queue("refseq");
    auto *refsnp_q = b.queue("refsnp");
    auto *packed_q = b.queue("packed");
    auto *bases_q = b.queue("bases");
    auto *binned_q = b.queue("binned");
    auto *ref_q = b.queue("ref");
    auto *joined_q = b.queue("joined");
    auto *notsnp_q = b.queue("notsnp");
    auto *tot1_q = b.queue("tot1");
    auto *tot2_q = b.queue("tot2");
    auto *to_err_q = b.queue("to_err");
    auto *err_q = b.queue("err");
    auto *err1_q = b.queue("err1");
    auto *err2_q = b.queue("err2");
    auto *dr_tot1_q = b.queue("dr_tot1");
    auto *dr_tot2_q = b.queue("dr_tot2");
    auto *dr_err1_q = b.queue("dr_err1");
    auto *dr_err2_q = b.queue("dr_err2");

    // Memory readers.
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
    b.add<modules::MemoryReader>("MemoryReader", "rd_qual", in.qual,
                                 b.port(), qual_q, array_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_flags", in.flags,
                                 b.port(), flags_q, scalar_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_refseq", in.refSeq,
                                 b.port(), refseq_q, scalar_cfg);
    b.add<modules::MemoryReader>("MemoryReader", "rd_refsnp", in.refSnp,
                                 b.port(), refsnp_q, scalar_cfg);

    b.add<modules::Fork>("Fork", "fork_pos", pos_q,
                         std::vector<sim::HardwareQueue *>{pos_rtb_q,
                                                           pos_spm_q});

    // Reference SPM holds (base | IS_SNP << 8) pairs; architecturally
    // 3 bits per position (2-bit base + SNP bit).
    auto *ref_spm = b.scratchpad("ref_spm", in.spmWords, 2, 3);
    modules::StreamAluConfig pack_cfg;
    pack_cfg.op = modules::AluOp::Pack;
    pack_cfg.fieldA = 0;
    pack_cfg.fieldB = 0;
    b.add<modules::StreamAlu>("StreamAlu", "pack", refseq_q, refsnp_q,
                              packed_q, pack_cfg);
    modules::SpmUpdaterConfig init_cfg;
    init_cfg.mode = modules::SpmUpdateMode::Sequential;
    init_cfg.valueField = 0;
    auto *ref_init = b.add<modules::SpmUpdater>(
        "SpmUpdater", "spm_init", ref_spm, packed_q, init_cfg);

    modules::SpmReaderConfig ref_rd_cfg;
    ref_rd_cfg.mode = modules::SpmReadMode::Interval;
    ref_rd_cfg.addrBase = in.windowStart;
    ref_rd_cfg.unpackPair = true;
    ref_rd_cfg.waitFor = ref_init;
    b.add<modules::SpmReader>("SpmReader", "spm_rd", ref_spm, pos_spm_q,
                              endpos_q, ref_q, ref_rd_cfg);

    b.add<modules::ReadToBases>("ReadToBases", "rtb", pos_rtb_q, cigar_q,
                                seq_q, qual_q, bases_q);
    b.add<modules::BinIdGen>("BinIDGen", "binid", bases_q, flags_q,
                             binned_q, bin_cfg);

    // Inner join [bp, qual, b1, b2] with [ref base, IS_SNP] on position.
    modules::JoinerConfig join_cfg;
    join_cfg.mode = modules::JoinMode::Inner;
    join_cfg.leftFields = 4;
    join_cfg.rightFields = 2;
    b.add<modules::Joiner>("Joiner", "join", binned_q, ref_q, joined_q,
                           join_cfg);

    // Known variant sites never count (expected mismatches).
    modules::FilterConfig snp_filter;
    snp_filter.lhs = modules::FilterOperand::field(5);
    snp_filter.op = modules::CompareOp::Eq;
    snp_filter.rhs = modules::FilterOperand::constant_(0);
    b.add<modules::Filter>("Filter", "not_snp", joined_q, notsnp_q,
                           snp_filter);

    b.add<modules::Fork>("Fork", "fork_total", notsnp_q,
                         std::vector<sim::HardwareQueue *>{
                             tot1_q, tot2_q, to_err_q});

    // Total-observation counters (read-modify-write increments). BRAM
    // macros are 18/36 bits wide natively, so the architectural counter
    // width is 24 bits; drained counts accumulate in 64-bit on the host.
    const size_t b1_field = 2, b2_field = 3;
    auto *tot1_spm = b.scratchpad("tot1_spm", cycle_bins, 4, 24);
    auto *tot2_spm = b.scratchpad("tot2_spm", context_bins, 4, 24);
    auto *err1_spm = b.scratchpad("err1_spm", cycle_bins, 4, 24);
    auto *err2_spm = b.scratchpad("err2_spm", context_bins, 4, 24);

    auto rmw = [](int addr_field) {
        modules::SpmUpdaterConfig cfg;
        cfg.mode = modules::SpmUpdateMode::ReadModifyWrite;
        cfg.addrField = addr_field;
        return cfg;
    };
    auto *upd_tot1 = b.add<modules::SpmUpdater>(
        "SpmUpdaterRMW", "upd_tot1", tot1_spm, tot1_q,
        rmw(static_cast<int>(b1_field)));
    auto *upd_tot2 = b.add<modules::SpmUpdater>(
        "SpmUpdaterRMW", "upd_tot2", tot2_spm, tot2_q,
        rmw(static_cast<int>(b2_field)));

    // Errors: cascade a mismatch filter, then two more counters.
    modules::FilterConfig err_filter;
    err_filter.lhs = modules::FilterOperand::field(0);
    err_filter.op = modules::CompareOp::Ne;
    err_filter.rhs = modules::FilterOperand::field(4);
    b.add<modules::Filter>("Filter", "err_filter", to_err_q, err_q,
                           err_filter);
    b.add<modules::Fork>("Fork", "fork_err", err_q,
                         std::vector<sim::HardwareQueue *>{err1_q,
                                                           err2_q});
    auto *upd_err1 = b.add<modules::SpmUpdater>(
        "SpmUpdaterRMW", "upd_err1", err1_spm, err1_q,
        rmw(static_cast<int>(b1_field)));
    auto *upd_err2 = b.add<modules::SpmUpdater>(
        "SpmUpdaterRMW", "upd_err2", err2_spm, err2_q,
        rmw(static_cast<int>(b2_field)));

    // Drain the four count buffers to memory once updates finish.
    modules::SpmReaderConfig drain_cfg;
    drain_cfg.mode = modules::SpmReadMode::Drain;
    auto drain = [&](const char *name, sim::Scratchpad *spm,
                     sim::Module *wait, sim::HardwareQueue *q,
                     ColumnBuffer *out) {
        b.add<modules::SpmReader>("SpmReader",
                                  std::string("drain_") + name, spm,
                                  wait, q, drain_cfg);
        modules::MemoryWriterConfig wr;
        wr.fieldIndex = 0;
        wr.elemSizeBytes = 4;
        b.add<modules::MemoryWriter>("MemoryWriter",
                                     std::string("wr_") + name, out,
                                     b.port(), q, wr);
    };
    drain("tot1", tot1_spm, upd_tot1, dr_tot1_q, outs[0]);
    drain("tot2", tot2_spm, upd_tot2, dr_tot2_q, outs[1]);
    drain("err1", err1_spm, upd_err1, dr_err1_q, outs[2]);
    drain("err2", err2_spm, upd_err2, dr_err2_q, outs[3]);
    return outs;
}

} // namespace

BqsrAccelerator::BqsrAccelerator(const BqsrAccelConfig &config)
    : config_(config)
{
    if (config_.numPipelines < 1)
        fatal("need at least one pipeline");
    if (config_.psize < 1)
        fatal("partition size must be positive");
}

pipeline::HardwareCensus
BqsrAccelerator::census(int num_pipelines, int64_t psize, int64_t overlap)
{
    return censusOf(num_pipelines, static_cast<size_t>(psize + overlap),
                    [](runtime::AcceleratorSession &s, PipelineBuilder &b,
                       const QueryBinding &in) {
                        buildPipeline(b, s, in, gatk::BqsrConfig{});
                    });
}

BqsrAccelResult
BqsrAccelerator::run(const std::vector<genome::AlignedRead> &reads,
                     const genome::ReferenceGenome &genome)
{
    BqsrAccelResult result;
    result.table = gatk::CovariateTable(config_.bqsr);

    table::Partitioner partitioner(config_.psize, config_.overlap);
    std::vector<table::ReadPartition> partitions;
    {
        // Pre-partitioning (by window, then read group) is software
        // preparation ahead of the stage, per Section IV-D.
        ScopedTimer timer(result.info.prepSeconds);
        partitions = partitioner.partitionReadsByGroup(reads);
    }

    auto wire = [&](runtime::AcceleratorSession &s, PipelineBuilder &b,
                    size_t item) {
        QueryBinding in = stagePartition(
            s, b, reads, genome, partitions[item], config_.psize,
            config_.overlap,
            kPos | kEndPos | kCigar | kSeq | kQual | kFlags | kRefSeq |
                kRefSnp);
        return buildPipeline(b, s, in, config_.bqsr);
    };
    auto collect = [&](size_t item,
                       const std::vector<const ColumnBuffer *> &outs) {
        size_t rg = partitions[item].readGroup;
        GENESIS_ASSERT(rg < result.table.cycleTotals.size(),
                       "read group %zu out of range", rg);
        auto accumulate = [](std::vector<int64_t> &dst,
                             const ColumnBuffer *src) {
            GENESIS_ASSERT(src->elements.size() == dst.size(),
                           "%s holds %zu bins, table has %zu",
                           src->name.c_str(), src->elements.size(),
                           dst.size());
            for (size_t i = 0; i < dst.size(); ++i)
                dst[i] += src->elements[i];
        };
        accumulate(result.table.cycleTotals[rg], outs[0]);
        accumulate(result.table.contextTotals[rg], outs[1]);
        accumulate(result.table.cycleErrors[rg], outs[2]);
        accumulate(result.table.contextErrors[rg], outs[3]);
    };
    runBatches(partitions.size(), config_.numPipelines, config_.runtime,
               result.info, wire, collect);
    return result;
}

} // namespace genesis::core
