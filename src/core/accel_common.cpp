#include "core/accel_common.h"

#include <algorithm>

#include "base/logging.h"
#include "base/timer.h"

namespace genesis::core {

std::vector<uint32_t>
ReadColumns::scalarLens(size_t n)
{
    return std::vector<uint32_t>(n, 1);
}

ReadColumns
ReadColumns::fromReads(const std::vector<genome::AlignedRead> &reads,
                       const std::vector<size_t> &indices)
{
    ReadColumns cols;
    cols.numReads = indices.size();
    cols.pos.reserve(indices.size());
    cols.endpos.reserve(indices.size());
    cols.flags.reserve(indices.size());
    for (size_t idx : indices) {
        GENESIS_ASSERT(idx < reads.size(), "read index %zu out of range",
                       idx);
        const auto &read = reads[idx];
        cols.pos.push_back(read.pos);
        cols.endpos.push_back(read.endPos());
        cols.flags.push_back(read.flags);
        auto packed = read.cigar.packAll();
        for (uint16_t raw : packed)
            cols.cigar.push_back(raw);
        cols.cigarLens.push_back(static_cast<uint32_t>(packed.size()));
        for (uint8_t b : read.seq)
            cols.seq.push_back(b);
        cols.seqLens.push_back(static_cast<uint32_t>(read.seq.size()));
        for (uint8_t q : read.qual)
            cols.qual.push_back(q);
        cols.qualLens.push_back(static_cast<uint32_t>(read.qual.size()));
    }
    return cols;
}

RefColumns
RefColumns::fromGenome(const genome::ReferenceGenome &genome, uint8_t chr,
                       int64_t window_start, int64_t window_end,
                       int64_t overlap)
{
    const genome::Chromosome &chrom = genome.chromosome(chr);
    RefColumns cols;
    cols.windowStart = window_start;
    int64_t end = std::min<int64_t>(window_end + overlap, chrom.length());
    cols.seq.reserve(static_cast<size_t>(end - window_start));
    cols.isSnp.reserve(static_cast<size_t>(end - window_start));
    for (int64_t p = window_start; p < end; ++p) {
        cols.seq.push_back(chrom.seq[static_cast<size_t>(p)]);
        cols.isSnp.push_back(chrom.isSnp[static_cast<size_t>(p)] ? 1 : 0);
    }
    return cols;
}

pipeline::QueryBinding
stagePartition(runtime::AcceleratorSession &session,
               const pipeline::PipelineBuilder &builder,
               const std::vector<genome::AlignedRead> &reads,
               const genome::ReferenceGenome &genome,
               const table::ReadPartition &part, int64_t psize,
               int64_t overlap, unsigned columns)
{
    ReadColumns cols = ReadColumns::fromReads(reads, part.readIndices);
    // Deletions can stretch a read's reference span past the nominal LEN
    // overlap; size the window to cover the longest read in this
    // partition.
    for (size_t idx : part.readIndices)
        overlap = std::max(overlap, reads[idx].endPos() - part.windowEnd);
    RefColumns ref = RefColumns::fromGenome(genome, part.chr,
                                            part.windowStart,
                                            part.windowEnd, overlap);

    // A scalar column (lens == nullptr) holds one element per row.
    auto upload = [&](unsigned column, const char *name,
                      std::vector<int64_t> &elements,
                      std::vector<uint32_t> *lens, uint32_t elem_bytes)
        -> const modules::ColumnBuffer * {
        if (!(columns & column))
            return nullptr;
        std::vector<uint32_t> row_lengths =
            lens ? std::move(*lens) : ReadColumns::scalarLens(elements.size());
        return session.configureMem(builder.scopedName(name),
                                    std::move(elements),
                                    std::move(row_lengths), elem_bytes);
    };
    pipeline::QueryBinding in;
    in.pos = upload(kPos, "READS.POS", cols.pos, nullptr, 4);
    in.endpos = upload(kEndPos, "READS.ENDPOS", cols.endpos, nullptr, 4);
    in.cigar = upload(kCigar, "READS.CIGAR", cols.cigar, &cols.cigarLens, 2);
    in.seq = upload(kSeq, "READS.SEQ", cols.seq, &cols.seqLens, 1);
    in.qual = upload(kQual, "READS.QUAL", cols.qual, &cols.qualLens, 1);
    in.flags = upload(kFlags, "READS.FLAGS", cols.flags, nullptr, 2);
    in.refSeq = upload(kRefSeq, "REFS.SEQ", ref.seq, nullptr, 1);
    in.refSnp = upload(kRefSnp, "REFS.IS_SNP", ref.isSnp, nullptr, 1);
    in.windowStart = part.windowStart;
    in.spmWords = static_cast<size_t>(psize + overlap);
    return in;
}

void
runBatches(size_t items, int num_pipelines,
           const runtime::RuntimeConfig &runtime, AccelRunInfo &info,
           const WireFn &wire, const CollectFn &collect)
{
    const size_t lanes = static_cast<size_t>(num_pipelines);
    for (size_t base = 0; base < items; base += lanes) {
        runtime::AcceleratorSession session(runtime);
        const size_t batch = std::min(lanes, items - base);
        std::vector<std::vector<modules::ColumnBuffer *>> outputs(batch);
        {
            ScopedTimer timer(info.prepSeconds);
            for (size_t p = 0; p < batch; ++p) {
                pipeline::PipelineBuilder builder(session.sim(),
                                                  static_cast<int>(p));
                outputs[p] = wire(session, builder, base + p);
            }
        }

        session.start();
        session.wait();
        info.totalCycles += session.sim().cycle();
        info.moduleTicks += session.sim().moduleTicks();
        info.fastForwardedCycles += session.sim().fastForwardedCycles();
        ++info.batches;
        info.stats.merge(session.sim().collectStats());

        for (size_t p = 0; p < batch; ++p) {
            std::vector<const modules::ColumnBuffer *> flushed;
            for (const modules::ColumnBuffer *out : outputs[p])
                flushed.push_back(session.flush(out->name));
            ScopedTimer timer(info.timing.hostSeconds);
            collect(base + p, flushed);
        }
        info.timing += session.timing();
    }
}

pipeline::HardwareCensus
censusOf(int num_pipelines, size_t spm_words,
         const std::function<void(runtime::AcceleratorSession &,
                                  pipeline::PipelineBuilder &,
                                  const pipeline::QueryBinding &)> &wire)
{
    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    modules::ColumnBuffer placeholder;
    pipeline::QueryBinding in;
    in.pos = in.endpos = in.cigar = in.seq = in.qual = in.flags =
        in.refSeq = in.refSnp = &placeholder;
    in.spmWords = spm_words;
    pipeline::HardwareCensus census;
    for (int p = 0; p < num_pipelines; ++p) {
        pipeline::PipelineBuilder builder(session.sim(), p);
        wire(session, builder, in);
        census.merge(builder.census());
    }
    return census;
}

void
scatterRows(const modules::ColumnBuffer &flushed,
            const std::vector<size_t> &rows, std::vector<int64_t> &dst)
{
    GENESIS_ASSERT(flushed.elements.size() == rows.size(),
                   "%s holds %zu rows, expected %zu", flushed.name.c_str(),
                   flushed.elements.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        dst[rows[i]] = flushed.elements[i];
}

} // namespace genesis::core
