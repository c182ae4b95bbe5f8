#include "table/genomic_schema.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "table/partition.h"

namespace genesis::table {

Schema
readsSchema()
{
    return Schema{
        {"CHR", DataType::UInt8},
        {"POS", DataType::UInt32},
        {"ENDPOS", DataType::UInt32},
        {"CIGAR", DataType::Array16},
        {"SEQ", DataType::Array8},
        {"QUAL", DataType::Array8},
        {"RG", DataType::UInt16},
        {"FLAGS", DataType::UInt16},
        {"ROWID", DataType::Int64},
    };
}

Schema
refSchema()
{
    return Schema{
        {"CHR", DataType::UInt8},
        {"REFPOS", DataType::UInt32},
        {"SEQ", DataType::Array8},
        {"IS_SNP", DataType::BitArray},
        {"PID", DataType::Int64},
    };
}

namespace {

void
appendRead(Table &t, const genome::AlignedRead &read, size_t rowid)
{
    Blob cigar, seq, qual;
    for (uint16_t raw : read.cigar.packAll())
        cigar.push_back(raw);
    seq.assign(read.seq.begin(), read.seq.end());
    qual.assign(read.qual.begin(), read.qual.end());
    t.appendRow({
        Value(static_cast<int64_t>(read.chr)),
        Value(read.pos),
        Value(read.endPos()),
        Value(std::move(cigar)),
        Value(std::move(seq)),
        Value(std::move(qual)),
        Value(static_cast<int64_t>(read.readGroup)),
        Value(static_cast<int64_t>(read.flags)),
        Value(static_cast<int64_t>(rowid)),
    });
}

} // namespace

Table
buildReadsTable(const std::vector<genome::AlignedRead> &reads,
                const std::string &name)
{
    Table t(name, readsSchema());
    for (size_t i = 0; i < reads.size(); ++i)
        appendRead(t, reads[i], i);
    return t;
}

Table
buildReadsTable(const std::vector<genome::AlignedRead> &reads,
                const std::vector<size_t> &row_indices,
                const std::string &name)
{
    Table t(name, readsSchema());
    for (size_t idx : row_indices) {
        GENESIS_ASSERT(idx < reads.size(), "read index %zu out of range",
                       idx);
        appendRead(t, reads[idx], idx);
    }
    return t;
}

namespace {

/**
 * The REF table's rows in (chromosome, window) order, or only the row
 * whose PID is `only_pid` when one is given. Every REF row is built
 * here, so buildRefTable() and buildRefPartition() share one row
 * layout and one PID rule.
 */
Table
buildRefRows(const genome::ReferenceGenome &genome, int64_t psize,
             int64_t overlap, const std::string &name,
             std::optional<int64_t> only_pid)
{
    if (psize < 1)
        fatal("reference partition size must be positive");
    Table t(name, refSchema());
    Partitioner partitioner(psize, overlap);
    for (const auto &chrom : genome.chromosomes()) {
        int64_t num_windows = (chrom.length() + psize - 1) / psize;
        for (int64_t w = 0; w < num_windows; ++w) {
            int64_t start = w * psize;
            int64_t pid = partitioner.pid(chrom.id, start);
            if (only_pid && pid != *only_pid)
                continue;
            int64_t end = std::min<int64_t>(start + psize + overlap,
                                            chrom.length());
            Blob seq, snp;
            seq.reserve(static_cast<size_t>(end - start));
            snp.reserve(static_cast<size_t>(end - start));
            for (int64_t p = start; p < end; ++p) {
                seq.push_back(chrom.seq[static_cast<size_t>(p)]);
                snp.push_back(chrom.isSnp[static_cast<size_t>(p)] ? 1 : 0);
            }
            t.appendRow({
                Value(static_cast<int64_t>(chrom.id)),
                Value(start),
                Value(std::move(seq)),
                Value(std::move(snp)),
                Value(pid),
            });
        }
    }
    return t;
}

} // namespace

Table
buildRefTable(const genome::ReferenceGenome &genome, int64_t psize,
              int64_t overlap, const std::string &name)
{
    return buildRefRows(genome, psize, overlap, name, std::nullopt);
}

Table
buildRefPartition(const genome::ReferenceGenome &genome, int64_t pid,
                  int64_t psize, int64_t overlap)
{
    return buildRefRows(genome, psize, overlap, "REF", pid);
}

} // namespace genesis::table
