/**
 * @file
 * The genomic table schemas of paper Table I, plus builders that convert
 * genome-domain objects (AlignedRead, ReferenceGenome) into relational
 * tables the SQL engine and the accelerator both consume.
 */

#ifndef GENESIS_TABLE_GENOMIC_SCHEMA_H
#define GENESIS_TABLE_GENOMIC_SCHEMA_H

#include <vector>

#include "genome/read.h"
#include "genome/reference.h"
#include "table/table.h"

namespace genesis::table {

/** Default reference partition size (paper: PSIZE = 1 M base pairs). */
inline constexpr int64_t kDefaultPsize = 1'000'000;

/**
 * Schema of the READS table (paper Table I), extended with the fields the
 * accelerated stages need on-device or for bookkeeping:
 *  CHR u8, POS u32, ENDPOS u32, CIGAR u16[], SEQ u8[], QUAL u8[],
 *  RG u16 (read group), FLAGS u16, ROWID i64 (host-side back-reference).
 */
Schema readsSchema();

/**
 * Schema of the REF table (paper Table I):
 *  CHR u8, REFPOS u32, SEQ u8[], IS_SNP bool[], PID i64.
 */
Schema refSchema();

/** Build a READS table over all given reads (ROWID = index). */
Table buildReadsTable(const std::vector<genome::AlignedRead> &reads,
                      const std::string &name = "READS");

/**
 * Build a READS table over a subset of reads selected by row index
 * (ROWID preserves the index into the original vector).
 */
Table buildReadsTable(const std::vector<genome::AlignedRead> &reads,
                      const std::vector<size_t> &row_indices,
                      const std::string &name = "READS");

/**
 * Build the REF table: one row per (chromosome, PSIZE window), each row
 * holding PSIZE+overlap base pairs so reads near a window boundary still
 * find their full reference context (Section III-B).
 *
 * @param overlap extra bases past the window end (paper: LEN)
 */
Table buildRefTable(const genome::ReferenceGenome &genome,
                    int64_t psize = kDefaultPsize, int64_t overlap = 151,
                    const std::string &name = "REF");

/**
 * Build one partition of the REF table: the row of buildRefTable() with
 * the same psize and overlap whose PID is `pid`, or no row when the
 * genome has no window with that PID. This is what a query over
 * `REF PARTITION (pid)` reads, staged without the other windows.
 */
Table buildRefPartition(const genome::ReferenceGenome &genome, int64_t pid,
                        int64_t psize, int64_t overlap);

} // namespace genesis::table

#endif // GENESIS_TABLE_GENOMIC_SCHEMA_H
