/**
 * @file
 * Unit tests for src/table: values, columns (incl. device serialisation),
 * schemas, tables, table stats, the Table-I genomic schemas, and the
 * partitioner.
 */

#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

#include "base/logging.h"
#include "base/rng.h"
#include "sim_test_utils.h"
#include "table/genomic_schema.h"
#include "table/partition.h"
#include "table/stats.h"
#include "table/table.h"

namespace genesis::table {
namespace {

TEST(Value, TypePredicates)
{
    EXPECT_TRUE(Value().isNull());
    EXPECT_TRUE(Value(5).isInt());
    EXPECT_TRUE(Value("x").isString());
    EXPECT_TRUE(Value(Blob{1, 2}).isBlob());
}

TEST(Value, AsAccessorsThrowOnMismatch)
{
    EXPECT_THROW(Value("s").asInt(), FatalError);
    EXPECT_THROW(Value(1).asString(), FatalError);
    EXPECT_THROW(Value(1).asBlob(), FatalError);
}

TEST(Value, Truthiness)
{
    EXPECT_FALSE(Value().truthy());
    EXPECT_FALSE(Value(0).truthy());
    EXPECT_TRUE(Value(-1).truthy());
    EXPECT_FALSE(Value("").truthy());
    EXPECT_TRUE(Value("a").truthy());
    EXPECT_FALSE(Value(Blob{}).truthy());
}

TEST(Value, OrderingAcrossKinds)
{
    EXPECT_TRUE(Value() < Value(0));
    EXPECT_TRUE(Value(5) < Value("a"));
    EXPECT_TRUE(Value("a") < Value(Blob{}));
    EXPECT_TRUE(Value(1) < Value(2));
    EXPECT_FALSE(Value(2) < Value(1));
}

TEST(Value, StrRendering)
{
    EXPECT_EQ(Value().str(), "NULL");
    EXPECT_EQ(Value(42).str(), "42");
    EXPECT_EQ(Value("hi").str(), "'hi'");
    EXPECT_EQ(Value(Blob{1, 2}).str(), "[1,2]");
}

TEST(Column, ScalarAppendAndRead)
{
    Column col("POS", DataType::UInt32);
    col.appendScalar(7);
    col.append(Value(9));
    EXPECT_EQ(col.size(), 2u);
    EXPECT_EQ(col.scalarAt(0), 7);
    EXPECT_EQ(col.value(1).asInt(), 9);
    EXPECT_EQ(col.elementCount(0), 1u);
}

TEST(Column, ArrayAppendAndRead)
{
    Column col("SEQ", DataType::Array8);
    col.appendArray({0, 1, 2});
    col.appendArray({});
    col.appendArray({3});
    EXPECT_EQ(col.size(), 3u);
    EXPECT_EQ(col.elementCount(0), 3u);
    EXPECT_EQ(col.elementCount(1), 0u);
    EXPECT_EQ(col.elementAt(2, 0), 3);
    EXPECT_EQ(col.value(0).asBlob(), (Blob{0, 1, 2}));
}

TEST(Column, TypeMismatchPanics)
{
    setQuiet(true);
    Column scalar("A", DataType::UInt8);
    EXPECT_THROW(scalar.appendArray({1}), PanicError);
    Column array("B", DataType::Array8);
    EXPECT_THROW(array.appendScalar(1), PanicError);
    setQuiet(false);
}

TEST(Column, SerializeScalarLittleEndian)
{
    Column col("POS", DataType::UInt32);
    col.appendScalar(0x01020304);
    std::vector<uint8_t> raw;
    std::vector<uint32_t> lens;
    col.serialize(raw, lens);
    ASSERT_EQ(raw.size(), 4u);
    EXPECT_EQ(raw[0], 0x04);
    EXPECT_EQ(raw[3], 0x01);
    EXPECT_EQ(lens, (std::vector<uint32_t>{1}));
}

TEST(Column, SerializeArrayRows)
{
    Column col("CIGAR", DataType::Array16);
    col.appendArray({0x0102, 0x0304});
    col.appendArray({0x0506});
    std::vector<uint8_t> raw;
    std::vector<uint32_t> lens;
    col.serialize(raw, lens);
    EXPECT_EQ(raw.size(), 6u);
    EXPECT_EQ(lens, (std::vector<uint32_t>{2, 1}));
    EXPECT_EQ(raw[0], 0x02);
    EXPECT_EQ(raw[1], 0x01);
}

TEST(Column, SerializeRange)
{
    Column col("A", DataType::UInt8);
    for (int i = 0; i < 5; ++i)
        col.appendScalar(i);
    std::vector<uint8_t> raw;
    std::vector<uint32_t> lens;
    col.serialize(raw, lens, 1, 3);
    EXPECT_EQ(raw, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Column, StringColumnNotStreamable)
{
    EXPECT_THROW(elementSize(DataType::String), FatalError);
}

TEST(Schema, DuplicateFieldFatal)
{
    Schema s;
    s.addField("A", DataType::UInt8);
    EXPECT_THROW(s.addField("A", DataType::UInt8), FatalError);
}

TEST(Schema, IndexOfAndRequire)
{
    Schema s{{"A", DataType::UInt8}, {"B", DataType::Int64}};
    EXPECT_EQ(s.indexOf("B"), 1);
    EXPECT_EQ(s.indexOf("Z"), -1);
    EXPECT_EQ(s.require("A"), 0u);
    EXPECT_THROW(s.require("Z"), FatalError);
}

TEST(Table, AppendAndAccess)
{
    Table t("t", Schema{{"A", DataType::Int64}, {"B", DataType::String}});
    t.appendRow({Value(1), Value("x")});
    t.appendRow({Value(2), Value("y")});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.at(1, "B").asString(), "y");
    EXPECT_EQ(t.at(0, 0).asInt(), 1);
}

TEST(Table, WidthMismatchFatal)
{
    Table t("t", Schema{{"A", DataType::Int64}});
    EXPECT_THROW(t.appendRow({Value(1), Value(2)}), FatalError);
}

TEST(Table, EmptyLikeCopiesSchemaOnly)
{
    Table t("t", Schema{{"A", DataType::Int64}});
    t.appendRow({Value(1)});
    Table e = t.emptyLike("e");
    EXPECT_EQ(e.numRows(), 0u);
    EXPECT_EQ(e.schema(), t.schema());
    EXPECT_EQ(e.name(), "e");
}

/** A scalar column's stats by their definition, over a node-based set. */
ColumnStats
nodeSetStats(const std::vector<int64_t> &values,
             const std::vector<bool> &nulls)
{
    ColumnStats s;
    s.rowCount = static_cast<int64_t>(values.size());
    std::unordered_set<int64_t> seen;
    for (size_t r = 0; r < values.size(); ++r) {
        if (nulls[r]) {
            ++s.nullCount;
            continue;
        }
        const int64_t v = values[r];
        if (!s.hasRange) {
            s.hasRange = true;
            s.minValue = s.maxValue = v;
        }
        s.minValue = std::min(s.minValue, v);
        s.maxValue = std::max(s.maxValue, v);
        if (seen.size() < kDistinctCap)
            seen.insert(v);
    }
    s.hasDistinct = true;
    s.distinct = static_cast<int64_t>(seen.size());
    return s;
}

TEST(TableStats, ScalarColumnsMatchTheNodeSetDefinition)
{
    // Unsorted random columns with NULLs: full-range values, values
    // drawn from a small range (many duplicates), and columns with more
    // than kDistinctCap distinct values, where the count saturates.
    struct Shape {
        size_t rows;
        uint64_t range; ///< values in [-range/2, range/2); 0 = any
    };
    const Shape shapes[] = {
        {0, 0},    {1, 0},       {3, 0},
        {7, 3},    {500, 50},    {5000, 0},
        {2 * kDistinctCap, 0}, {3 * kDistinctCap, 2 * kDistinctCap},
    };
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    Rng rng(2020);
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(std::to_string(shape.rows) + " rows, range " +
                     std::to_string(shape.range));
        std::vector<int64_t> values(shape.rows);
        std::vector<bool> nulls(shape.rows);
        for (size_t r = 0; r < shape.rows; ++r) {
            nulls[r] = rng.below(8) == 0;
            values[r] = shape.range == 0
                ? static_cast<int64_t>(rng.next())
                : static_cast<int64_t>(rng.below(shape.range)) -
                    static_cast<int64_t>(shape.range / 2);
        }
        // The int64_t extremes, twice for the minimum.
        for (size_t r = 0; r < std::min<size_t>(shape.rows, 3); ++r) {
            values[r] = r == 1 ? kMax : kMin;
            nulls[r] = false;
        }
        const ColumnStats want = nodeSetStats(values, nulls);
        Table t("t", Schema{{"V", DataType::Int64}},
                {Column("V", DataType::Int64, values, nulls)});
        const TableStats stats = collectTableStats(t);
        EXPECT_EQ(stats.rowCount, static_cast<int64_t>(shape.rows));
        const ColumnStats *got = stats.column("V");
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->rowCount, want.rowCount);
        EXPECT_EQ(got->nullCount, want.nullCount);
        EXPECT_EQ(got->hasRange, want.hasRange);
        EXPECT_EQ(got->minValue, want.minValue);
        EXPECT_EQ(got->maxValue, want.maxValue);
        EXPECT_EQ(got->hasDistinct, want.hasDistinct);
        EXPECT_EQ(got->distinct, want.distinct);
        if (shape.rows >= 2 * kDistinctCap)
            EXPECT_EQ(got->distinct, static_cast<int64_t>(kDistinctCap));
    }
}

TEST(GenomicSchema, ReadsTableMatchesTableI)
{
    Schema s = readsSchema();
    EXPECT_EQ(s.field(s.require("CHR")).type, DataType::UInt8);
    EXPECT_EQ(s.field(s.require("POS")).type, DataType::UInt32);
    EXPECT_EQ(s.field(s.require("ENDPOS")).type, DataType::UInt32);
    EXPECT_EQ(s.field(s.require("CIGAR")).type, DataType::Array16);
    EXPECT_EQ(s.field(s.require("SEQ")).type, DataType::Array8);
    EXPECT_EQ(s.field(s.require("QUAL")).type, DataType::Array8);
}

TEST(GenomicSchema, BuildReadsTableRoundTrip)
{
    auto w = test::makeSmallWorkload(3, 50);
    Table t = buildReadsTable(w.reads.reads);
    ASSERT_EQ(t.numRows(), w.reads.reads.size());
    for (size_t r = 0; r < t.numRows(); r += 7) {
        const auto &read = w.reads.reads[r];
        EXPECT_EQ(t.at(r, "CHR").asInt(), read.chr);
        EXPECT_EQ(t.at(r, "POS").asInt(), read.pos);
        EXPECT_EQ(t.at(r, "ENDPOS").asInt(), read.endPos());
        EXPECT_EQ(t.at(r, "ROWID").asInt(), static_cast<int64_t>(r));
        auto seq = t.at(r, "SEQ").asBlob();
        ASSERT_EQ(seq.size(), read.seq.size());
        EXPECT_EQ(seq[0], read.seq[0]);
    }
}

TEST(GenomicSchema, RefTableWindowsAndOverlap)
{
    auto w = test::makeSmallWorkload(4, 10, 25'000, 1);
    Table ref = buildRefTable(w.genome, 10'000, 151);
    ASSERT_EQ(ref.numRows(), 3u); // ceil(25000 / 10000)
    EXPECT_EQ(ref.at(0, "REFPOS").asInt(), 0);
    EXPECT_EQ(ref.at(1, "REFPOS").asInt(), 10'000);
    // Interior windows carry PSIZE + overlap bases.
    EXPECT_EQ(ref.at(0, "SEQ").asBlob().size(), 10'151u);
    // The last window is clipped at the chromosome end.
    EXPECT_EQ(ref.at(2, "SEQ").asBlob().size(), 5'000u);
    // IS_SNP mirrors SEQ length.
    EXPECT_EQ(ref.at(0, "IS_SNP").asBlob().size(), 10'151u);
}

TEST(GenomicSchema, RefPartitionStagesTheRowWithItsPid)
{
    auto w = test::makeSmallWorkload(4, 10, 25'000, 3);
    ASSERT_EQ(w.genome.numChromosomes(), 3u);
    Table ref = buildRefTable(w.genome, 10'000, 151);
    for (size_t r = 0; r < ref.numRows(); ++r) {
        int64_t pid = ref.at(r, "PID").asInt();
        Table want = ref.emptyLike("REF");
        std::vector<Value> row;
        for (size_t c = 0; c < ref.numColumns(); ++c)
            row.push_back(ref.at(r, c));
        want.appendRow(row);
        EXPECT_TRUE(buildRefPartition(w.genome, pid, 10'000, 151)
                        .contentEquals(want))
            << "pid " << pid;
    }
    // A PID with no window (chromosome 9 does not exist) stages no row.
    Partitioner p(10'000, 151);
    EXPECT_EQ(buildRefPartition(w.genome, p.pid(9, 0), 10'000, 151)
                  .numRows(),
              0u);
}

TEST(Partitioner, PidDistinctAcrossChromosomesAndWindows)
{
    Partitioner p(1'000'000);
    EXPECT_NE(p.pid(1, 0), p.pid(2, 0));
    EXPECT_NE(p.pid(1, 0), p.pid(1, 1'000'000));
    EXPECT_EQ(p.pid(1, 10), p.pid(1, 999'999));
}

TEST(Partitioner, NegativePositionsClampToWindowZero)
{
    Partitioner p(1000);
    EXPECT_EQ(p.windowIndex(-5), 0);
    EXPECT_EQ(p.pid(1, -5), p.pid(1, 0));
}

TEST(Partitioner, PartitionReadsCoversAllReadsOnce)
{
    auto w = test::makeSmallWorkload(5, 200, 40'000, 2);
    Partitioner p(10'000);
    auto parts = p.partitionReads(w.reads.reads);
    size_t total = 0;
    for (const auto &part : parts) {
        total += part.readIndices.size();
        for (size_t idx : part.readIndices) {
            const auto &read = w.reads.reads[idx];
            EXPECT_EQ(read.chr, part.chr);
            EXPECT_GE(read.pos, part.windowStart);
            EXPECT_LT(read.pos, part.windowEnd);
        }
        // Position-sorted within the partition.
        for (size_t i = 1; i < part.readIndices.size(); ++i) {
            EXPECT_LE(w.reads.reads[part.readIndices[i - 1]].pos,
                      w.reads.reads[part.readIndices[i]].pos);
        }
    }
    EXPECT_EQ(total, w.reads.reads.size());
}

TEST(Partitioner, PartitionsOrderedByChromosomeThenWindow)
{
    auto w = test::makeSmallWorkload(6, 200, 40'000, 2);
    Partitioner p(10'000);
    auto parts = p.partitionReads(w.reads.reads);
    for (size_t i = 1; i < parts.size(); ++i) {
        bool ordered = parts[i - 1].chr < parts[i].chr ||
            (parts[i - 1].chr == parts[i].chr &&
             parts[i - 1].windowStart < parts[i].windowStart);
        EXPECT_TRUE(ordered);
    }
}

TEST(Partitioner, ByGroupSplitsReadGroups)
{
    auto w = test::makeSmallWorkload(7, 300, 30'000, 1);
    Partitioner p(10'000);
    auto parts = p.partitionReadsByGroup(w.reads.reads);
    size_t total = 0;
    for (const auto &part : parts) {
        total += part.readIndices.size();
        for (size_t idx : part.readIndices)
            EXPECT_EQ(w.reads.reads[idx].readGroup, part.readGroup);
    }
    EXPECT_EQ(total, w.reads.reads.size());
    // More partitions than the position-only split (4 read groups).
    EXPECT_GT(parts.size(), p.partitionReads(w.reads.reads).size());
}

TEST(Partitioner, RejectsBadConfig)
{
    EXPECT_THROW(Partitioner(0), FatalError);
    EXPECT_THROW(Partitioner(100, -1), FatalError);
}

} // namespace
} // namespace genesis::table
