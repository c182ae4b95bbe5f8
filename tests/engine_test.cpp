/**
 * @file
 * Tests for the software query engine: every relational operator, the
 * genomics explodes, variables, loops, custom ops, and the end-to-end
 * Figure-4 query against direct software ground truth.
 */

#include <gtest/gtest.h>

#include <limits>

#include "base/logging.h"
#include "core/example_accel.h"
#include "engine/batch.h"
#include "engine/executor.h"
#include "sim_test_utils.h"
#include "sql/parser.h"
#include "table/genomic_schema.h"
#include "table/partition.h"

namespace genesis::engine {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

/** Small fixture with a toy table catalog. */
class EngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Table t("t", Schema{{"A", DataType::Int64},
                            {"B", DataType::Int64},
                            {"NAME", DataType::String}});
        t.appendRow({Value(1), Value(10), Value("x")});
        t.appendRow({Value(2), Value(20), Value("y")});
        t.appendRow({Value(3), Value(30), Value("x")});
        t.appendRow({Value(4), Value(40), Value("z")});
        catalog_.put("t", std::move(t));

        Table u("u", Schema{{"A", DataType::Int64},
                            {"C", DataType::Int64}});
        u.appendRow({Value(2), Value(200)});
        u.appendRow({Value(3), Value(300)});
        u.appendRow({Value(9), Value(900)});
        catalog_.put("u", std::move(u));
    }

    Table
    run(const std::string &sql)
    {
        Executor executor(catalog_);
        auto result = executor.run(sql);
        EXPECT_TRUE(result.has_value());
        return std::move(*result);
    }

    Catalog catalog_;
};

TEST_F(EngineTest, SelectProjection)
{
    Table r = run("SELECT B, A + 1 AS A1 FROM t");
    ASSERT_EQ(r.numRows(), 4u);
    EXPECT_EQ(r.at(0, "B").asInt(), 10);
    EXPECT_EQ(r.at(0, "A1").asInt(), 2);
}

TEST_F(EngineTest, SelectStar)
{
    Table r = run("SELECT * FROM t");
    EXPECT_EQ(r.numRows(), 4u);
    EXPECT_EQ(r.numColumns(), 3u);
}

TEST_F(EngineTest, WhereFilters)
{
    Table r = run("SELECT A FROM t WHERE A > 1 AND B < 40");
    ASSERT_EQ(r.numRows(), 2u);
    EXPECT_EQ(r.at(0, "A").asInt(), 2);
    EXPECT_EQ(r.at(1, "A").asInt(), 3);
}

TEST_F(EngineTest, WhereOnStrings)
{
    Table r = run("SELECT A FROM t WHERE NAME == 'x'");
    EXPECT_EQ(r.numRows(), 2u);
}

TEST_F(EngineTest, InnerJoin)
{
    Table r = run("SELECT t.B, u.C FROM t INNER JOIN u ON t.A = u.A");
    ASSERT_EQ(r.numRows(), 2u);
    EXPECT_EQ(r.at(0, "B").asInt(), 20);
    EXPECT_EQ(r.at(0, "C").asInt(), 200);
}

TEST_F(EngineTest, LeftJoinKeepsUnmatched)
{
    Table r = run("SELECT t.A, u.C FROM t LEFT JOIN u ON t.A = u.A");
    ASSERT_EQ(r.numRows(), 4u);
    EXPECT_TRUE(r.at(0, "C").isNull());  // A=1 unmatched
    EXPECT_EQ(r.at(1, "C").asInt(), 200);
}

TEST_F(EngineTest, OuterJoinKeepsBothSides)
{
    Table r = run("SELECT * FROM t OUTER JOIN u ON t.A = u.A");
    EXPECT_EQ(r.numRows(), 5u); // 4 left rows + unmatched u.A=9
}

TEST_F(EngineTest, JoinDuplicateColumnsQualified)
{
    Table r = run("SELECT t.A, u.A FROM t INNER JOIN u ON t.A = u.A");
    EXPECT_EQ(r.numColumns(), 2u);
    EXPECT_EQ(r.at(0, 0).asInt(), r.at(0, 1).asInt());
}

TEST_F(EngineTest, GroupByWithAggregates)
{
    Table r = run(
        "SELECT NAME, COUNT(*) AS n, SUM(B) AS s FROM t GROUP BY NAME");
    ASSERT_EQ(r.numRows(), 3u);
    // Groups come back in key order: x, y, z.
    EXPECT_EQ(r.at(0, "n").asInt(), 2);
    EXPECT_EQ(r.at(0, "s").asInt(), 40);
    EXPECT_EQ(r.at(1, "n").asInt(), 1);
}

TEST_F(EngineTest, GlobalAggregates)
{
    Table r = run("SELECT COUNT(*), SUM(A), MIN(B), MAX(B) FROM t");
    ASSERT_EQ(r.numRows(), 1u);
    EXPECT_EQ(r.at(0, 0).asInt(), 4);
    EXPECT_EQ(r.at(0, 1).asInt(), 10);
    EXPECT_EQ(r.at(0, 2).asInt(), 10);
    EXPECT_EQ(r.at(0, 3).asInt(), 40);
}

TEST_F(EngineTest, AggregateOfComparison)
{
    Table r = run("SELECT SUM(NAME == 'x') FROM t");
    EXPECT_EQ(r.at(0, 0).asInt(), 2);
}

TEST_F(EngineTest, MixedAggregateExpression)
{
    Table r = run("SELECT SUM(B) / COUNT(*) FROM t");
    EXPECT_EQ(r.at(0, 0).asInt(), 25);
}

TEST_F(EngineTest, AggregateOverEmptyInput)
{
    Table r = run("SELECT COUNT(*), SUM(A) FROM t WHERE A > 100");
    ASSERT_EQ(r.numRows(), 1u);
    EXPECT_EQ(r.at(0, 0).asInt(), 0);
    EXPECT_EQ(r.at(0, 1).asInt(), 0);
}

TEST_F(EngineTest, LimitOffsetCount)
{
    Table r = run("SELECT A FROM t LIMIT 1, 2");
    ASSERT_EQ(r.numRows(), 2u);
    EXPECT_EQ(r.at(0, "A").asInt(), 2);
    EXPECT_EQ(r.at(1, "A").asInt(), 3);
}

TEST_F(EngineTest, LimitCountOnly)
{
    Table r = run("SELECT A FROM t LIMIT 3");
    EXPECT_EQ(r.numRows(), 3u);
}

TEST_F(EngineTest, CreateTableAndReuse)
{
    run("CREATE TABLE big AS SELECT A, B FROM t WHERE B >= 20;"
        "SELECT COUNT(*) FROM big");
    Executor executor(catalog_);
    auto r = executor.run(
        "CREATE TABLE big AS SELECT A FROM t WHERE B >= 20;"
        "SELECT COUNT(*) FROM big");
    EXPECT_EQ(r->at(0, 0).asInt(), 3);
}

TEST_F(EngineTest, InsertIntoAppends)
{
    Executor executor(catalog_);
    executor.run("INSERT INTO out SELECT A FROM t WHERE A == 1;"
                 "INSERT INTO out SELECT A FROM t WHERE A == 2");
    const Table *out = catalog_.find("out");
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->numRows(), 2u);
}

TEST_F(EngineTest, VariablesInExpressions)
{
    Table r = run("DECLARE @x int; SET @x = 2 + 1;"
                  "SELECT A FROM t WHERE A == @x");
    ASSERT_EQ(r.numRows(), 1u);
    EXPECT_EQ(r.at(0, "A").asInt(), 3);
}

TEST_F(EngineTest, UndeclaredVariableFatal)
{
    Executor executor(catalog_);
    EXPECT_THROW(executor.run("SET @nope = 1"), FatalError);
    EXPECT_THROW(executor.run("SELECT A FROM t WHERE A == @nope"),
                 FatalError);
}

TEST_F(EngineTest, ForLoopIteratesRows)
{
    Executor executor(catalog_);
    executor.run(R"(
        FOR Row IN t:
            INSERT INTO doubled SELECT Row.A * 2 FROM t LIMIT 1;
        END LOOP
    )");
    const Table *out = catalog_.find("doubled");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(out->numRows(), 4u);
    EXPECT_EQ(out->at(3, 0).asInt(), 8);
}

TEST_F(EngineTest, TempTablesScopedPerIteration)
{
    Executor executor(catalog_);
    executor.run(R"(
        FOR Row IN t:
            CREATE TABLE #tmp AS SELECT Row.A AS V FROM t LIMIT 1;
            INSERT INTO collected SELECT V FROM #tmp;
        END LOOP
    )");
    const Table *out = catalog_.find("collected");
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->numRows(), 4u);
    // The temp table itself never leaks into the catalog.
    EXPECT_EQ(catalog_.find("tmp"), nullptr);
}

TEST_F(EngineTest, EmptyLoopNeverPlansItsBody)
{
    // Body plans are prepared at a statement's first run, so a loop over
    // no rows fails on none of them: not on an unknown table, and not on
    // a SELECT that cannot be planned.
    for (bool vectorize : {false, true}) {
        ExecConfig cfg;
        cfg.vectorize = vectorize;
        Executor executor(catalog_, cfg);
        executor.run("CREATE TABLE none AS SELECT * FROM t WHERE A > 9");
        EXPECT_NO_THROW(executor.run(R"(
            FOR Row IN none:
                INSERT INTO out SELECT * FROM nosuch;
                INSERT INTO out SELECT 1;
            END LOOP
        )"));
        EXPECT_EQ(catalog_.find("out"), nullptr);
    }
}

TEST_F(EngineTest, LoopVariableAsScanSource)
{
    Executor executor(catalog_);
    executor.run(R"(
        FOR Row IN t:
            INSERT INTO echoed SELECT A, B FROM Row;
        END LOOP
    )");
    const Table *out = catalog_.find("echoed");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(out->numRows(), 4u);
    EXPECT_EQ(out->at(2, 0).asInt(), 3);
}

TEST_F(EngineTest, ExecCustomOp)
{
    Executor executor(catalog_);
    executor.registerCustomOp(
        "RowDoubler",
        [](const std::vector<const Table *> &inputs) {
            Table out("out", Schema{{"D", DataType::Int64}});
            for (size_t r = 0; r < inputs[0]->numRows(); ++r)
                out.appendRow({Value(inputs[0]->at(r, 0).asInt() * 2)});
            return out;
        });
    executor.run("EXEC RowDoubler Input1 = t INTO doubled");
    const Table *out = catalog_.find("doubled");
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->at(0, "D").asInt(), 2);
}

TEST_F(EngineTest, ExecUnknownModuleFatal)
{
    Executor executor(catalog_);
    EXPECT_THROW(executor.run("EXEC Nope A = t"), FatalError);
}

TEST_F(EngineTest, UnknownTableFatal)
{
    Executor executor(catalog_);
    EXPECT_THROW(executor.run("SELECT * FROM missing"), FatalError);
}

TEST_F(EngineTest, PartitionLookupViaPidColumn)
{
    Table ref("REF", Schema{{"X", DataType::Int64},
                            {"PID", DataType::Int64}});
    ref.appendRow({Value(1), Value(100)});
    ref.appendRow({Value(2), Value(100)});
    ref.appendRow({Value(3), Value(200)});
    catalog_.put("REF", std::move(ref));
    Table r = run("SELECT X FROM REF PARTITION (100)");
    EXPECT_EQ(r.numRows(), 2u);
}

TEST_F(EngineTest, PartitionLookupViaRegistry)
{
    Table part("p", Schema{{"X", DataType::Int64}});
    part.appendRow({Value(42)});
    catalog_.putPartition("READS", 7, std::move(part));
    Table r = run("SELECT X FROM READS PARTITION (3 + 4)");
    ASSERT_EQ(r.numRows(), 1u);
    EXPECT_EQ(r.at(0, "X").asInt(), 42);
}

TEST_F(EngineTest, PosExplode)
{
    Table arr("arr", Schema{{"SEQ", DataType::Array8},
                            {"START", DataType::Int64}});
    arr.appendRow({Value(table::Blob{5, 6, 7}), Value(100)});
    arr.appendRow({Value(table::Blob{9}), Value(200)});
    catalog_.put("arr", std::move(arr));
    Table r = run("PosExplode (arr.SEQ, arr.START) FROM arr");
    ASSERT_EQ(r.numRows(), 4u);
    EXPECT_EQ(r.at(0, "POS").asInt(), 100);
    EXPECT_EQ(r.at(0, "SEQ").asInt(), 5);
    EXPECT_EQ(r.at(2, "POS").asInt(), 102);
    EXPECT_EQ(r.at(3, "POS").asInt(), 200);
}

TEST_F(EngineTest, ReadExplodeMatchesFigure3)
{
    // Figure 3's read as a table row.
    genome::AlignedRead read;
    read.chr = 1;
    read.pos = 104;
    read.cigar = genome::Cigar::parse("2S3M1I1M1D2M");
    read.seq = genome::stringToSequence("AGGTAAACA");
    for (char c : std::string("##9>>AAB?"))
        read.qual.push_back(static_cast<uint8_t>(c - 33));
    Table reads = table::buildReadsTable({read});
    catalog_.put("R", std::move(reads));

    Table r = run("ReadExplode (R.POS, R.CIGAR, R.SEQ, R.QUAL) FROM R");
    ASSERT_EQ(r.numRows(), 8u);
    EXPECT_EQ(r.at(0, "POS").asInt(), 104);
    EXPECT_TRUE(r.at(3, "POS").isNull());  // inserted base
    EXPECT_TRUE(r.at(5, "BP").isNull());   // deleted base
    EXPECT_TRUE(r.at(5, "QUAL").isNull());
    EXPECT_EQ(r.at(7, "POS").asInt(), 110);
}

TEST(Batch, WindowedFromTableMatchesFullConversionPlusGather)
{
    // An int column with a NULL and a boxed column.
    Table t("w", Schema{{"A", DataType::Int64}, {"S", DataType::String}});
    const size_t n = 6;
    for (size_t i = 0; i < n; ++i) {
        t.appendRow({i == 2 ? Value() : Value(static_cast<int64_t>(i)),
                     Value(std::string(i, 's'))});
    }
    const Batch full = Batch::fromTable(t);
    const size_t kMax = std::numeric_limits<int64_t>::max();
    for (size_t first : {size_t{0}, n - 1, n, n + 5}) {
        for (size_t count : {size_t{0}, size_t{1}, n, kMax}) {
            std::vector<size_t> idx;
            for (size_t r = first; r < n && r - first < count; ++r)
                idx.push_back(r);
            Batch want = Batch::emptyLike(full);
            for (size_t c = 0; c < full.columns.size(); ++c)
                want.columns[c].gather(full.columns[c], idx);
            want.rows = idx.size();

            const Batch got = Batch::fromTable(t, first, count);
            SCOPED_TRACE("first " + std::to_string(first) + " count " +
                         std::to_string(count));
            EXPECT_EQ(got.schema, want.schema);
            ASSERT_EQ(got.rows, want.rows);
            ASSERT_EQ(got.columns.size(), want.columns.size());
            for (size_t c = 0; c < got.columns.size(); ++c) {
                EXPECT_EQ(got.columns[c].intMode, want.columns[c].intMode);
                ASSERT_EQ(got.columns[c].size(), want.rows);
                for (size_t r = 0; r < got.rows; ++r) {
                    EXPECT_TRUE(got.columns[c].valueAt(r) ==
                                want.columns[c].valueAt(r));
                }
            }
        }
    }
}

TEST(Batch, TableRoundTripKeepsTypesNullsAndWindows)
{
    // Integer columns with no, some and only NULL cells, and boxed
    // string and array columns.
    Table t("rt", Schema{{"U8", DataType::UInt8},
                         {"U32", DataType::UInt32},
                         {"I64", DataType::Int64},
                         {"B", DataType::Bool},
                         {"S", DataType::String},
                         {"SEQ", DataType::Array8},
                         {"CIG", DataType::Array16}});
    const size_t n = 5;
    for (size_t i = 0; i < n; ++i) {
        const auto v = static_cast<int64_t>(i);
        t.appendRow({Value(v + 1), i % 2 ? Value() : Value(v * 1000),
                     Value(), Value(i % 2 == 0),
                     i == 3 ? Value() : Value(std::string(i, 's')),
                     Value(table::Blob(i, v)),
                     Value(table::Blob{v, 2 * v})});
    }
    auto rows_of = [&](size_t first, size_t end) {
        Table want("rt", t.schema());
        for (size_t r = first; r < end; ++r) {
            std::vector<Value> row;
            for (size_t c = 0; c < t.numColumns(); ++c)
                row.push_back(t.at(r, c));
            want.appendRow(row);
        }
        return want;
    };
    auto expect_same = [](const Table &got, const Table &want) {
        EXPECT_EQ(got.schema(), want.schema());
        EXPECT_TRUE(got.contentEquals(want)) << got.str() << want.str();
        for (size_t c = 0; c < want.numColumns(); ++c) {
            EXPECT_EQ(got.column(c).nulls(), want.column(c).nulls())
                << want.schema().field(c).name;
        }
    };

    const Batch full = Batch::fromTable(t);
    expect_same(full.toTable("rt"), t);           // copies the chunks
    expect_same(Batch(full).toTable("rt"), t);    // moves them
    EXPECT_TRUE(t.column("U8").nulls().empty());
    EXPECT_EQ(t.column("I64").nulls(), std::vector<bool>(n, true));
    for (size_t first : {size_t{0}, size_t{1}, size_t{2}, n}) {
        for (size_t count : {size_t{0}, size_t{1}, size_t{2}, n}) {
            SCOPED_TRACE("first " + std::to_string(first) + " count " +
                         std::to_string(count));
            const size_t end = std::min(n, first + count);
            // A window without a NULL keeps no null mask.
            expect_same(Batch::fromTable(t, first, count).toTable("rt"),
                        rows_of(first, end));
        }
    }
}

TEST(Batch, ToTableAppendsCellsThatDoNotFitTheirField)
{
    // An int chunk under a string field goes cell by cell, so the cell
    // that does not fit raises Column::append()'s error.
    Batch b;
    b.schema.addField("S", DataType::String);
    b.columns.push_back(ColumnChunk::makeInt());
    b.columns[0].pushNull();
    b.columns[0].pushInt(7);
    b.rows = 2;
    EXPECT_THROW(b.toTable("bad"), FatalError);
    b.columns[0].ints.pop_back();
    b.columns[0].nulls.pop_back();
    b.rows = 1;
    const Table one = b.toTable("ok");
    ASSERT_EQ(one.numRows(), 1u);
    EXPECT_TRUE(one.at(0, 0).isNull());
}

// --- End-to-end: the Figure-4 query vs software ground truth -------------

class MatchCountQuery : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MatchCountQuery, EngineMatchesDirectComputation)
{
    auto w = test::makeSmallWorkload(GetParam(), 60, 30'000, 1);
    constexpr int64_t kPsize = 10'000;
    table::Partitioner partitioner(kPsize);
    auto partitions = partitioner.partitionReads(w.reads.reads);
    ASSERT_FALSE(partitions.empty());

    for (const auto &part : partitions) {
        auto sql_counts = core::matchCountsSqlEngine(
            w.reads.reads, part, w.genome, kPsize, 512);
        auto sw_counts = core::matchCountsSoftware(
            w.reads.reads, part.readIndices, w.genome);
        ASSERT_EQ(sql_counts.size(), sw_counts.size());
        for (size_t i = 0; i < sql_counts.size(); ++i) {
            EXPECT_EQ(sql_counts[i], sw_counts[i])
                << "read " << i << " in partition " << part.pid;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchCountQuery,
                         ::testing::Values(1u, 8u, 21u));

} // namespace
} // namespace genesis::engine
