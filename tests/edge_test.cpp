/**
 * @file
 * Edge-case coverage: scalar SQL builtins, arithmetic corner cases,
 * heterogeneous pipelines sharing one FPGA image (the Figure 8 claim
 * that "different hardware pipelines targeting different operations
 * work together"), and runtime configuration variants.
 */

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "base/logging.h"
#include "engine/executor.h"
#include "modules/filter.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/reducer.h"
#include "runtime/api.h"
#include "sim_test_utils.h"
#include "sql/parser.h"

namespace genesis {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

class EngineEdge : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Table t("t", Schema{{"A", DataType::Int64},
                            {"S", DataType::String},
                            {"ARR", DataType::Array8}});
        t.appendRow({Value(-4), Value("abc"), Value(table::Blob{7, 8})});
        t.appendRow({Value(0), Value(""), Value(table::Blob{})});
        catalog_.put("t", std::move(t));

        Table big("big", Schema{{"V", DataType::Int64}});
        big.appendRow({Value(std::numeric_limits<int64_t>::max())});
        big.appendRow({Value(1)});
        catalog_.put("big", std::move(big));

        Table five("five", Schema{{"A", DataType::Int64}});
        for (int64_t i = 0; i < 5; ++i)
            five.appendRow({Value(i)});
        catalog_.put("five", std::move(five));
    }

    Value
    scalar(const std::string &select)
    {
        engine::Executor executor(catalog_);
        auto result = executor.run(select);
        return result->at(0, 0);
    }

    /** Run `sql` with the vectorized executor on or off. */
    std::optional<Table>
    runWith(bool vectorize, const std::string &sql)
    {
        engine::ExecConfig cfg;
        cfg.vectorize = vectorize;
        engine::Executor executor(catalog_, cfg);
        return executor.run(sql);
    }

    /** The FatalError text `sql` raises, checked equal in both engines. */
    std::string
    fatalInBothEngines(const std::string &sql)
    {
        std::string text[2];
        for (bool vectorize : {false, true}) {
            try {
                runWith(vectorize, sql);
                ADD_FAILURE() << "no error (vectorize=" << vectorize
                              << "): " << sql;
            } catch (const FatalError &e) {
                text[vectorize] = e.what();
            }
        }
        EXPECT_EQ(text[0], text[1]) << sql;
        return text[1];
    }

    engine::Catalog catalog_;
};

TEST_F(EngineEdge, AbsLenCoalesceIsNullElem)
{
    EXPECT_EQ(scalar("SELECT ABS(A) FROM t LIMIT 1").asInt(), 4);
    EXPECT_EQ(scalar("SELECT LEN(S) FROM t LIMIT 1").asInt(), 3);
    EXPECT_EQ(scalar("SELECT LEN(ARR) FROM t LIMIT 1").asInt(), 2);
    EXPECT_EQ(scalar("SELECT COALESCE(A, 9) FROM t LIMIT 1").asInt(),
              -4);
    EXPECT_EQ(scalar("SELECT ISNULL(A) FROM t LIMIT 1").asInt(), 0);
    EXPECT_EQ(scalar("SELECT ELEM(ARR, 1) FROM t LIMIT 1").asInt(), 8);
    // Out-of-range element reads are NULL, not errors.
    EXPECT_TRUE(scalar("SELECT ELEM(ARR, 5) FROM t LIMIT 1").isNull());
}

TEST_F(EngineEdge, DivisionAndModuloByZeroFatal)
{
    engine::Executor executor(catalog_);
    EXPECT_THROW(executor.run("SELECT 1 / A FROM t LIMIT 1, 1"),
                 FatalError);
    EXPECT_THROW(executor.run("SELECT 1 % A FROM t LIMIT 1, 1"),
                 FatalError);
}

TEST_F(EngineEdge, LimitOverProjectStillEvaluatesEveryRow)
{
    // Limit(Project(Scan)): the window does not reach through the
    // Project, so row 1 (A = 0), outside the window, still divides.
    EXPECT_EQ(fatalInBothEngines("SELECT 1 / A FROM t LIMIT 0, 1"),
              "fatal: division by zero");
}

TEST_F(EngineEdge, LimitWindowClampsWithoutOverflow)
{
    // offset + count overflows int64; the window is rows 2..4, both over
    // a bare scan (windowed conversion) and over a Project.
    for (const char *sql :
         {"SELECT * FROM five LIMIT 2, 9223372036854775807",
          "SELECT A + 0 AS A FROM five LIMIT 2, 9223372036854775807"}) {
        for (bool vectorize : {false, true}) {
            auto r = runWith(vectorize, sql);
            ASSERT_TRUE(r.has_value()) << sql;
            ASSERT_EQ(r->numRows(), 3u) << sql;
            for (size_t i = 0; i < 3; ++i)
                EXPECT_EQ(r->at(i, 0).asInt(), static_cast<int64_t>(i + 2))
                    << sql << " vectorize=" << vectorize;
        }
    }
    // An unknown table is reported before a negative LIMIT.
    EXPECT_EQ(fatalInBothEngines("SELECT * FROM nosuch LIMIT 0 - 1"),
              "fatal: unknown table 'nosuch'");
}

TEST_F(EngineEdge, IntegerOverflowFatalInBothEngines)
{
    // Row 0 has A = -4, so each expression overflows on its first row.
    EXPECT_EQ(fatalInBothEngines(
                  "SELECT 9223372036854775807 + (A + 5) FROM t"),
              "fatal: integer overflow in '+'");
    EXPECT_EQ(fatalInBothEngines(
                  "SELECT (0 - 9223372036854775807) - (A + 6) FROM t"),
              "fatal: integer overflow in '-'");
    EXPECT_EQ(fatalInBothEngines(
                  "SELECT A * 4611686018427387904 FROM t"),
              "fatal: integer overflow in '*'");
    // INT64_MIN / -1 overflows (done raw, it traps with SIGFPE);
    // negating INT64_MIN (unary minus, ABS) overflows like 0 - INT64_MIN.
    const std::string min_row =
        " FROM t WHERE A == 0"; // A - 9223372036854775807 - 1 = INT64_MIN
    EXPECT_EQ(fatalInBothEngines(
                  "SELECT (A - 9223372036854775807 - 1) / (A - 1)" +
                  min_row),
              "fatal: integer overflow in '/'");
    EXPECT_EQ(fatalInBothEngines(
                  "SELECT -(A - 9223372036854775807 - 1)" + min_row),
              "fatal: integer overflow in '-'");
    EXPECT_EQ(fatalInBothEngines(
                  "SELECT ABS(A - 9223372036854775807 - 1)" + min_row),
              "fatal: integer overflow in '-'");
    EXPECT_EQ(fatalInBothEngines("SELECT SUM(V) FROM big"),
              "fatal: integer overflow in '+'");
    EXPECT_EQ(fatalInBothEngines("SELECT SUM(V + 0) FROM big"),
              "fatal: integer overflow in '+'");
}

TEST_F(EngineEdge, IntegerEdgesThatFitStayExact)
{
    for (bool vectorize : {false, true}) {
        // INT64_MIN % -1 is 0 (done raw, it traps with SIGFPE).
        auto mod = runWith(vectorize,
                           "SELECT (A - 9223372036854775807 - 1) % (A - 1)"
                           " FROM t WHERE A == 0");
        ASSERT_TRUE(mod.has_value());
        EXPECT_EQ(mod->at(0, 0).asInt(), 0);
        // Only SUM accumulates: COUNT, MIN and MAX of a column whose sum
        // overflows are exact.
        auto agg = runWith(vectorize,
                           "SELECT COUNT(V), MIN(V), MAX(V) FROM big");
        ASSERT_TRUE(agg.has_value());
        EXPECT_EQ(agg->at(0, 0).asInt(), 2);
        EXPECT_EQ(agg->at(0, 1).asInt(), 1);
        EXPECT_EQ(agg->at(0, 2).asInt(),
                  std::numeric_limits<int64_t>::max());
    }
}

TEST_F(EngineEdge, NullPropagationThroughArithmetic)
{
    // NULL + 1 is NULL; comparisons with NULL filter nothing in.
    engine::Executor executor(catalog_);
    auto r = executor.run(
        "SELECT COUNT(*) FROM t WHERE COALESCE(ELEM(ARR, 9), 0) + 1 "
        "== 1");
    EXPECT_EQ(r->at(0, 0).asInt(), 2);
    auto n = executor.run("SELECT COUNT(ELEM(ARR, 9)) FROM t");
    EXPECT_EQ(n->at(0, 0).asInt(), 0); // COUNT skips NULLs
}

TEST_F(EngineEdge, UnknownFunctionFatal)
{
    engine::Executor executor(catalog_);
    EXPECT_THROW(executor.run("SELECT FROB(A) FROM t"), FatalError);
}

TEST_F(EngineEdge, InsertWidthMismatchFatal)
{
    engine::Executor executor(catalog_);
    executor.run("CREATE TABLE out AS SELECT A FROM t");
    EXPECT_THROW(executor.run("INSERT INTO out SELECT A, S FROM t"),
                 FatalError);
}

TEST_F(EngineEdge, InsertIntoCatalogTableAppendsInPlace)
{
    engine::Executor executor(catalog_);
    executor.run("CREATE TABLE out AS SELECT A FROM five");
    ASSERT_EQ(catalog_.stats("out")->rowCount, 5);
    executor.run("INSERT INTO out SELECT A FROM five WHERE A > 2");
    // The cached stats were dropped with the append.
    EXPECT_EQ(catalog_.stats("out")->rowCount, 7);
    const Table *out = catalog_.find("out");
    ASSERT_EQ(out->numRows(), 7u);
    EXPECT_EQ(out->at(6, 0).asInt(), 4);

    // A row that does not fit raises before the table grows.
    executor.run("CREATE TABLE strs AS SELECT S FROM t");
    EXPECT_THROW(executor.run("INSERT INTO strs SELECT A FROM five"),
                 FatalError);
    const Table *strs = catalog_.find("strs");
    ASSERT_EQ(strs->numRows(), 2u);
    EXPECT_EQ(strs->column(0).size(), 2u);
    EXPECT_EQ(catalog_.stats("strs")->rowCount, 2);
}

TEST_F(EngineEdge, FailedLoopLeavesNoLoopState)
{
    // A failing body must not leave its iteration behind: the loop row
    // was bound to the loop's own snapshot, which is gone, and the
    // body's temp table belongs to the iteration.
    for (bool vectorize : {false, true}) {
        engine::ExecConfig cfg;
        cfg.vectorize = vectorize;
        engine::Executor executor(catalog_, cfg);
        EXPECT_THROW(executor.run(R"(
            FOR Row IN five:
                CREATE TABLE #tmp AS SELECT A FROM five;
                INSERT INTO o SELECT * FROM nosuch;
            END LOOP
        )"),
                     FatalError);
        // A temp table's name is reported without its '#'.
        for (const std::string name : {"Row", "#tmp"}) {
            try {
                executor.run("SELECT * FROM " + name);
                ADD_FAILURE() << name << " outlived the failed loop";
            } catch (const FatalError &e) {
                EXPECT_EQ(std::string(e.what()),
                          "fatal: unknown table '" +
                              name.substr(name[0] == '#') + "'");
            }
        }
        // The same executor runs the next loop from a clean state.
        executor.run(R"(
            FOR Row IN five:
                INSERT INTO o SELECT Row.A AS A FROM five LIMIT 1;
            END LOOP
        )");
        ASSERT_NE(catalog_.find("o"), nullptr);
        EXPECT_EQ(catalog_.find("o")->numRows(), 5u);
        catalog_.erase("o");
    }
}

TEST_F(EngineEdge, NestedLoopRestoresTheOuterRowBinding)
{
    // An inner loop over the same variable name hides the outer row only
    // while it runs: the statement after it sees the outer row again.
    Table two("two", Schema{{"POS", DataType::Int64}});
    two.appendRow({Value(10)});
    two.appendRow({Value(20)});
    catalog_.put("two", std::move(two));
    for (bool vectorize : {false, true}) {
        SCOPED_TRACE(vectorize ? "vectorized" : "row engine");
        runWith(vectorize, R"(
            FOR Row IN two:
                FOR Row IN two:
                    INSERT INTO o SELECT Row.POS AS P FROM two LIMIT 1;
                END LOOP;
                INSERT INTO o SELECT Row.POS AS P FROM two LIMIT 1;
            END LOOP;
        )");
        const Table *o = catalog_.find("o");
        ASSERT_NE(o, nullptr);
        std::vector<int64_t> got;
        for (size_t r = 0; r < o->numRows(); ++r)
            got.push_back(o->at(r, 0).asInt());
        // Rows 3 and 6 come from the outer body: the outer row's POS.
        EXPECT_EQ(got, (std::vector<int64_t>{10, 20, 10, 10, 20, 20}));
        catalog_.erase("o");
    }
}

TEST_F(EngineEdge, IntExpressionAggregatesMatchTheRowEngine)
{
    // K groups rows (one NULL key); X and Y hold NULLs, so the argument
    // expressions see NULL operands.
    Table n("n", Schema{{"K", DataType::Int64},
                        {"X", DataType::Int64},
                        {"Y", DataType::Int64}});
    const std::optional<int64_t> cells[][3] = {
        {1, 5, 5},  {2, 3, 4},  {1, {}, 2}, {{}, 7, 7},
        {2, 6, {}}, {1, -2, -2}, {2, 9, 9}, {1, 4, 1},
    };
    for (const auto &row : cells) {
        std::vector<Value> vals;
        for (const auto &c : row) {
            if (c)
                vals.emplace_back(*c);
            else
                vals.emplace_back();
        }
        n.appendRow(vals);
    }
    catalog_.put("n", std::move(n));

    auto both = [&](const std::string &sql) {
        auto row = runWith(false, sql);
        auto vec = runWith(true, sql);
        EXPECT_TRUE(row && vec) << sql;
        if (row && vec) {
            EXPECT_TRUE(row->contentEquals(*vec))
                << sql << "\n" << row->str() << vec->str();
        }
        return vec;
    };
    const std::string aggs =
        "SUM(X == Y), COUNT(X == Y), MIN(X - Y), MAX(X + Y), COUNT(*)";
    auto global = both("SELECT " + aggs + " FROM n");
    ASSERT_TRUE(global);
    EXPECT_EQ(global->at(0, 0).asInt(), 4); // 5=5, 7=7, -2=-2, 9=9
    EXPECT_EQ(global->at(0, 1).asInt(), 6); // NULL operands skipped
    EXPECT_EQ(global->at(0, 2).asInt(), -1);
    EXPECT_EQ(global->at(0, 3).asInt(), 18);
    EXPECT_EQ(global->at(0, 4).asInt(), 8);
    auto grouped = both("SELECT K, " + aggs + " FROM n GROUP BY K");
    ASSERT_TRUE(grouped);
    EXPECT_EQ(grouped->numRows(), 3u);
    // Zero input rows: one global row (SUM 0, MIN/MAX NULL), no groups.
    auto none = both("SELECT " + aggs + " FROM n WHERE X > 100");
    ASSERT_TRUE(none);
    EXPECT_EQ(none->at(0, 0).asInt(), 0);
    EXPECT_TRUE(none->at(0, 2).isNull());
    auto no_groups =
        both("SELECT K, " + aggs + " FROM n WHERE X > 100 GROUP BY K");
    ASSERT_TRUE(no_groups);
    EXPECT_EQ(no_groups->numRows(), 0u);

    // A SUM that overflows part-way fails although the last row brings
    // it back into range, and the first error in the row engine's
    // order wins: here the first SUM's '+' before the second SUM's '*'.
    Table pw("pw", Schema{{"V", DataType::Int64}});
    for (int64_t v : {std::numeric_limits<int64_t>::max(), int64_t{1},
                      int64_t{-5}})
        pw.appendRow({Value(v)});
    catalog_.put("pw", std::move(pw));
    EXPECT_EQ(fatalInBothEngines("SELECT SUM(V + 0) FROM pw"),
              "fatal: integer overflow in '+'");
    EXPECT_EQ(fatalInBothEngines("SELECT SUM(V == V) + SUM(V) FROM pw"),
              "fatal: integer overflow in '+'");
    EXPECT_EQ(fatalInBothEngines("SELECT SUM(V - 0), SUM(V * 2) FROM pw"),
              "fatal: integer overflow in '+'");
    EXPECT_EQ(fatalInBothEngines("SELECT SUM(V * 2), SUM(V - 0) FROM pw"),
              "fatal: integer overflow in '*'");
}

TEST_F(EngineEdge, NegativeLimitFatal)
{
    engine::Executor executor(catalog_);
    EXPECT_THROW(executor.run("SELECT A FROM t LIMIT 0 - 1"),
                 FatalError);
}

// --- Heterogeneous pipelines in one image ---------------------------------

TEST(Heterogeneous, DifferentPipelinesShareOneImage)
{
    // Pipeline 0: per-row sum of an array column.
    // Pipeline 1: drop-filter keeping values above a threshold.
    // Both run concurrently in one simulator, sharing the memory system
    // through their local arbiters (Figure 8's mixed configuration).
    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    auto &simulator = session.sim();

    modules::ColumnBuffer *qual = session.configureMem(
        "QUAL", {10, 20, 30, 40, 50, 60}, {3, 3}, 1);
    modules::ColumnBuffer *vals = session.configureMem(
        "VALS", {5, 25, 15, 35}, {1, 1, 1, 1}, 4);
    modules::ColumnBuffer *sums = session.configureOutput("SUMS", 4);
    modules::ColumnBuffer *big = session.configureOutput("BIG", 4);

    {
        auto *q = simulator.makeQueue("p0.in");
        auto *s = simulator.makeQueue("p0.sum");
        modules::MemoryReaderConfig rd;
        rd.emitBoundaries = true;
        simulator.make<modules::MemoryReader>(
            "p0.rd", qual, simulator.memory().makePort(0), q, rd);
        modules::ReducerConfig red;
        red.op = modules::ReduceOp::Sum;
        red.granularity = modules::ReduceGranularity::PerItem;
        simulator.make<modules::Reducer>("p0.red", q, s, red);
        simulator.make<modules::MemoryWriter>(
            "p0.wr", sums, simulator.memory().makePort(0), s,
            modules::MemoryWriterConfig{});
    }
    {
        auto *q = simulator.makeQueue("p1.in");
        auto *f = simulator.makeQueue("p1.filtered");
        simulator.make<modules::MemoryReader>(
            "p1.rd", vals, simulator.memory().makePort(1), q,
            modules::MemoryReaderConfig{});
        modules::FilterConfig flt;
        flt.lhs = modules::FilterOperand::field(0);
        flt.op = modules::CompareOp::Gt;
        flt.rhs = modules::FilterOperand::constant_(20);
        simulator.make<modules::Filter>("p1.flt", q, f, flt);
        simulator.make<modules::MemoryWriter>(
            "p1.wr", big, simulator.memory().makePort(1), f,
            modules::MemoryWriterConfig{});
    }

    session.start();
    session.wait();
    const auto *sums_out = session.flush("SUMS");
    const auto *big_out = session.flush("BIG");
    EXPECT_EQ(sums_out->elements, (std::vector<int64_t>{60, 150}));
    EXPECT_EQ(big_out->elements, (std::vector<int64_t>{25, 35}));
}

// --- Runtime configuration variants -----------------------------------------

TEST(RuntimeConfig, FasterDmaShrinksCommunicationTime)
{
    auto run_with = [](const runtime::DmaConfig &dma) {
        runtime::RuntimeConfig cfg;
        cfg.dma = dma;
        runtime::AcceleratorSession session(cfg);
        session.configureMem("X", std::vector<int64_t>(100'000, 1),
                             std::vector<uint32_t>(100'000, 1), 4);
        return session.timing().dmaSeconds;
    };
    EXPECT_LT(run_with(runtime::DmaConfig::pcie4()),
              run_with(runtime::DmaConfig::pcie3()));
}

TEST(RuntimeConfig, SlowerClockStretchesAcceleratorTime)
{
    runtime::RuntimeConfig fast;
    fast.clockHz = 250e6;
    runtime::RuntimeConfig slow;
    slow.clockHz = 125e6;
    runtime::AcceleratorSession a(fast), b(slow);
    EXPECT_DOUBLE_EQ(b.secondsForCycles(1000),
                     2.0 * a.secondsForCycles(1000));
}

TEST(RuntimeConfig, InvalidClockFatal)
{
    runtime::RuntimeConfig cfg;
    cfg.clockHz = 0;
    EXPECT_THROW(runtime::AcceleratorSession{cfg}, FatalError);
}

} // namespace
} // namespace genesis
