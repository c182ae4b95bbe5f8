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
#include "genome/cigar.h"
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

    /**
     * Aligned reads `rd` (K, POS, CIGAR, SEQ) and a reference `ref` (POS,
     * SEQ) whose positions are unsorted, repeated, sparse and NULL once,
     * for Figure-4-shaped loops; `rd0` is `rd` with no rows.
     */
    void
    addFigure4Tables()
    {
        Table rd("rd", Schema{{"K", DataType::Int64},
                              {"POS", DataType::UInt32},
                              {"CIGAR", DataType::Array16},
                              {"SEQ", DataType::Array8}});
        catalog_.put("rd0", rd);
        auto read = [&](int64_t k, int64_t pos, const char *cigar,
                        table::Blob seq) {
            table::Blob packed;
            for (uint16_t e : genome::Cigar::parse(cigar).packAll())
                packed.push_back(e);
            rd.appendRow({Value(k), Value(pos), Value(std::move(packed)),
                          Value(std::move(seq))});
        };
        read(4, 10, "4M", {0, 1, 2, 3});
        read(100, 12, "2M1I2M", {1, 1, 2, 0, 3}); // a NULL-POS base
        read(3, 30, "3M", {2, 2, 2});             // window past the end
        read(0, 11, "2M2D2M", {3, 0, 1, 2});      // NULL-BP bases
        catalog_.put("rd", std::move(rd));

        Table ref("ref", Schema{{"POS", DataType::Int64},
                                {"SEQ", DataType::Int64}});
        const std::optional<int64_t> cells[][2] = {
            {13, 1}, {10, 0}, {11, 1}, {12, 2}, {13, 3},
            {12, 1}, {40, 2}, {{}, 1}, {11, 0}, {14, 3},
        };
        for (const auto &row : cells) {
            ref.appendRow({row[0] ? Value(*row[0]) : Value(),
                           Value(*row[1])});
        }
        catalog_.put("ref", std::move(ref));
    }

    /** What a script leaves behind in one engine. */
    struct LoopRun {
        std::string error; ///< FatalError text; empty when none
        std::optional<Table> output; ///< the Output table, when made
        Value n;                     ///< @n afterwards
        uint64_t setLoops = 0;
    };

    LoopRun
    runLoop(bool vectorize, const std::string &sql)
    {
        engine::Catalog cat = catalog_;
        engine::ExecConfig cfg;
        cfg.vectorize = vectorize;
        engine::Executor executor(cat, cfg);
        LoopRun run;
        try {
            executor.run("DECLARE @n int; SET @n = 5; " + sql);
        } catch (const FatalError &e) {
            run.error = e.what();
        }
        if (const Table *o = cat.find("Output"))
            run.output = *o;
        run.n = executor.env().variable("n");
        run.setLoops = executor.setAtATimeLoops();
        return run;
    }

    /**
     * Run `sql` in both engines, expect the same error, Output (schema,
     * rows, order, NULLs) and @n, and return the vectorized run.
     */
    LoopRun
    sameInBothEngines(const std::string &sql)
    {
        LoopRun row = runLoop(false, sql);
        LoopRun vec = runLoop(true, sql);
        EXPECT_EQ(row.setLoops, 0u);
        EXPECT_EQ(row.error, vec.error) << sql;
        EXPECT_EQ(row.output.has_value(), vec.output.has_value()) << sql;
        if (row.output && vec.output) {
            EXPECT_TRUE(row.output->schema() == vec.output->schema());
            EXPECT_TRUE(row.output->contentEquals(*vec.output))
                << sql << "\n" << row.output->str() << vec.output->str();
        }
        EXPECT_TRUE(row.n == vec.n) << sql;
        return vec;
    }

    /**
     * A Figure-4 body over `loop_table`: `set` first, the explode, the
     * join with `window`, the INSERT of `aggs` into `target`, then `tail`.
     */
    static std::string
    figure4Loop(const std::string &loop_table, const std::string &set,
                const std::string &window, const std::string &aggs,
                const std::string &target = "Output",
                const std::string &tail = "")
    {
        return "FOR r IN " + loop_table + ":\n" + set +
            "  CREATE TABLE #a AS ReadExplode (r.POS, r.CIGAR, r.SEQ) "
            "FROM r;\n"
            "  CREATE TABLE #j AS SELECT #a.BP AS x, ref.SEQ AS y FROM #a "
            "INNER JOIN " + window + " ON #a.POS = ref.POS;\n"
            "  INSERT INTO " + target + " SELECT " + aggs + " FROM #j;\n" +
            tail + "END LOOP;";
    }

    static constexpr const char *kWindow =
        "(SELECT * FROM ref LIMIT (r.POS - 10), @n)";
    static constexpr const char *kAggs =
        "SUM(#j.x == #j.y), COUNT(*), MIN(#j.y), MAX(#j.x)";

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

TEST_F(EngineEdge, SetLoopOverZeroRowsChangesNothing)
{
    addFigure4Tables();
    LoopRun run = sameInBothEngines(
        figure4Loop("rd0", "  SET @n = r.K;\n", kWindow, kAggs));
    EXPECT_EQ(run.error, "");
    EXPECT_FALSE(run.output.has_value());
    EXPECT_EQ(run.n.asInt(), 5);
}

TEST_F(EngineEdge, SetLoopRowsWithEmptyAndClampedWindows)
{
    // Row 0 windows ref rows [0, 4); row 1's count runs past the end and
    // clamps to [2, 10); row 2's offset lies past the end; row 3 counts
    // zero rows. Repeated keys match in reference-row order, and a read's
    // NULL-POS insertion base matches nothing.
    addFigure4Tables();
    LoopRun run = sameInBothEngines(
        figure4Loop("rd", "  SET @n = r.K;\n", kWindow, kAggs));
    EXPECT_EQ(run.error, "");
    EXPECT_EQ(run.setLoops, 1u);
    ASSERT_TRUE(run.output.has_value());
    ASSERT_EQ(run.output->numRows(), 4u);
    // An empty join: SUM 0, COUNT 0, MIN and MAX NULL.
    for (size_t row : {size_t{2}, size_t{3}}) {
        EXPECT_EQ(run.output->at(row, 0).asInt(), 0);
        EXPECT_EQ(run.output->at(row, 1).asInt(), 0);
        EXPECT_TRUE(run.output->at(row, 2).isNull());
        EXPECT_TRUE(run.output->at(row, 3).isNull());
    }
    // Row 0: bases at 10..13 meet ref rows 1 (10), 2 (11), 0 and 3 (12,
    // 13 are rows 3 and 0 in the window): four matches.
    EXPECT_EQ(run.output->at(0, 1).asInt(), 4);
    EXPECT_EQ(run.n.asInt(), 0); // the last row's SET

    // A SET after the statements that read it: each row's window count
    // is the one the row before left.
    run = sameInBothEngines(figure4Loop("rd", "", kWindow, kAggs, "Output",
                                        "  SET @n = r.K;\n"));
    EXPECT_EQ(run.setLoops, 1u);
    // Row 3 windows [1, 4) with row 2's count: bases at 11 and 12 match.
    EXPECT_EQ(run.output->at(3, 1).asInt(), 2);
    // No join, and a SET that accumulates.
    run = sameInBothEngines(
        "FOR r IN rd:\n"
        "  CREATE TABLE #a AS ReadExplode (r.POS, r.CIGAR, r.SEQ) FROM r;\n"
        "  INSERT INTO Output SELECT COUNT(*), COUNT(#a.POS), SUM(#a.BP) "
        "FROM #a;\n"
        "  SET @n = @n + r.K;\n"
        "END LOOP;");
    EXPECT_EQ(run.setLoops, 1u);
    EXPECT_EQ(run.n.asInt(), 5 + 4 + 100 + 3 + 0);
}

TEST_F(EngineEdge, SetLoopJoinsWidelySpreadKeys)
{
    // Keys out of row order (the int64 extremes, 10^12, repeats out of
    // order, a NULL) go through the key index evalJoin() also uses;
    // windows still apply by row index.
    addFigure4Tables();
    Table wide("wide", Schema{{"POS", DataType::Int64},
                              {"SEQ", DataType::Int64}});
    const std::optional<int64_t> cells[][2] = {
        {INT64_MAX, 3}, {12, 2}, {10, 0}, {INT64_MIN, 1}, {12, 1},
        {{}, 2},        {11, 1}, {1'000'000'000'000, 0}, {13, 3}, {10, 2},
    };
    for (const auto &row : cells) {
        wide.appendRow({row[0] ? Value(*row[0]) : Value(),
                        Value(*row[1])});
    }
    catalog_.put("wide", std::move(wide));
    // Read 0 (bases at 10..13) windows rows [0, 4): keys 12 and 10 match.
    LoopRun run = sameInBothEngines(figure4Loop(
        "rd", "  SET @n = r.K;\n",
        "(SELECT * FROM wide LIMIT (r.POS - 10), @n) ref", kAggs));
    EXPECT_EQ(run.setLoops, 1u);
    ASSERT_TRUE(run.output.has_value());
    EXPECT_EQ(run.output->at(0, 1).asInt(), 2);
    // The whole table: 10 twice, 11, 12 twice and 13.
    run = sameInBothEngines(figure4Loop("rd", "", "wide ref", kAggs));
    EXPECT_EQ(run.setLoops, 1u);
    ASSERT_TRUE(run.output.has_value());
    EXPECT_EQ(run.output->at(0, 1).asInt(), 6);
}

TEST_F(EngineEdge, SetLoopWindowsKeysInRowOrder)
{
    // Keys equal to the row number plus a constant (the reference's
    // positions) find their row without an index, and windows still cut
    // by row index: POS 9..17, so a read at p with @n = 2 keeps the
    // bases at p and p + 1.
    addFigure4Tables();
    Table seq("seq", Schema{{"POS", DataType::Int64},
                            {"SEQ", DataType::Int64}});
    for (int64_t pos = 9; pos < 18; ++pos)
        seq.appendRow({Value(pos), Value(pos % 4)});
    catalog_.put("seq", std::move(seq));
    LoopRun run = sameInBothEngines(figure4Loop(
        "rd", "  SET @n = 2;\n",
        "(SELECT * FROM seq LIMIT (r.POS - 9), @n) ref", kAggs));
    EXPECT_EQ(run.setLoops, 1u);
    ASSERT_TRUE(run.output.has_value());
    ASSERT_EQ(run.output->numRows(), 4u);
    for (size_t row : {0, 1, 3})
        EXPECT_EQ(run.output->at(row, 1).asInt(), 2) << row;
    EXPECT_EQ(run.output->at(2, 1).asInt(), 0);

    // Keys that run in row order only modulo 2^64 match no base.
    Table wrap("wrap", Schema{{"POS", DataType::Int64},
                              {"SEQ", DataType::Int64}});
    for (int64_t pos : {INT64_MAX - 1, INT64_MAX, INT64_MIN, INT64_MIN + 1})
        wrap.appendRow({Value(pos), Value(int64_t{0})});
    catalog_.put("wrap", std::move(wrap));
    run = sameInBothEngines(figure4Loop("rd", "", "wrap ref", kAggs));
    EXPECT_EQ(run.setLoops, 1u);
    ASSERT_TRUE(run.output.has_value());
    EXPECT_EQ(run.output->at(0, 1).asInt(), 0);
}

TEST_F(EngineEdge, SetLoopStaysOnTheLoopWhenTheBodyReadsItsTarget)
{
    // INSERT INTO the windowed table: later rows' windows see the rows
    // earlier ones appended, so the loop keeps running row by row.
    addFigure4Tables();
    LoopRun run = sameInBothEngines(figure4Loop(
        "rd", "  SET @n = 40;\n", kWindow, "MIN(#j.y), COUNT(*)", "ref"));
    EXPECT_EQ(run.setLoops, 0u);
    // INSERT INTO the loop table stays on the loop too.
    run = sameInBothEngines(figure4Loop("rd", "  SET @n = r.K;\n", kWindow,
                                        kAggs, "rd"));
    EXPECT_EQ(run.setLoops, 0u);
    // So does one into a temp the body makes.
    run = sameInBothEngines(
        figure4Loop("rd", "  SET @n = r.K;\n", kWindow, kAggs, "j"));
    EXPECT_EQ(run.setLoops, 0u);
}

TEST_F(EngineEdge, SetLoopFailureAtRowKMatchesTheLoop)
{
    // Row 3's count is -2: the loop appends rows 0 to 2, leaves @n at -2
    // and raises the LIMIT error; the vectorized engine falls back to the
    // loop and leaves the same.
    addFigure4Tables();
    LoopRun run = sameInBothEngines(
        figure4Loop("rd", "  SET @n = r.K - 2;\n", kWindow, kAggs));
    EXPECT_EQ(run.error, "fatal: negative LIMIT offset/count");
    EXPECT_EQ(run.setLoops, 0u);
    ASSERT_TRUE(run.output.has_value());
    EXPECT_EQ(run.output->numRows(), 3u);
    EXPECT_EQ(run.n.asInt(), -2);

    // A SET that reads its own variable: the loop the vectorized engine
    // falls back to starts from the variables the set run started from.
    run = sameInBothEngines(
        figure4Loop("rd", "  SET @n = @n - 2;\n", kWindow, kAggs));
    EXPECT_EQ(run.error, "fatal: negative LIMIT offset/count");
    ASSERT_TRUE(run.output.has_value());
    EXPECT_EQ(run.output->numRows(), 2u);
    EXPECT_EQ(run.n.asInt(), -1);

    // A SUM that overflows part-way through a row's matches fails at the
    // row the loop fails at.
    run = sameInBothEngines(figure4Loop(
        "rd", "  SET @n = r.K;\n", kWindow,
        "COUNT(*), SUM(#j.y + 9223372036854775000)"));
    EXPECT_EQ(run.error, "fatal: integer overflow in '+'");
    EXPECT_EQ(run.setLoops, 0u);
    EXPECT_FALSE(run.output.has_value());

    // A temp column typed Int64 that is handed a string fails where the
    // loop stores the temp: at row 3, the first with a match.
    Table names("names", Schema{{"POS", DataType::Int64},
                                {"NAME", DataType::String}});
    names.appendRow({Value(16), Value("chr1")});
    catalog_.put("names", std::move(names));
    run = sameInBothEngines(
        "FOR r IN rd:\n"
        "  CREATE TABLE #a AS ReadExplode (r.POS, r.CIGAR, r.SEQ) FROM r;\n"
        "  CREATE TABLE #j AS SELECT #a.BP AS x, COALESCE(names.NAME, 1) "
        "AS y FROM #a LEFT JOIN names ON #a.POS = names.POS;\n"
        "  INSERT INTO Output SELECT COUNT(*), COUNT(#j.x) FROM #j;\n"
        "END LOOP;");
    EXPECT_NE(run.error, "");
    EXPECT_EQ(run.setLoops, 0u);
    ASSERT_TRUE(run.output.has_value());
    EXPECT_EQ(run.output->numRows(), 3u);
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
