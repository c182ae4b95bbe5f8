/**
 * @file
 * Unit tests for table statistics, the plan cost model, and the
 * cost-driven decisions they feed: cardinality estimates are monotone
 * in predicate selectivity, hash joins build on the smaller side,
 * statistics survive CREATE TABLE AS, and the pipeline mapper orders a
 * two-predicate filter chain cheapest-first ahead of the SPM stage.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/accel_common.h"
#include "engine/executor.h"
#include "pipeline/mapper.h"
#include "sim_test_utils.h"
#include "sql/cost_model.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "table/stats.h"
#include "table/table.h"

namespace genesis::sql {
namespace {

using table::ColumnStats;
using table::DataType;
using table::Schema;
using table::Table;
using table::TableStats;
using table::Value;

/** Stats provider over an in-memory map fixture. */
class StatsFixture
{
  public:
    TableStats &
    add(const std::string &name, int64_t rows)
    {
        TableStats &ts = stats_[name];
        ts.rowCount = static_cast<size_t>(rows);
        return ts;
    }

    static void
    intColumn(TableStats &ts, const std::string &name, int64_t min,
              int64_t max, size_t distinct)
    {
        ColumnStats cs;
        cs.rowCount = ts.rowCount;
        cs.hasRange = true;
        cs.minValue = min;
        cs.maxValue = max;
        cs.hasDistinct = true;
        cs.distinct = distinct;
        ts.columns[name] = cs;
    }

    StatsProvider
    provider() const
    {
        return [this](const std::string &name) -> const TableStats * {
            auto it = stats_.find(name);
            return it == stats_.end() ? nullptr : &it->second;
        };
    }

  private:
    std::map<std::string, TableStats> stats_;
};

PlanPtr
planQuery(const std::string &text)
{
    Script s = parseScript(text);
    return planSelect(*s.statements[0]->select);
}

TEST(CostModel, SelectivityMonotoneInPredicateRange)
{
    StatsFixture fx;
    StatsFixture::intColumn(fx.add("T", 100), "POS", 0, 99, 100);
    CostModel model(fx.provider());

    double prev = 0.0;
    for (int64_t cut : {10, 50, 90}) {
        PlanPtr plan = planQuery("SELECT * FROM T WHERE POS < " +
                                 std::to_string(cut));
        ASSERT_EQ(plan->kind, PlanKind::Filter);
        double sel =
            model.selectivity(*plan->predicate, *plan->children[0]);
        EXPECT_GT(sel, prev) << "POS < " << cut;
        EXPECT_LE(sel, 1.0);
        prev = sel;
    }
}

TEST(CostModel, EstimateRowsMonotoneInSelectivity)
{
    StatsFixture fx;
    StatsFixture::intColumn(fx.add("T", 1000), "POS", 0, 999, 1000);
    CostModel model(fx.provider());

    double prev = 0.0;
    for (int64_t cut : {100, 500, 900}) {
        PlanPtr plan = planQuery("SELECT * FROM T WHERE POS < " +
                                 std::to_string(cut));
        double rows = model.estimateRows(*plan);
        EXPECT_GT(rows, prev) << "POS < " << cut;
        EXPECT_LE(rows, 1000.0);
        prev = rows;
    }
}

TEST(CostModel, EqualitySharperThanRangeWithStats)
{
    StatsFixture fx;
    StatsFixture::intColumn(fx.add("T", 1000), "K", 0, 999, 1000);
    CostModel model(fx.provider());

    PlanPtr eq = planQuery("SELECT * FROM T WHERE K == 5");
    PlanPtr ne = planQuery("SELECT * FROM T WHERE K != 5");
    double sel_eq = model.selectivity(*eq->predicate, *eq->children[0]);
    double sel_ne = model.selectivity(*ne->predicate, *ne->children[0]);
    EXPECT_NEAR(sel_eq, 1.0 / 1000.0, 1e-9);
    EXPECT_NEAR(sel_ne, 1.0 - 1.0 / 1000.0, 1e-9);
    // Out-of-range equality can never match.
    PlanPtr oob = planQuery("SELECT * FROM T WHERE K == 5000");
    EXPECT_EQ(model.selectivity(*oob->predicate, *oob->children[0]),
              0.0);
}

TEST(CostModel, HashJoinBuildsOnSmallerSide)
{
    StatsFixture fx;
    StatsFixture::intColumn(fx.add("BIG", 10000), "K", 0, 9999, 10000);
    StatsFixture::intColumn(fx.add("SMALL", 10), "K", 0, 9, 10);

    OptimizerOptions opts;
    opts.ruleMask = kRuleHashJoin;
    opts.stats = fx.provider();

    PlanPtr a = optimizePlan(
        planQuery("SELECT * FROM BIG b INNER JOIN SMALL s "
                  "ON b.K = s.K"),
        opts);
    ASSERT_EQ(a->kind, PlanKind::Join);
    EXPECT_EQ(a->joinStrategy, JoinStrategy::Hash);
    EXPECT_FALSE(a->buildLeft) << "right side (SMALL) is the build side";

    PlanPtr b = optimizePlan(
        planQuery("SELECT * FROM SMALL s INNER JOIN BIG b "
                  "ON s.K = b.K"),
        opts);
    ASSERT_EQ(b->kind, PlanKind::Join);
    EXPECT_EQ(b->joinStrategy, JoinStrategy::Hash);
    EXPECT_TRUE(b->buildLeft) << "left side (SMALL) is the build side";
}

TEST(CostModel, CollectTableStatsBasics)
{
    Schema s;
    s.addField("A", DataType::Int64);
    Table t("T", s);
    for (int64_t i = 0; i < 10; ++i)
        t.appendRow({Value(i % 5)});
    t.appendRow({Value()});

    TableStats ts = table::collectTableStats(t);
    EXPECT_EQ(ts.rowCount, 11u);
    const ColumnStats *cs = ts.column("A");
    ASSERT_NE(cs, nullptr);
    EXPECT_EQ(cs->nullCount, 1u);
    ASSERT_TRUE(cs->hasRange);
    EXPECT_EQ(cs->minValue, 0);
    EXPECT_EQ(cs->maxValue, 4);
    ASSERT_TRUE(cs->hasDistinct);
    EXPECT_EQ(cs->distinct, 5u);
}

TEST(CostModel, StatsSurviveCreateTableAs)
{
    engine::Catalog catalog;
    Schema s;
    s.addField("A", DataType::Int64);
    Table t("T", s);
    for (int64_t i = 0; i < 50; ++i)
        t.appendRow({Value(i)});
    catalog.put("T", std::move(t));

    engine::Executor exec(catalog);
    exec.run("CREATE TABLE derived AS SELECT A FROM T WHERE A < 25");

    StatsProvider stats = exec.statsProvider();
    const TableStats *derived = stats("derived");
    ASSERT_NE(derived, nullptr);
    EXPECT_EQ(derived->rowCount, 25u);
    const ColumnStats *cs = derived->column("A");
    ASSERT_NE(cs, nullptr);
    ASSERT_TRUE(cs->hasRange);
    EXPECT_EQ(cs->minValue, 0);
    EXPECT_EQ(cs->maxValue, 24);

    // Replacing the table invalidates the cached stats.
    exec.run("CREATE TABLE derived AS SELECT A FROM T WHERE A < 5");
    const TableStats *replaced = stats("derived");
    ASSERT_NE(replaced, nullptr);
    EXPECT_EQ(replaced->rowCount, 5u);
}

/**
 * The mapper must lower `WHERE CYCLE != 0 AND QUAL >= 10` as two
 * hardware Filters with the cheaper (more selective) QUAL comparison
 * first in the stream: the cost model rates `QUAL >= 10` at the default
 * range selectivity (1/3) and `CYCLE != 0` near 0.9, so the QUAL filter
 * discards flits before the CYCLE filter sees them. The two Filters and
 * their output queues get distinct names, so each keeps its own stats.
 */
TEST(CostModel, MapperOrdersPredicatesBySelectivity)
{
    auto w = test::makeSmallWorkload(11, 20, 5'000, 1);

    runtime::AcceleratorSession session{runtime::RuntimeConfig{}};
    pipeline::PipelineBuilder builder(session.sim(), 0);

    std::vector<size_t> every_read(w.reads.reads.size());
    std::iota(every_read.begin(), every_read.end(), size_t{0});
    core::ReadColumns cols =
        core::ReadColumns::fromReads(w.reads.reads, every_read);
    pipeline::QueryBinding binding;
    binding.pos = session.configureMem(
        "READS.POS", std::move(cols.pos),
        core::ReadColumns::scalarLens(cols.numReads), 4);
    binding.cigar = session.configureMem(
        "READS.CIGAR", std::move(cols.cigar), std::move(cols.cigarLens),
        2);
    binding.seq = session.configureMem(
        "READS.SEQ", std::move(cols.seq), std::move(cols.seqLens), 1);
    binding.qual = session.configureMem(
        "READS.QUAL", std::move(cols.qual), std::move(cols.qualLens),
        1);

    Script script = parseScript(R"(
CREATE TABLE ReadPartition AS
SELECT POS, ENDPOS, CIGAR, SEQ, QUAL
FROM READS PARTITION (@P);
FOR SingleRead IN ReadPartition:
  CREATE TABLE #AlignedRead AS
  ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ,
               SingleRead.QUAL)
  FROM SingleRead;
  INSERT INTO Output
  SELECT COUNT(*) FROM #AlignedRead
  WHERE CYCLE != 0 AND QUAL >= 10;
END LOOP;
)");
    PlanPtr plan = pipeline::fuseScriptToPlan(script);
    pipeline::MappedQuery mapped =
        pipeline::mapPlanToPipeline(builder, session, *plan, binding);

    size_t qual_at = mapped.trace.find("Filter <- WHERE (QUAL >= 10)");
    size_t cycle_at = mapped.trace.find("Filter <- WHERE (CYCLE != 0)");
    ASSERT_NE(qual_at, std::string::npos) << mapped.trace;
    ASSERT_NE(cycle_at, std::string::npos) << mapped.trace;
    EXPECT_LT(qual_at, cycle_at)
        << "more selective predicate must filter first:\n"
        << mapped.trace;

    session.start();
    session.wait();
    // Each filtered stream carries its passing bases plus one boundary
    // flit per read.
    uint64_t qual_pass = 0;
    uint64_t both_pass = 0;
    for (const auto &read : w.reads.reads) {
        for (const auto &base : genome::explodeRead(read.pos, read.cigar,
                                                    read.seq, read.qual)) {
            if (base.qual >= 10) {
                ++qual_pass;
                both_pass += base.readOffset != 0;
            }
        }
    }
    const uint64_t reads = w.reads.reads.size();
    const StatRegistry stats = session.sim().collectStats();
    EXPECT_EQ(stats.get("queue.p0.filtered.flits"), qual_pass + reads);
    EXPECT_EQ(stats.get("queue.p0.filtered_2.flits"), both_pass + reads);
    EXPECT_GT(qual_pass, both_pass);
}

} // namespace
} // namespace genesis::sql
