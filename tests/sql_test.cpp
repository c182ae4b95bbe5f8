/**
 * @file
 * Unit tests for src/sql: lexer, parser (including the full Figure-4
 * script), logical planning, and script validation.
 */

#include <gtest/gtest.h>

#include <limits>

#include "base/logging.h"
#include "core/example_accel.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/plan.h"
#include "sql/planner.h"

namespace genesis::sql {
namespace {

TEST(Lexer, BasicTokens)
{
    auto tokens = tokenize("SELECT a.b, 42 FROM t WHERE x == 'hi'");
    ASSERT_GE(tokens.size(), 12u);
    EXPECT_TRUE(tokens[0].isKeyword("SELECT"));
    EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[2].kind, TokenKind::Dot);
    EXPECT_EQ(tokens[5].kind, TokenKind::Integer);
    EXPECT_EQ(tokens[5].intValue, 42);
    EXPECT_EQ(tokens.back().kind, TokenKind::End);
}

TEST(Lexer, VariablesAndTempNames)
{
    auto tokens = tokenize("@rlen #AlignedRead");
    EXPECT_EQ(tokens[0].kind, TokenKind::Variable);
    EXPECT_EQ(tokens[0].text, "rlen");
    EXPECT_EQ(tokens[1].kind, TokenKind::TempName);
    EXPECT_EQ(tokens[1].text, "AlignedRead");
}

TEST(Lexer, Comments)
{
    auto tokens = tokenize("a -- line comment\n/* block\ncomment */ b");
    ASSERT_EQ(tokens.size(), 3u); // a, b, End
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, ComparisonOperators)
{
    auto tokens = tokenize("== != <> <= >= < > =");
    EXPECT_EQ(tokens[0].kind, TokenKind::EqEq);
    EXPECT_EQ(tokens[1].kind, TokenKind::NotEq);
    EXPECT_EQ(tokens[2].kind, TokenKind::NotEq);
    EXPECT_EQ(tokens[3].kind, TokenKind::LessEq);
    EXPECT_EQ(tokens[4].kind, TokenKind::GreaterEq);
    EXPECT_EQ(tokens[5].kind, TokenKind::Less);
    EXPECT_EQ(tokens[6].kind, TokenKind::Greater);
    EXPECT_EQ(tokens[7].kind, TokenKind::Eq);
}

TEST(Lexer, RejectsBadInput)
{
    EXPECT_THROW(tokenize("'unterminated"), FatalError);
    EXPECT_THROW(tokenize("a ? b"), FatalError);
    EXPECT_THROW(tokenize("/* open"), FatalError);
}

TEST(Lexer, OutOfRangeIntegerLiteralFatal)
{
    EXPECT_EQ(tokenize("9223372036854775807")[0].intValue,
              std::numeric_limits<int64_t>::max());
    try {
        tokenize("SELECT POS FROM READS\nLIMIT 99999999999999999999;");
        FAIL() << "out-of-range literal accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: integer literal "
                               "'99999999999999999999' out of range at "
                               "line 2");
    }
}

TEST(Parser, ExpressionPrecedence)
{
    auto e = parseExpression("1 + 2 * 3 == 7 AND NOT x");
    // ((1 + (2 * 3)) == 7) AND (NOT x)
    EXPECT_EQ(e->str(), "(((1 + (2 * 3)) == 7) AND (NOT x))");
}

TEST(Parser, UnaryMinusAndParens)
{
    auto e = parseExpression("-(a + 2)");
    EXPECT_EQ(e->str(), "(- (a + 2))");
}

TEST(Parser, FunctionCallsUppercased)
{
    auto e = parseExpression("sum(a == b)");
    EXPECT_EQ(e->kind, ExprKind::Call);
    EXPECT_EQ(e->name, "SUM");
}

TEST(Parser, SelectWithWhereGroupLimit)
{
    Script s = parseScript(
        "SELECT a, COUNT(*) AS n FROM t WHERE a > 3 GROUP BY a "
        "LIMIT 2, 5");
    ASSERT_EQ(s.statements.size(), 1u);
    const auto &sel = *s.statements[0]->select;
    EXPECT_EQ(sel.items.size(), 2u);
    EXPECT_EQ(sel.items[1].alias, "n");
    ASSERT_TRUE(sel.where != nullptr);
    EXPECT_EQ(sel.groupBy.size(), 1u);
    ASSERT_TRUE(sel.limit.offset != nullptr);
    ASSERT_TRUE(sel.limit.count != nullptr);
}

TEST(Parser, JoinVariants)
{
    Script s = parseScript(
        "SELECT * FROM a INNER JOIN b ON a.k = b.k "
        "LEFT JOIN c ON a.k = c.k");
    const auto &sel = *s.statements[0]->select;
    ASSERT_EQ(sel.joins.size(), 2u);
    EXPECT_EQ(sel.joins[0].type, JoinType::Inner);
    EXPECT_EQ(sel.joins[1].type, JoinType::Left);
    EXPECT_EQ(sel.joins[0].onLeft->str(), "a.k");
}

TEST(Parser, JoinRequiresEquality)
{
    EXPECT_THROW(
        parseScript("SELECT * FROM a INNER JOIN b ON a.k < b.k"),
        FatalError);
}

TEST(Parser, PartitionClause)
{
    Script s = parseScript("SELECT * FROM READS PARTITION (@P)");
    const auto &sel = *s.statements[0]->select;
    ASSERT_TRUE(sel.from.partition != nullptr);
    EXPECT_EQ(sel.from.partition->str(), "@P");
}

TEST(Parser, CreateInsertDeclareSetFor)
{
    Script s = parseScript(R"(
        DECLARE @x int;
        SET @x = 3;
        CREATE TABLE t2 AS SELECT a FROM t1;
        FOR Row IN t2:
            INSERT INTO out SELECT Row.a FROM t2;
        END LOOP;
    )");
    ASSERT_EQ(s.statements.size(), 4u);
    EXPECT_EQ(s.statements[0]->kind, StatementKind::Declare);
    EXPECT_EQ(s.statements[1]->kind, StatementKind::SetVar);
    EXPECT_EQ(s.statements[2]->kind, StatementKind::CreateTableAs);
    EXPECT_EQ(s.statements[3]->kind, StatementKind::ForLoop);
    EXPECT_EQ(s.statements[3]->loopVar, "Row");
    EXPECT_EQ(s.statements[3]->body.size(), 1u);
}

TEST(Parser, ExplodeForms)
{
    Script s = parseScript(
        "CREATE TABLE e AS PosExplode (t.SEQ, t.POS) FROM t;"
        "CREATE TABLE r AS ReadExplode (x.POS, x.CIGAR, x.SEQ, x.QUAL) "
        "FROM x");
    EXPECT_EQ(s.statements[0]->select->kind, SelectKind::PosExplode);
    EXPECT_EQ(s.statements[1]->select->kind, SelectKind::ReadExplode);
    EXPECT_EQ(s.statements[1]->select->items.size(), 4u);
}

TEST(Parser, ExplodeArityChecked)
{
    EXPECT_THROW(parseScript("SELECT 1 FROM t; "
                             "CREATE TABLE e AS PosExplode (a) FROM t"),
                 FatalError);
}

TEST(Parser, ExecStatement)
{
    Script s = parseScript("EXEC MDGen Input1 = joined INTO mdout");
    const auto &stmt = *s.statements[0];
    EXPECT_EQ(stmt.kind, StatementKind::Exec);
    EXPECT_EQ(stmt.moduleName, "MDGen");
    ASSERT_EQ(stmt.execInputs.size(), 1u);
    EXPECT_EQ(stmt.execInputs[0].second, "joined");
    EXPECT_EQ(stmt.target, "mdout");
}

TEST(Parser, Figure4ScriptParses)
{
    Script s = parseScript(core::matchCountQueryText());
    // I1 x2, I2, DECLARE, FOR.
    ASSERT_EQ(s.statements.size(), 5u);
    EXPECT_EQ(s.statements.back()->kind, StatementKind::ForLoop);
    // SET, CREATE #AlignedRead, CREATE #ReadAndRef, INSERT INTO Output.
    EXPECT_EQ(s.statements.back()->body.size(), 4u);
}

TEST(Plan, SelectLowersToProjectOverScan)
{
    Script s = parseScript("SELECT a, b FROM t WHERE a > 1");
    auto plan = planSelect(*s.statements[0]->select);
    EXPECT_EQ(plan->kind, PlanKind::Project);
    EXPECT_EQ(plan->children[0]->kind, PlanKind::Filter);
    EXPECT_EQ(plan->children[0]->children[0]->kind, PlanKind::Scan);
}

TEST(Plan, AggregateDetected)
{
    Script s = parseScript("SELECT SUM(a) FROM t");
    auto plan = planSelect(*s.statements[0]->select);
    EXPECT_EQ(plan->kind, PlanKind::Aggregate);
}

TEST(Plan, SelectStarIsBareScan)
{
    Script s = parseScript("SELECT * FROM t");
    auto plan = planSelect(*s.statements[0]->select);
    EXPECT_EQ(plan->kind, PlanKind::Scan);
}

TEST(Plan, JoinLeftDeep)
{
    Script s = parseScript(
        "SELECT * FROM a INNER JOIN b ON a.k = b.k "
        "INNER JOIN c ON a.k = c.k");
    auto plan = planSelect(*s.statements[0]->select);
    EXPECT_EQ(plan->kind, PlanKind::Join);
    EXPECT_EQ(plan->children[0]->kind, PlanKind::Join);
    EXPECT_EQ(plan->children[1]->kind, PlanKind::Scan);
}

TEST(Plan, LimitOnTop)
{
    Script s = parseScript("SELECT a FROM t LIMIT 5, 10");
    auto plan = planSelect(*s.statements[0]->select);
    EXPECT_EQ(plan->kind, PlanKind::Limit);
    EXPECT_EQ(plan->children[0]->kind, PlanKind::Project);
}

TEST(Plan, SubqueryInheritsAlias)
{
    Script s = parseScript(
        "SELECT * FROM x INNER JOIN (SELECT * FROM ref LIMIT 3) "
        "ON x.POS = ref.POS");
    auto plan = planSelect(*s.statements[0]->select);
    ASSERT_EQ(plan->kind, PlanKind::Join);
    EXPECT_EQ(plan->children[1]->kind, PlanKind::Limit);
}

TEST(Plan, StrRendersTree)
{
    Script s = parseScript("SELECT SUM(a) FROM t WHERE b == 1");
    auto plan = planSelect(*s.statements[0]->select);
    std::string text = plan->str();
    EXPECT_NE(text.find("Aggregate"), std::string::npos);
    EXPECT_NE(text.find("Filter"), std::string::npos);
    EXPECT_NE(text.find("Scan(t)"), std::string::npos);
}

TEST(Planner, ExplainScriptMentionsAllStatements)
{
    std::string text = explainScript(parseScript(
        core::matchCountQueryText()));
    EXPECT_NE(text.find("CREATE TABLE ReadPartition"),
              std::string::npos);
    EXPECT_NE(text.find("FOR SingleRead IN ReadPartition"),
              std::string::npos);
    EXPECT_NE(text.find("ReadExplode"), std::string::npos);
    EXPECT_NE(text.find("InnerJoin"), std::string::npos);
}

TEST(Planner, ExplainRendersOptimizedPlanByDefault)
{
    Script s = parseScript(
        "SELECT * FROM t INNER JOIN u ON t.k = u.k WHERE t.a == 1");
    std::string text = explainScript(s);
    // The equi-join is upgraded to hash strategy and the filter is
    // pushed below the join (join line precedes the filter line).
    EXPECT_NE(text.find("[hash"), std::string::npos) << text;
    size_t join_at = text.find("InnerJoin");
    size_t filter_at = text.find("Filter");
    ASSERT_NE(join_at, std::string::npos) << text;
    ASSERT_NE(filter_at, std::string::npos) << text;
    EXPECT_LT(join_at, filter_at) << text;
}

TEST(Planner, ExplainNoOptRendersNaivePlan)
{
    Script s = parseScript(
        "SELECT * FROM t INNER JOIN u ON t.k = u.k WHERE t.a == 1");
    ExplainOptions opts;
    opts.optimize = false;
    std::string text = explainScript(s, opts);
    // Escape hatch: the plan is rendered exactly as planned — filter on
    // top of a nested-loop join.
    EXPECT_EQ(text.find("[hash"), std::string::npos) << text;
    size_t join_at = text.find("InnerJoin");
    size_t filter_at = text.find("Filter");
    ASSERT_NE(join_at, std::string::npos) << text;
    ASSERT_NE(filter_at, std::string::npos) << text;
    EXPECT_LT(filter_at, join_at) << text;
}

TEST(Planner, ExplainRuleMaskDisablesSingleRewrite)
{
    Script s = parseScript(
        "SELECT * FROM t INNER JOIN u ON t.k = u.k WHERE t.a == 1");
    ExplainOptions opts;
    opts.ruleMask = kAllRules & ~kRuleHashJoin;
    std::string text = explainScript(s, opts);
    EXPECT_EQ(text.find("[hash"), std::string::npos) << text;
    // Pushdown still fires: the join line precedes the filter line.
    EXPECT_LT(text.find("InnerJoin"), text.find("Filter")) << text;
}

TEST(Planner, ExplainShowBothRendersBeforeAndAfter)
{
    Script s = parseScript(
        "SELECT * FROM t INNER JOIN u ON t.k = u.k WHERE t.a == 1");
    ExplainOptions opts;
    opts.showBoth = true;
    std::string text = explainScript(s, opts);
    size_t naive_at = text.find("naive:");
    size_t opt_at = text.find("optimized:");
    ASSERT_NE(naive_at, std::string::npos) << text;
    ASSERT_NE(opt_at, std::string::npos) << text;
    EXPECT_LT(naive_at, opt_at) << text;
    // The hash annotation only appears in the optimized rendering.
    size_t hash_at = text.find("[hash");
    ASSERT_NE(hash_at, std::string::npos) << text;
    EXPECT_GT(hash_at, opt_at) << text;
}

TEST(Planner, ExplainForLoopBodyIsOptimized)
{
    Script s = parseScript(
        "FOR Row IN t:\n"
        "    INSERT INTO out SELECT * FROM t INNER JOIN u "
        "ON t.k = u.k;\n"
        "END LOOP");
    std::string text = explainScript(s);
    EXPECT_NE(text.find("[hash"), std::string::npos) << text;
}

TEST(Planner, ValidateFlagsUndeclaredVariables)
{
    auto problems = validateScript(parseScript("SET @x = 1"));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("@x"), std::string::npos);
}

TEST(Planner, ValidateFlagsEmptyForBody)
{
    auto problems =
        validateScript(parseScript("FOR r IN t: END LOOP"));
    ASSERT_EQ(problems.size(), 1u);
}

TEST(Planner, ValidateCleanScript)
{
    auto problems = validateScript(parseScript(
        "DECLARE @x int; SET @x = 2; SELECT a FROM t WHERE a == @x"));
    EXPECT_TRUE(problems.empty());
}

} // namespace
} // namespace genesis::sql
