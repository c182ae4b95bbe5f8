/**
 * @file
 * Property/fuzz tests for the SQL front end.
 *
 * A seeded grammar-directed generator produces well-formed scripts in
 * the Genesis SQL dialect; the parser must accept every one of them,
 * and accepted scripts must round-trip through the planner
 * deterministically (two independent parse+explain passes render the
 * identical plan). Mutated scripts — token swaps, byte edits,
 * truncations — must either parse or fail with FatalError, never with
 * PanicError or an unhandled crash.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "engine/executor.h"
#include "genome/cigar.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "table/table.h"

namespace genesis::sql {
namespace {

/** Grammar-directed generator of well-formed Genesis SQL scripts. */
class QueryGen
{
  public:
    explicit QueryGen(uint64_t seed) : rng_(seed) {}

    std::string
    script()
    {
        std::string out;
        int n = 1 + static_cast<int>(rng_.below(4));
        for (int i = 0; i < n; ++i) {
            out += statement();
            out += ";\n";
        }
        return out;
    }

    /** One Figure-4-shaped FOR loop (figure4Loop or figure4Window). */
    std::string
    loopScript()
    {
        return rng_.below(2u) ? figure4Loop() : figure4Window();
    }

  private:
    template <size_t N>
    const char *
    pick(const char *const (&options)[N])
    {
        return options[rng_.below(N)];
    }

    const char *
    table()
    {
        static const char *const kTables[] = {"t", "u", "reads", "tmp1"};
        return pick(kTables);
    }

    const char *
    column()
    {
        static const char *const kCols[] = {"a", "b", "k", "pos",
                                            "qual"};
        return pick(kCols);
    }

    std::string
    valueExpr(int depth)
    {
        switch (rng_.below(depth > 2 ? 4u : 6u)) {
          case 0:
            return std::to_string(rng_.below(1000));
          case 1:
            return column();
          case 2:
            return std::string(table()) + "." + column();
          case 3:
            return "@x";
          case 4: {
            static const char *const kOps[] = {"+", "-", "*"};
            return valueExpr(depth + 1) + " " + pick(kOps) + " " +
                valueExpr(depth + 1);
          }
          default:
            return "(" + valueExpr(depth + 1) + ")";
        }
    }

    std::string
    boolExpr()
    {
        static const char *const kCmp[] = {"==", "!=", "<",
                                           ">",  "<=", ">="};
        return valueExpr(1) + " " + pick(kCmp) + " " + valueExpr(1);
    }

    std::string
    selectStmt()
    {
        std::string s = "SELECT ";
        switch (rng_.below(3u)) {
          case 0:
            s += "*";
            break;
          case 1: {
            int items = 1 + static_cast<int>(rng_.below(3));
            for (int i = 0; i < items; ++i) {
                if (i)
                    s += ", ";
                s += valueExpr(1);
                if (rng_.below(2u))
                    s += std::string(" AS c") + std::to_string(i);
            }
            break;
          }
          default:
            static const char *const kAggs[] = {"SUM", "MIN", "MAX"};
            s += std::string(pick(kAggs)) + "(" + valueExpr(1) +
                ") AS agg0";
            if (rng_.below(2u))
                s += ", COUNT(*) AS n";
            break;
        }
        const char *from = table();
        s += std::string(" FROM ") + from;
        if (rng_.below(4u) == 0)
            s += " PARTITION (@P)";
        if (rng_.below(3u) == 0) {
            static const char *const kJoin[] = {"INNER JOIN",
                                                "LEFT JOIN"};
            const char *other = table();
            s += std::string(" ") + pick(kJoin) + " " + other + " ON " +
                from + "." + column() + " = " + other + "." + column();
        }
        if (rng_.below(2u))
            s += " WHERE " + boolExpr();
        if (rng_.below(3u) == 0)
            s += std::string(" GROUP BY ") + column();
        if (rng_.below(3u) == 0) {
            s += " LIMIT " + std::to_string(rng_.below(100));
            if (rng_.below(2u))
                s += ", " + std::to_string(rng_.below(100));
        }
        return s;
    }

    /**
     * The Figure-4 per-read probe: inside a FOR body, a LIMIT window over
     * a stored table, its offset read off the loop row. Tables have 40
     * rows with pos = 3 * row, so offsets run from inside the table to
     * its end and past it; counts include 0. The closing SELECT makes
     * the appended rows the script's result.
     */
    std::string
    windowProbe()
    {
        static const char *const kCounts[] = {"0", "1", "7", "40",
                                              "Row.k"};
        return "SET @x = 0 - " + std::to_string(rng_.below(8)) +
            ";\nFOR Row IN " + table() +
            ":\n    INSERT INTO outt SELECT * FROM " + table() +
            " LIMIT (Row.pos - @x), " + pick(kCounts) +
            ";\nEND LOOP;\nSELECT * FROM outt";
    }

    /**
     * A Figure-4-shaped FOR body. Its per-row temp table changes size
     * from row to row: a ReadExplode of the loop row (aln reads hold 1
     * to 10 bases) or a LIMIT window whose count is read off the loop
     * row. The body joins it with a stored table and appends an
     * aggregate over integer expressions to f4out, a table of its own
     * so that other statements' INSERTs into outt do not make it fail.
     * Body plans are prepared at the first row, so later rows run them
     * on other sizes.
     */
    std::string
    figure4Loop()
    {
        std::string loop;
        std::string temp;
        std::string key;
        std::string x;
        if (rng_.below(2u)) {
            loop = "aln";
            temp = "ReadExplode (Row.POS, Row.CIGAR, Row.SEQ, Row.QUAL)"
                   " FROM Row";
            key = "POS";
            x = "BP";
        } else {
            static const char *const kCounts[] = {"Row.k", "Row.k * 9",
                                                  "Row.b"};
            loop = table();
            temp = std::string("SELECT * FROM ") + table() +
                " LIMIT (Row.pos - @x), " + pick(kCounts);
            key = "k";
            x = column();
        }
        static const char *const kJoin[] = {"INNER JOIN", "LEFT JOIN"};
        static const char *const kAggs[] = {
            "SUM(#j.x == #j.y)",
            "SUM(#j.x == #j.y), COUNT(*)",
            "COUNT(#j.x - #j.y), MIN(#j.x - #j.y), MAX(#j.x + #j.y)",
        };
        const std::string stored = table();
        std::string s = "SET @x = 0 - " + std::to_string(rng_.below(8)) +
            ";\nFOR Row IN " + loop + ":\n    CREATE TABLE #r AS " + temp +
            ";\n    CREATE TABLE #j AS SELECT #r." + x + " AS x, " +
            stored + "." + column() + " AS y FROM #r " + pick(kJoin) +
            " " + stored + " ON #r." + key + " = " + stored + "." +
            (key == "POS" ? "pos" : "k") +
            ";\n    INSERT INTO f4out SELECT " + pick(kAggs) + " FROM #j";
        if (rng_.below(3u) == 0)
            s += " GROUP BY y";
        return s + ";\nEND LOOP;\nSELECT * FROM f4out";
    }

    /**
     * The Figure-4 join itself: a ReadExplode of the loop row joined with
     * a LIMIT window of a stored table, offset from the row and count
     * @n, SET inside the body (before the join or after the INSERT, when
     * each row sees the count the row before left). The tables' key
     * columns are sorted and sparse (pos), unsorted and repeated (a, k),
     * sparse (b) and NULL in places (qual). Offsets run negative (fatal),
     * inside and past the table's end; counts include 0 and negative
     * ones (fatal). Some bodies aggregate the explode without a join.
     */
    std::string
    figure4Window()
    {
        static const char *const kOffsets[] = {
            "(Row.POS - @x)", "(Row.POS - @x) * 2", "Row.k"};
        static const char *const kCounts[] = {
            "0", "3", "Row.k", "Row.k * 9", "40", "Row.POS - @x"};
        static const char *const kBases[] = {"BP", "QUAL", "CYCLE", "POS"};
        static const char *const kJoin[] = {"INNER JOIN", "LEFT JOIN"};
        static const char *const kAggs[] = {
            "SUM(#j.x == #j.y)",
            "SUM(#j.x == #j.y), COUNT(*)",
            "COUNT(#j.x - #j.y), MIN(#j.x - #j.y), MAX(#j.x + #j.y)",
            "SUM(#j.y), COUNT(#j.y), COUNT(*)",
        };
        const std::string set = std::string("  SET @n = ") +
            pick(kCounts) + ";\n";
        const bool set_last = rng_.below(3u) == 0;
        std::string s = "DECLARE @n int;\nSET @n = 5;\nSET @x = " +
            std::to_string(static_cast<int64_t>(rng_.below(17)) - 8) +
            ";\nFOR Row IN aln:\n" + (set_last ? "" : set) +
            "  CREATE TABLE #r AS ReadExplode (Row.POS, Row.CIGAR, "
            "Row.SEQ, Row.QUAL) FROM Row;\n";
        if (rng_.below(5u) == 0) {
            s += std::string("  INSERT INTO f4win SELECT COUNT(*), SUM(#r.") +
                pick(kBases) + "), MIN(#r." + pick(kBases) + ") FROM #r;\n";
        } else {
            const std::string stored = table();
            const bool alias = rng_.below(2u) == 0;
            const std::string w = alias ? "w" : stored;
            s += std::string("  CREATE TABLE #j AS SELECT #r.") +
                pick(kBases) + " AS x, " + w + "." + column() +
                " AS y FROM #r " + pick(kJoin) + " (SELECT * FROM " +
                stored + " LIMIT " + pick(kOffsets) + ", @n)" +
                (alias ? " w" : "") + " ON #r.POS = " + w + "." +
                column() + ";\n  INSERT INTO f4win SELECT " + pick(kAggs) +
                " FROM #j;\n";
        }
        return s + (set_last ? set : "") +
            "END LOOP;\nSELECT * FROM f4win";
    }

    std::string
    statement()
    {
        switch (rng_.below(11u)) {
          case 0:
            return "DECLARE @x int";
          case 1:
            return "SET @x = " + valueExpr(1);
          case 2:
            return "CREATE TABLE ct" + std::to_string(rng_.below(10)) +
                " AS " + selectStmt();
          case 3:
            return std::string("FOR Row IN ") + table() +
                ":\n    INSERT INTO outt " + selectStmt() +
                ";\nEND LOOP";
          case 4:
            return std::string("EXEC MDGen Input1 = ") + table() +
                " INTO mdout";
          case 5:
            return "CREATE TABLE pe" + std::to_string(rng_.below(10)) +
                " AS PosExplode (t.SEQ, t.POS) FROM t";
          case 6:
            return "CREATE TABLE re" + std::to_string(rng_.below(10)) +
                " AS ReadExplode (aln.POS, aln.CIGAR, aln.SEQ, aln.QUAL)"
                " FROM aln";
          case 7:
            return windowProbe();
          case 8:
            return figure4Loop();
          case 9:
            return figure4Window();
          default:
            return selectStmt();
        }
    }

    Rng rng_;
};

/** Apply one seeded mutation to a script. */
std::string
mutate(const std::string &base, Rng &rng)
{
    std::string s = base;
    if (s.empty())
        return s;
    switch (rng.below(6u)) {
      case 0: // delete a character
        s.erase(rng.below(s.size()), 1);
        break;
      case 1: // duplicate a character
        s.insert(rng.below(s.size()), 1, s[rng.below(s.size())]);
        break;
      case 2: // replace with printable noise
        s[rng.below(s.size())] =
            static_cast<char>(32 + rng.below(95));
        break;
      case 3: // truncate
        s.resize(rng.below(s.size()));
        break;
      case 4: { // insert a random keyword mid-string
        static const char *const kWords[] = {
            " SELECT ", " FROM ",  " WHERE ", " JOIN ",  " GROUP ",
            " LIMIT ",  " (",      ") ",      " , ",     " ; ",
            " @ ",      " END ",   " LOOP ",  " EXEC ",  " 'q' "};
        s.insert(rng.below(s.size()),
                 kWords[rng.below(std::size(kWords))]);
        break;
      }
      default: { // swap two whitespace-separated tokens
        std::vector<std::string> tokens;
        std::string word;
        for (char c : s) {
            if (c == ' ' || c == '\n') {
                if (!word.empty())
                    tokens.push_back(word);
                word.clear();
            } else {
                word.push_back(c);
            }
        }
        if (!word.empty())
            tokens.push_back(word);
        if (tokens.size() >= 2) {
            std::swap(tokens[rng.below(tokens.size())],
                      tokens[rng.below(tokens.size())]);
            s.clear();
            for (const auto &t : tokens)
                s += t + " ";
        }
        break;
      }
    }
    return s;
}

/** parse + explain, classifying the outcome. */
enum class Outcome { Accepted, Rejected, Crashed };

Outcome
tryParse(const std::string &text, std::string *explain_out = nullptr)
{
    try {
        Script script = parseScript(text);
        std::string explain = explainScript(script);
        validateScript(script); // must not crash either
        if (explain_out)
            *explain_out = explain;
        return Outcome::Accepted;
    } catch (const FatalError &) {
        return Outcome::Rejected;
    } catch (...) {
        return Outcome::Crashed;
    }
}

TEST(SqlFuzz, GeneratedScriptsAlwaysParse)
{
    QueryGen gen(4242);
    for (int trial = 0; trial < 400; ++trial) {
        std::string text = gen.script();
        std::string explain;
        Outcome outcome = tryParse(text, &explain);
        ASSERT_EQ(outcome, Outcome::Accepted)
            << "well-formed script rejected or crashed (trial " << trial
            << "):\n" << text;
        EXPECT_FALSE(explain.empty()) << text;
    }
}

TEST(SqlFuzz, PlannerRoundTripIsDeterministic)
{
    QueryGen gen(98765);
    for (int trial = 0; trial < 200; ++trial) {
        std::string text = gen.script();
        std::string explain1, explain2;
        ASSERT_EQ(tryParse(text, &explain1), Outcome::Accepted) << text;
        ASSERT_EQ(tryParse(text, &explain2), Outcome::Accepted) << text;
        EXPECT_EQ(explain1, explain2)
            << "plan differs between parses of:\n" << text;
    }
}

TEST(SqlFuzz, MutatedScriptsNeverCrashTheParser)
{
    QueryGen gen(1337);
    Rng rng(31415);
    int accepted = 0, rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::string base = gen.script();
        for (int m = 0; m < 4; ++m) {
            std::string text = mutate(base, rng);
            // Stack a second mutation on every other mutant.
            if (m % 2)
                text = mutate(text, rng);
            std::string explain1;
            Outcome outcome = tryParse(text, &explain1);
            ASSERT_NE(outcome, Outcome::Crashed)
                << "parser crashed (non-FatalError) on:\n" << text;
            if (outcome == Outcome::Accepted) {
                ++accepted;
                // Mutants the parser accepts must still plan
                // deterministically.
                std::string explain2;
                ASSERT_EQ(tryParse(text, &explain2), Outcome::Accepted);
                EXPECT_EQ(explain1, explain2) << text;
            } else {
                ++rejected;
            }
        }
    }
    // The mutation set must actually exercise both paths.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

/**
 * Catalog every generated script can execute against: the four tables
 * the generator names, all carrying the generator's column pool, plus
 * the SEQ/POS pair PosExplode statements need and a partition 0 so
 * `PARTITION (@P)` scans resolve, and the aligned reads (aln) the
 * Figure-4 loops explode.
 */
engine::Catalog
makeFuzzCatalog()
{
    engine::Catalog cat;
    static const char *const kTables[] = {"t", "u", "reads", "tmp1"};
    uint64_t seed = 7001;
    for (const char *name : kTables) {
        table::Schema s;
        s.addField("a", table::DataType::Int64);
        s.addField("b", table::DataType::Int64);
        s.addField("k", table::DataType::Int64);
        s.addField("pos", table::DataType::Int64);
        s.addField("qual", table::DataType::Int64);
        bool explodable = std::string(name) == "t";
        if (explodable) {
            s.addField("SEQ", table::DataType::Array8);
            s.addField("POS", table::DataType::Int64);
        }
        table::Table tbl(name, s);
        Rng rng(seed++);
        for (int64_t i = 0; i < 40; ++i) {
            std::vector<table::Value> row = {
                table::Value(static_cast<int64_t>(rng.below(50))),
                table::Value(static_cast<int64_t>(rng.below(1000))),
                table::Value(static_cast<int64_t>(rng.below(8))),
                table::Value(i * 3),
                rng.below(10) == 0
                    ? table::Value()
                    : table::Value(static_cast<int64_t>(rng.below(60))),
            };
            if (explodable) {
                table::Blob seq;
                for (uint64_t j = 0; j < 1 + rng.below(6); ++j)
                    seq.push_back(static_cast<int64_t>(rng.below(4)));
                row.push_back(table::Value(std::move(seq)));
                row.push_back(table::Value(i * 7));
            }
            tbl.appendRow(std::move(row));
        }
        cat.putPartition(name, 0, tbl);
        cat.put(name, std::move(tbl));
    }

    // Aligned reads for ReadExplode: 1 to 10 bases each, CIGARs with
    // soft clips, deletions and insertions, positions overlapping pos.
    using table::DataType;
    table::Table aln("aln", table::Schema{{"k", DataType::Int64},
                                          {"POS", DataType::UInt32},
                                          {"CIGAR", DataType::Array16},
                                          {"SEQ", DataType::Array8},
                                          {"QUAL", DataType::Array8}});
    Rng rng(seed);
    for (int64_t i = 0; i < 12; ++i) {
        const uint64_t len = 1 + rng.below(10);
        const uint64_t a = 1 + rng.below(len);
        std::string cigar = std::to_string(len) + "M";
        if (a < len) {
            const std::string rest = std::to_string(len - a);
            switch (rng.below(3u)) {
              case 0:
                cigar = std::to_string(a) + "S" + rest + "M";
                break;
              case 1:
                cigar = std::to_string(a) + "M" +
                    std::to_string(1 + rng.below(3)) + "D" + rest + "M";
                break;
              default:
                cigar = std::to_string(a) + "M" + rest + "I";
                break;
            }
        }
        table::Blob packed;
        for (uint16_t e : genome::Cigar::parse(cigar).packAll())
            packed.push_back(e);
        table::Blob seq;
        table::Blob qual;
        for (uint64_t j = 0; j < len; ++j) {
            seq.push_back(static_cast<int64_t>(rng.below(4)));
            qual.push_back(static_cast<int64_t>(rng.below(41)));
        }
        aln.appendRow({table::Value(static_cast<int64_t>(rng.below(8))),
                       table::Value(2 * i + static_cast<int64_t>(
                                                rng.below(4))),
                       table::Value(std::move(packed)),
                       table::Value(std::move(seq)),
                       table::Value(std::move(qual))});
    }
    cat.put("aln", std::move(aln));
    return cat;
}

/** Outcome of executing a script end to end. */
struct ExecOutcome {
    bool fatal = false;
    std::string error; ///< the FatalError text when fatal
    std::optional<table::Table> result;
    /** The Figure-4 loop's output table (f4win or f4out) as the script
     *  left it, also after an error. */
    std::optional<table::Table> loopOutput;
    uint64_t setLoops = 0; ///< FOR loops run set-at-a-time
};

ExecOutcome
runScriptWith(const std::string &text, engine::ExecConfig cfg)
{
    engine::Catalog cat = makeFuzzCatalog();
    engine::Executor exec(cat, cfg);
    exec.env().variables["x"] = table::Value(7);
    exec.env().variables["P"] = table::Value(0);
    ExecOutcome out;
    try {
        out.result = exec.run(text);
    } catch (const FatalError &e) {
        out.fatal = true;
        out.error = e.what();
    }
    for (const char *name : {"f4win", "f4out"}) {
        if (const table::Table *t = cat.find(name)) {
            out.loopOutput = *t;
            break;
        }
    }
    out.setLoops = exec.setAtATimeLoops();
    return out;
}

/**
 * Execution parity under the optimizer: every generated script is run
 * naively (optimizer and vectorization off) and then with each rewrite
 * rule individually disabled — the outcome (result, or the FatalError's
 * text) and the final result table must match bit for bit, so a
 * misbehaving rule is named by the failing assertion. The vectorized
 * runs take the set-at-a-time FOR loop wherever its body allows, and
 * enough generated bodies must have run that way.
 */
TEST(SqlFuzz, RuleMaskedExecutionMatchesNaive)
{
    static constexpr uint32_t kRules[] = {
        kRuleSplit,       kRulePushdown, kRuleTransfer, kRuleJoinReorder,
        kRuleHashJoin,    kRuleMerge,    kRuleFilterOrder,
    };
    QueryGen gen(24601);
    int executed = 0;
    int fig4_explodes = 0; // runnable Figure-4 bodies of each kind
    int fig4_windows = 0;
    int read_explodes = 0; // runnable scripts with a top-level explode
    int fig4_window_runs = 0; // runnable windowed Figure-4 joins
    uint64_t set_loops = 0;   // loops the default config ran set-wise
    for (int trial = 0; trial < 60; ++trial) {
        std::string text = gen.script();
        engine::ExecConfig naive_cfg;
        naive_cfg.optimize = false;
        naive_cfg.vectorize = false;
        ExecOutcome naive = runScriptWith(text, naive_cfg);
        if (!naive.fatal)
            ++executed;
        if (!naive.fatal &&
            text.find("CREATE TABLE #j") != std::string::npos) {
            const bool explode =
                text.find("ReadExplode (Row") != std::string::npos;
            ++(explode ? fig4_explodes : fig4_windows);
        }
        if (!naive.fatal &&
            text.find("ReadExplode (aln.") != std::string::npos) {
            ++read_explodes;
        }
        if (!naive.fatal && text.find("INTO f4win") != std::string::npos)
            ++fig4_window_runs;

        for (uint32_t rule : kRules) {
            engine::ExecConfig cfg;
            cfg.optimize = true;
            cfg.vectorize = true;
            cfg.ruleMask = kAllRules & ~rule;
            ExecOutcome got = runScriptWith(text, cfg);
            ASSERT_EQ(naive.fatal, got.fatal)
                << "outcome class diverged with rule '" << ruleName(rule)
                << "' disabled on:\n" << text;
            ASSERT_EQ(naive.error, got.error)
                << "error diverged with rule '" << ruleName(rule)
                << "' disabled on:\n" << text;
            if (naive.fatal)
                continue;
            ASSERT_EQ(naive.result.has_value(), got.result.has_value())
                << "result presence diverged with rule '"
                << ruleName(rule) << "' disabled on:\n" << text;
            if (naive.result) {
                EXPECT_TRUE(naive.result->contentEquals(*got.result))
                    << "rule '" << ruleName(rule)
                    << "' changed script results:\n" << text;
            }
        }

        // And the full default configuration (all rules, vectorized).
        ExecOutcome full = runScriptWith(text, engine::ExecConfig{});
        ASSERT_EQ(naive.fatal, full.fatal) << text;
        ASSERT_EQ(naive.error, full.error) << text;
        set_loops += full.setLoops;
        if (!naive.fatal && naive.result) {
            ASSERT_TRUE(full.result.has_value()) << text;
            EXPECT_TRUE(naive.result->contentEquals(*full.result))
                << "default optimize+vectorize changed results:\n"
                << text;
        }
    }
    // The generator must produce a healthy share of runnable scripts.
    EXPECT_GT(executed, 10);
    EXPECT_GT(fig4_explodes, 0);
    EXPECT_GT(fig4_windows, 0);
    EXPECT_GT(read_explodes, 0);
    EXPECT_GT(fig4_window_runs, 0);
    EXPECT_GE(set_loops, 4u);
}

/**
 * The set-at-a-time FOR loop against the row engine's loop, on generated
 * Figure-4-shaped bodies alone: results, error texts and the Output rows
 * appended before an error must match with the optimizer on and off, and
 * most runnable bodies must have run set-at-a-time.
 */
TEST(SqlFuzz, SetAtATimeLoopsMatchTheRowLoop)
{
    QueryGen gen(8128);
    int runnable = 0;
    uint64_t set_loops = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const std::string text = gen.loopScript();
        engine::ExecConfig naive_cfg;
        naive_cfg.optimize = false;
        naive_cfg.vectorize = false;
        ExecOutcome naive = runScriptWith(text, naive_cfg);
        runnable += !naive.fatal;
        for (bool optimize : {false, true}) {
            engine::ExecConfig cfg;
            cfg.optimize = optimize;
            ExecOutcome got = runScriptWith(text, cfg);
            ASSERT_EQ(naive.error, got.error) << text;
            ASSERT_EQ(naive.result.has_value(), got.result.has_value())
                << text;
            if (naive.result) {
                EXPECT_TRUE(naive.result->contentEquals(*got.result))
                    << text << naive.result->str() << got.result->str();
            }
            ASSERT_EQ(naive.loopOutput.has_value(),
                      got.loopOutput.has_value()) << text;
            if (naive.loopOutput) {
                EXPECT_TRUE(naive.loopOutput->contentEquals(*got.loopOutput))
                    << text << naive.loopOutput->str()
                    << got.loopOutput->str();
            }
            set_loops += got.setLoops;
        }
    }
    EXPECT_GT(runnable, 100);
    EXPECT_GT(set_loops, static_cast<uint64_t>(runnable));
}

} // namespace
} // namespace genesis::sql
