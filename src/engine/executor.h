/**
 * @file
 * Software query engine: interprets logical plans over columnar tables.
 *
 * This is the functional ground truth for every query Genesis offloads to
 * hardware — integration tests assert that the simulated accelerator
 * pipelines produce exactly the rows this engine produces.
 */

#ifndef GENESIS_ENGINE_EXECUTOR_H
#define GENESIS_ENGINE_EXECUTOR_H

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/batch.h"
#include "engine/eval.h"
#include "sql/ast.h"
#include "sql/optimizer.h"
#include "sql/plan.h"
#include "table/stats.h"
#include "table/table.h"

namespace genesis::engine {

/** Named-table store, with support for pre-partitioned tables. */
class Catalog
{
  public:
    /** Register (or replace) a table under its name. */
    void put(const std::string &name, table::Table t);

    /** @return table by name, or nullptr. */
    const table::Table *find(const std::string &name) const;

    /** Register one partition of a partitioned table (Section III-B). */
    void putPartition(const std::string &name, int64_t pid, table::Table t);

    /** @return the partition, or nullptr. */
    const table::Table *findPartition(const std::string &name,
                                      int64_t pid) const;

    /**
     * Append rows to a registered table in place (INSERT INTO) and drop
     * its cached stats. Throws FatalError when the table is absent or
     * the rows do not fit it (Table::appendRows()).
     */
    void append(const std::string &name, const table::Table &rows);

    /** Remove a table (no-op when absent). */
    void erase(const std::string &name);

    /** @return names of all registered (non-partition) tables. */
    std::vector<std::string> tableNames() const;

    /**
     * @return statistics for a registered table, or nullptr when absent.
     * Computed lazily on first request and cached until the table is
     * replaced or erased, so FOR-loop INSERT patterns stay linear.
     */
    const table::TableStats *stats(const std::string &name) const;

  private:
    std::map<std::string, table::Table> tables_;
    std::map<std::pair<std::string, int64_t>, table::Table> partitions_;
    mutable std::map<std::string, table::TableStats> statsCache_;
};

/**
 * A user-supplied custom operation (the software twin of a custom
 * hardware module registered via EXEC, Section III-F).
 */
using CustomOp =
    std::function<table::Table(const std::vector<const table::Table *> &)>;

/**
 * Execution configuration: logical optimization and vectorized
 * execution are on by default and can be disabled per executor.
 */
struct ExecConfig {
    /** Run optimizePlan() over every select before execution. */
    bool optimize = true;
    /** Execute plans through the batched columnar operators. */
    bool vectorize = true;
    /** Rewrite rules enabled when optimizing. */
    uint32_t ruleMask = sql::kAllRules;
};

class VecExecutor;

/** Interprets parsed scripts / logical plans against a catalog. */
class Executor
{
  public:
    explicit Executor(Catalog &catalog, ExecConfig config = {});

    /** Register a custom operation invocable via EXEC. */
    void registerCustomOp(const std::string &name, CustomOp op);

    /**
     * Run a full script. @return the result of the last bare SELECT (or
     * EXEC without INTO) when the script ends with one.
     */
    std::optional<table::Table> runScript(const sql::Script &script);

    /** Parse and run SQL text. */
    std::optional<table::Table> run(const std::string &sql_text);

    /**
     * Plan and run one select statement. In a FOR body the plan is
     * prepared at the statement's first run in the loop, with that
     * iteration's stats, and reused for every later row.
     */
    table::Table runSelect(const sql::SelectStmt &select);

    /** Run a logical plan directly. */
    table::Table runPlan(const sql::PlanNode &plan);

    /** Mutable variable environment (for host code to preset @vars). */
    VariableEnv &env() { return env_; }

    /** The active configuration. */
    const ExecConfig &config() const { return config_; }

    /**
     * Stats provider over temp scopes then the catalog, suitable for
     * sql::OptimizerOptions / the pipeline mapper.
     */
    sql::StatsProvider statsProvider();

    /**
     * Qualifier aliases a plan subtree's output answers to. A fused temp
     * table's plan (sql::PlanNode::inlinedTemp) answers to the names of
     * the scan it replaced, as the loop row that reads the temp sees it.
     */
    static std::vector<std::string> aliasesOf(const sql::PlanNode &plan);

    /** FOR loops this executor ran set-at-a-time (VecExecutor::runLoop). */
    uint64_t setAtATimeLoops() const { return setAtATimeLoops_; }

  private:
    friend class VecExecutor;

    /** Plans prepared for a FOR body's SELECTs, keyed by statement. */
    using PreparedPlans = std::map<const sql::SelectStmt *, sql::PlanPtr>;

    /**
     * One execution of a FOR loop: its prepared plans, and the running
     * iteration's temp scope and row binding. The destructor unwinds all
     * of it however the loop ends, so a failing body leaves no binding to
     * the destroyed loop snapshot and no temp table behind. An enclosing
     * loop's binding of the same variable name is hidden while a row runs
     * and restored after it.
     */
    class LoopState
    {
      public:
        LoopState(Executor &exec, const std::string &var);
        ~LoopState();
        LoopState(const LoopState &) = delete;
        LoopState &operator=(const LoopState &) = delete;

        void beginRow(const table::Table &table, size_t row);
        void endRow();

      private:
        Executor &exec_;
        const std::string &var_;
        PreparedPlans plans_;
        PreparedPlans *outerPlans_;
        std::optional<VariableEnv::RowBinding> outerBinding_;
        bool inRow_ = false;
    };

    std::optional<table::Table>
    execStatement(const sql::Statement &stmt);

    std::optional<table::Table> execForLoop(const sql::Statement &stmt);

    /** Interpret a plan row-at-a-time (no vectorized dispatch). */
    table::Table runRowPlan(const sql::PlanNode &plan);

    table::Table execScan(const sql::PlanNode &plan);
    table::Table execProjectOn(const sql::PlanNode &plan,
                               const table::Table &input);
    table::Table execFilterOn(const sql::PlanNode &plan,
                              const table::Table &input);
    table::Table execJoinOn(const sql::PlanNode &plan,
                            const table::Table &left,
                            const table::Table &right);
    table::Table execAggregateOn(const sql::PlanNode &plan,
                                 const table::Table &input);
    table::Table execLimitOn(const sql::PlanNode &plan,
                             const table::Table &input);

    /**
     * The explodes, shared by both engines: each output column fills
     * one int chunk. The row engine materializes the batch.
     */
    Batch posExplode(const sql::PlanNode &plan, const table::Table &input);
    Batch readExplode(const sql::PlanNode &plan, const table::Table &input);

    /**
     * Append the ReadExplode rows of input rows [rows.first, rows.end) to
     * `out`, giving it the explode's columns first when it has none.
     */
    void readExplodeInto(const sql::PlanNode &plan,
                         const table::Table &input, RowWindow rows,
                         Batch &out);

    /**
     * Rows a LIMIT node keeps of a `rows`-row input: its offset and
     * count evaluated (negative ones are fatal) and clamped to the
     * input. Shared by both engines.
     */
    RowWindow limitWindow(const sql::PlanNode &plan, size_t rows) const;

    /** Resolve a table name through temp scopes then the catalog. */
    const table::Table *lookupTable(const std::string &name) const;

    /** Store a statement result under a (possibly temp) name. */
    void storeTable(const std::string &name, bool is_temp, table::Table t,
                    bool append);

    /** Infer the output column type of an expression. */
    table::DataType inferType(const sql::Expr &expr,
                              const table::Schema &input) const;

    /**
     * Output schema of a join: left fields then right fields, duplicate
     * names respelled "prefix.name" using the per-column prefixes from
     * sidePrefixes() (shared with the vectorized join).
     */
    static table::Schema
    joinSchema(const table::Schema &left, const table::Schema &right,
               const std::vector<std::string> &lprefixes,
               const std::vector<std::string> &rprefixes);

    /**
     * Alias of the base relation inside `plan` that produced column
     * `col`, or "" when it cannot be attributed to exactly one scan
     * (projection outputs, ambiguous names).
     */
    std::string ownerQualifier(const sql::PlanNode &plan,
                               const std::string &col) const;

    /**
     * Join-respelling prefix for every column of one join side: the
     * owning relation's alias where attributable, else the side's
     * primary alias, else `fallback`. Keyed per column so a duplicate
     * name stays addressable by its own qualifier no matter how many
     * joins or reorders sit between its scan and the collision.
     */
    std::vector<std::string>
    sidePrefixes(const sql::PlanNode &side, const table::Schema &schema,
                 const std::string &fallback) const;

    /**
     * Orient ON keys so `lkey` resolves against the left child (keys
     * may be written either way round in the query).
     */
    static void orientJoinKeys(const sql::PlanNode &plan,
                               const std::vector<std::string> &left_aliases,
                               const sql::Expr *&lkey,
                               const sql::Expr *&rkey);

    Catalog &catalog_;
    ExecConfig config_;
    VariableEnv env_;
    /** Temp-table scopes; one pushed per FOR-loop iteration. */
    std::vector<std::map<std::string, table::Table>> tempScopes_;
    /** Lazily computed stats for temp tables (see statsProvider()). */
    std::map<std::string, table::TableStats> tempStatsCache_;
    /**
     * Plans of the innermost running FOR loop's body SELECTs, each
     * prepared at its first run in this execution of the loop and owned
     * by its LoopState; null outside loops.
     */
    PreparedPlans *loopPlans_ = nullptr;
    std::map<std::string, CustomOp> customOps_;
    uint64_t setAtATimeLoops_ = 0;
};

} // namespace genesis::engine

#endif // GENESIS_ENGINE_EXECUTOR_H
