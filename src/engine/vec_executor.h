/**
 * @file
 * Batched columnar plan execution.
 *
 * VecExecutor interprets the same logical plans as the row engine but
 * moves kBatchRows-row column chunks between operators instead of one
 * boxed row at a time. Integer expressions run over flat int64 vectors;
 * anything the fast path cannot express (strings, blobs, scalar calls)
 * falls back to per-row evalExpr over the batch, aggregates the fast
 * path cannot stream fall back to the row aggregate, and the explodes
 * share one implementation with the row engine — so every plan produces
 * bit-identical rows to Executor::runRowPlan().
 */

#ifndef GENESIS_ENGINE_VEC_EXECUTOR_H
#define GENESIS_ENGINE_VEC_EXECUTOR_H

#include <optional>
#include <string>
#include <vector>

#include "engine/batch.h"
#include "sql/plan.h"

namespace genesis::engine {

class Executor;
struct LoopShape;

/** Vectorized plan interpreter sharing an Executor's catalog + env. */
class VecExecutor
{
  public:
    explicit VecExecutor(Executor &exec) : exec_(exec) {}

    /** Run a plan to a materialized table (same naming as row path). */
    table::Table run(const sql::PlanNode &plan);

    /**
     * Run a FOR loop over `rows`, its snapshot of the loop table, set at
     * a time when its fused body (sql::fuseLoopBody) is a per-row
     * ReadExplode of the loop row, optionally an equi-join with a stored
     * table or a LIMIT window of one, optionally projected, under a
     * scalar aggregate that the body INSERTs into a table it does not
     * read (src/engine/set_loop.cpp has the full rule). The body's SETs,
     * explode and window run per row in body order; the join, projection
     * and aggregate run once over every row, and the appended rows, their
     * order and the variables end as the loop leaves them.
     * @return false, having changed nothing, when the body has another
     * shape or running it raised FatalError; the caller then runs the
     * loop row by row, which raises that error as the loop does.
     */
    bool runLoop(const sql::Statement &loop, const table::Table &rows);

  private:
    Batch evalPlan(const sql::PlanNode &plan);

    /**
     * The stored table a Scan reads in place, or nullptr when it goes
     * through Executor::execScan() (loop-row bindings, partitions).
     * Throws FatalError for an unknown table.
     */
    const table::Table *storedTable(const sql::PlanNode &scan);

    Batch evalScan(const sql::PlanNode &plan);
    Batch evalFilter(const sql::PlanNode &plan);
    Batch evalProject(const sql::PlanNode &plan);
    /** A Project's outputs over an evaluated input. */
    Batch project(const sql::PlanNode &plan, const Batch &in);
    Batch evalJoin(const sql::PlanNode &plan);
    /**
     * A join's output: left rows by `lidx` and right rows by `ridx`, one
     * pair per output row, -1 padding that side with NULLs.
     */
    Batch joinedBatch(const sql::PlanNode &plan, const Batch &left,
                      const Batch &right, const std::vector<ssize_t> &lidx,
                      const std::vector<ssize_t> &ridx);
    Batch evalAggregate(const sql::PlanNode &plan);
    Batch evalLimit(const sql::PlanNode &plan);

    /**
     * Evaluate an expression over rows [first, first+count) of a batch.
     * Uses the integer fast path when the whole expression tree is
     * integer-typed, else evaluates row-wise with evalExpr (identical
     * semantics either way).
     */
    ColumnChunk evalExprBatch(const sql::Expr &expr, const Batch &in,
                              size_t first, size_t count,
                              const std::vector<std::string> &aliases);

    /** Fast path: all-integer chunk, or nullopt when ineligible. */
    std::optional<ColumnChunk>
    tryFastExpr(const sql::Expr &expr, const Batch &in, size_t first,
                size_t count, const std::vector<std::string> &aliases);

    /** Evaluate an expression over every row, slice by slice. */
    ColumnChunk evalExprFull(const sql::Expr &expr, const Batch &in,
                             const std::vector<std::string> &aliases);

    /**
     * The set-at-a-time loop body (runLoop): the rows to append, or
     * nullopt when a column it needs as integers is not.
     */
    std::optional<table::Table> runLoopShape(const sql::Statement &loop,
                                             const LoopShape &shape,
                                             const table::Table &rows);

    /**
     * The windowed join of every loop row at once: loop row i's left
     * rows [ends[i - 1], ends[i]) meet the right rows of windows[i] (all
     * of `right` when `windows` is empty) in the row engine's emission
     * order. `ends` becomes the joined rows' ends. nullopt when a key is
     * not an integer column.
     */
    std::optional<Batch> joinWindows(const sql::PlanNode &join,
                                     const Batch &left, const Batch &right,
                                     const std::vector<RowWindow> &windows,
                                     std::vector<size_t> &ends);

    /**
     * One scalar aggregate row per loop row of `in`, loop row i owning
     * rows [ends[i - 1], ends[i]). nullopt when an argument is not an
     * integer expression.
     */
    std::optional<table::Table>
    aggregateRows(const sql::PlanNode &agg, const Batch &in,
                  const std::vector<size_t> &ends);

    Executor &exec_;
};

} // namespace genesis::engine

#endif // GENESIS_ENGINE_VEC_EXECUTOR_H
