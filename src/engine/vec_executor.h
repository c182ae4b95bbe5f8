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

/** Vectorized plan interpreter sharing an Executor's catalog + env. */
class VecExecutor
{
  public:
    explicit VecExecutor(Executor &exec) : exec_(exec) {}

    /** Run a plan to a materialized table (same naming as row path). */
    table::Table run(const sql::PlanNode &plan);

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
    Batch evalJoin(const sql::PlanNode &plan);
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

    Executor &exec_;
};

} // namespace genesis::engine

#endif // GENESIS_ENGINE_VEC_EXECUTOR_H
