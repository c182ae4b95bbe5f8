/**
 * @file
 * Set-at-a-time FOR loops (VecExecutor::runLoop).
 *
 * A loop body runs set-at-a-time when sql::fuseLoopBody() fuses it to
 *
 *   Aggregate(COUNT/SUM/MIN/MAX(e), ...)      -- the body's one INSERT INTO
 *     { Project | Join(<chain>, W) }*           -- at most one Join
 *       ReadExplode(Scan <loop row>)            -- a temp the body creates
 *
 * where W is a stored table or `SELECT * FROM stored LIMIT o, n`, the
 * Join is INNER or LEFT on two column references, and no Project
 * output, join key or aggregate argument reads a variable or a loop row.
 * The body holds only SETs, DECLAREs, temp CREATEs that all feed the
 * INSERT, and that INSERT, whose target is neither a temp, the loop
 * table nor the stored table. The recognizer keys on this shape only,
 * never on table names.
 *
 * Only the SETs, the explode and W's LIMIT read the row or a variable,
 * so they run per row, in body order, with the row bound as the loop
 * binds it. The rest runs once over every row's explode: one key lookup
 * over the stored table, each match kept when its row lies in that loop
 * row's window, and one aggregate row per loop row. Name resolution goes
 * through the fused plan's inlined temps (Executor::aliasesOf), and each
 * inlined temp holds the cells the loop's stored temp holds, so every
 * column, row order, NULL and checked sum is the loop's.
 */

#include <map>
#include <set>

#include "base/logging.h"
#include "engine/executor.h"
#include "engine/vec_executor.h"

namespace genesis::engine {

using sql::PlanKind;
using sql::PlanNode;
using table::DataType;
using table::Table;

/** A FOR body that runLoop() runs set-at-a-time, matched on its fusion. */
struct LoopShape {
    sql::PlanPtr fused; ///< the INSERT's scalar aggregate; owns the rest
    const sql::Statement *insert = nullptr;
    const PlanNode *explode = nullptr;
    /** The Projects and the Join above the explode, bottom-up. */
    std::vector<const PlanNode *> chain;
    const PlanNode *stored = nullptr; ///< the Join's stored-table Scan
    const PlanNode *window = nullptr; ///< its LIMIT; null: every row
    /** The body statements whose rows run the explode and the LIMIT. */
    size_t explodeAt = 0;
    size_t windowAt = 0;
};

namespace {

/** Whether `expr` reads a variable or a loop row's binding. */
bool
readsRowState(const sql::Expr &expr, const std::string &loop_var,
              const VariableEnv &env)
{
    if (expr.kind == sql::ExprKind::VarRef)
        return true;
    if (expr.kind == sql::ExprKind::ColumnRef &&
        (expr.qualifier == loop_var || env.rowBindings.count(expr.qualifier)))
        return true;
    for (const auto &arg : expr.args) {
        if (readsRowState(*arg, loop_var, env))
            return true;
    }
    return false;
}

bool
isAggregateCall(const sql::Expr &e)
{
    return e.kind == sql::ExprKind::Call && e.args.size() == 1 &&
        (e.name == "COUNT" || e.name == "SUM" || e.name == "MIN" ||
         e.name == "MAX");
}

std::optional<LoopShape>
matchLoop(const sql::Statement &loop, const VariableEnv &env)
{
    using sql::StatementKind;
    LoopShape shape;
    std::map<std::string, size_t> temps; // body temp -> its CREATE
    size_t insert_at = 0;
    for (size_t k = 0; k < loop.body.size(); ++k) {
        const sql::Statement &s = *loop.body[k];
        switch (s.kind) {
          case StatementKind::SetVar:
          case StatementKind::Declare:
            break;
          case StatementKind::CreateTableAs:
            if (!s.targetIsTemp || !temps.emplace(s.target, k).second)
                return std::nullopt;
            break;
          case StatementKind::InsertInto:
            if (shape.insert || s.targetIsTemp)
                return std::nullopt;
            shape.insert = &s;
            insert_at = k;
            break;
          default:
            return std::nullopt;
        }
    }
    if (!shape.insert)
        return std::nullopt;
    shape.fused = sql::fuseLoopBody(loop);

    auto row_state = [&](const sql::Expr &e) {
        return readsRowState(e, loop.loopVar, env);
    };
    const PlanNode &agg = *shape.fused;
    if (agg.kind != PlanKind::Aggregate || !agg.groupBy.empty())
        return std::nullopt;
    for (const auto &o : agg.outputs) {
        if (!isAggregateCall(*o.expr) || row_state(*o.expr))
            return std::nullopt;
    }

    // Walk down to the explode. Each node is evaluated by the statement
    // of its nearest inlined temp, else by the INSERT.
    size_t owner = insert_at;
    std::set<std::string> inlined;
    for (const PlanNode *node = agg.children[0].get();;) {
        if (!node->inlinedTemp.empty()) {
            auto it = temps.find(node->inlinedTemp);
            if (it == temps.end())
                return std::nullopt;
            owner = it->second;
            inlined.insert(node->inlinedTemp);
        }
        if (node->kind == PlanKind::ReadExplode) {
            const PlanNode &scan = *node->children[0];
            if (scan.kind != PlanKind::Scan ||
                scan.tableName != loop.loopVar || scan.partition ||
                loop.body[owner]->select->kind !=
                    sql::SelectKind::ReadExplode) {
                return std::nullopt;
            }
            shape.explode = node;
            shape.explodeAt = owner;
            break;
        }
        if (node->kind == PlanKind::Project) {
            for (const auto &o : node->outputs) {
                if (row_state(*o.expr))
                    return std::nullopt;
            }
        } else if (node->kind == PlanKind::Join) {
            if (shape.stored || node->joinType == sql::JoinType::Outer)
                return std::nullopt;
            for (const sql::Expr *key :
                 {node->leftKey.get(), node->rightKey.get()}) {
                if (key->kind != sql::ExprKind::ColumnRef || row_state(*key))
                    return std::nullopt;
            }
            const PlanNode *right = node->children[1].get();
            if (right->kind == PlanKind::Limit && right->inlinedTemp.empty()) {
                shape.window = right;
                shape.windowAt = owner;
                right = right->children[0].get();
            }
            if (right->kind != PlanKind::Scan || right->partition ||
                !right->inlinedTemp.empty() ||
                right->tableName == loop.loopVar ||
                env.rowBindings.count(right->tableName)) {
                return std::nullopt;
            }
            shape.stored = right;
        } else {
            return std::nullopt;
        }
        shape.chain.insert(shape.chain.begin(), node);
        node = node->children[0].get();
    }

    // Every temp feeds the INSERT, so the set run evaluates all the loop
    // evaluates; and the body reads no table it writes.
    const std::string &target = shape.insert->target;
    if (inlined.size() != temps.size() || temps.count(target) ||
        target == loop.loopTable ||
        (shape.stored && target == shape.stored->tableName)) {
        return std::nullopt;
    }
    return shape;
}

/**
 * keys[0] when `keys` hold keys[0], keys[0] + 1, ... in row order with no
 * NULL (the Figure-4 reference's positions), else nullopt. Key k is then
 * row k - keys[0] when that is below the row count, in the modulo-2^64
 * arithmetic the check uses, so the join needs no index.
 */
std::optional<uint64_t>
rowOrderBase(const ColumnChunk &keys)
{
    const uint64_t base =
        keys.ints.empty() ? 0 : static_cast<uint64_t>(keys.ints[0]);
    for (size_t r = 0; r < keys.ints.size(); ++r) {
        if (keys.nullAt(r) || static_cast<uint64_t>(keys.ints[r]) - base != r)
            return std::nullopt;
    }
    return base;
}

} // namespace

bool
VecExecutor::runLoop(const sql::Statement &loop, const Table &rows)
{
    if (rows.numRows() == 0)
        return false;
    const auto saved = exec_.env_.variables;
    try {
        std::optional<LoopShape> shape = matchLoop(loop, exec_.env_);
        if (shape) {
            std::optional<Table> out = runLoopShape(loop, *shape, rows);
            if (out) {
                exec_.storeTable(shape->insert->target, false,
                                 std::move(*out), true);
                ++exec_.setAtATimeLoops_;
                return true;
            }
        }
    } catch (const FatalError &) {
        // The loop runs row by row and raises the error where it meets it.
    }
    exec_.env_.variables = saved;
    return false;
}

std::optional<Table>
VecExecutor::runLoopShape(const sql::Statement &loop, const LoopShape &shape,
                          const Table &rows)
{
    const Table *stored = shape.stored ? storedTable(*shape.stored) : nullptr;

    // Per row, in body order: the parts that read the row or a variable.
    Batch batch;
    std::vector<size_t> ends;
    std::vector<RowWindow> windows;
    ends.reserve(rows.numRows());
    {
        Executor::LoopState state(exec_, loop.loopVar);
        for (size_t row = 0; row < rows.numRows(); ++row) {
            state.beginRow(rows, row);
            for (size_t k = 0; k < loop.body.size(); ++k) {
                const sql::Statement &stmt = *loop.body[k];
                if (stmt.kind == sql::StatementKind::SetVar ||
                    stmt.kind == sql::StatementKind::Declare) {
                    exec_.execStatement(stmt);
                }
                if (k == shape.explodeAt) {
                    exec_.readExplodeInto(*shape.explode, rows,
                                          {row, row + 1}, batch);
                }
                if (shape.window && k == shape.windowAt) {
                    windows.push_back(exec_.limitWindow(*shape.window,
                                                        stored->numRows()));
                }
            }
            ends.push_back(batch.rows);
            state.endRow();
        }
    }

    // Once over every row, each inlined temp above the explode stored and
    // read back as the loop stores it. The explode's own temp skips that:
    // readExplodeInto() fills int chunks under Int64 fields, which a table
    // stores and returns unchanged.
    for (const PlanNode *node : shape.chain) {
        if (node->kind == PlanKind::Project) {
            batch = project(*node, batch);
        } else {
            auto joined = joinWindows(*node, batch, Batch::fromTable(*stored),
                                      windows, ends);
            if (!joined)
                return std::nullopt;
            batch = std::move(*joined);
        }
        if (!node->inlinedTemp.empty()) {
            batch =
                Batch::fromTable(std::move(batch).toTable(node->inlinedTemp));
        }
    }
    return aggregateRows(*shape.fused, batch, ends);
}

std::optional<Batch>
VecExecutor::joinWindows(const PlanNode &join, const Batch &left,
                         const Batch &right,
                         const std::vector<RowWindow> &windows,
                         std::vector<size_t> &ends)
{
    const auto left_aliases = Executor::aliasesOf(*join.children[0]);
    const auto right_aliases = Executor::aliasesOf(*join.children[1]);
    const sql::Expr *lkey = nullptr;
    const sql::Expr *rkey = nullptr;
    Executor::orientJoinKeys(join, left_aliases, lkey, rkey);
    const int lcol = resolveColumnIndex(left.schema, left_aliases,
                                        lkey->qualifier, lkey->name);
    const int rcol = resolveColumnIndex(right.schema, right_aliases,
                                        rkey->qualifier, rkey->name);
    if (lcol < 0 || rcol < 0 ||
        !left.columns[static_cast<size_t>(lcol)].intMode ||
        !right.columns[static_cast<size_t>(rcol)].intMode) {
        return std::nullopt;
    }
    const ColumnChunk &lkeys = left.columns[static_cast<size_t>(lcol)];
    const ColumnChunk &rkeys = right.columns[static_cast<size_t>(rcol)];
    // Keys in row order find their row by subtraction; others go through
    // the index evalJoin() uses.
    const std::optional<uint64_t> base = rowOrderBase(rkeys);
    std::optional<IntKeyIndex> index;
    if (!base)
        index.emplace(rkeys);

    // The loop's emission order: each loop row's left rows in order, each
    // one's matches ascending, an unmatched row NULL-padded in a LEFT join.
    std::vector<ssize_t> lidx;
    std::vector<ssize_t> ridx;
    lidx.reserve(left.rows);
    ridx.reserve(left.rows);
    size_t l = 0;
    for (size_t row = 0; row < ends.size(); ++row) {
        const RowWindow w =
            windows.empty() ? RowWindow{0, right.rows} : windows[row];
        for (; l < ends[row]; ++l) {
            const size_t before = lidx.size();
            auto emit = [&](size_t r) {
                lidx.push_back(static_cast<ssize_t>(l));
                ridx.push_back(static_cast<ssize_t>(r));
            };
            if (!lkeys.nullAt(l) && base) {
                const uint64_t r = static_cast<uint64_t>(lkeys.ints[l]) - *base;
                if (r >= w.first && r < w.end)
                    emit(r);
            } else if (!lkeys.nullAt(l)) {
                for (size_t r : index->rowsOf(lkeys.ints[l], w))
                    emit(r);
            }
            if (lidx.size() == before &&
                join.joinType == sql::JoinType::Left) {
                lidx.push_back(static_cast<ssize_t>(l));
                ridx.push_back(-1);
            }
        }
        ends[row] = lidx.size();
    }
    return joinedBatch(join, left, right, lidx, ridx);
}

std::optional<Table>
VecExecutor::aggregateRows(const PlanNode &agg, const Batch &in,
                           const std::vector<size_t> &ends)
{
    // The vectorized aggregate's semantics (evalAggregate), per loop row.
    const auto aliases = Executor::aliasesOf(*agg.children[0]);
    struct Spec {
        std::string fn;
        bool star = false;
        ColumnChunk arg = ColumnChunk::makeInt();
    };
    std::vector<Spec> specs;
    Batch out;
    for (size_t i = 0; i < agg.outputs.size(); ++i) {
        const sql::Expr &e = *agg.outputs[i].expr;
        std::string name = agg.outputs[i].name;
        if (out.schema.has(name))
            name = name + "_" + std::to_string(i);
        out.schema.addField(name, DataType::Int64);
        out.columns.push_back(ColumnChunk::makeInt());
        Spec spec;
        spec.fn = e.name;
        spec.star = e.name == "COUNT" &&
            e.args[0]->kind == sql::ExprKind::Star;
        if (!spec.star && in.rows > 0) {
            spec.arg = evalExprFull(*e.args[0], in, aliases);
            if (!spec.arg.intMode)
                return std::nullopt;
        }
        specs.push_back(std::move(spec));
    }

    size_t first = 0;
    for (size_t end : ends) {
        for (size_t s = 0; s < specs.size(); ++s) {
            const Spec &spec = specs[s];
            ColumnChunk &col = out.columns[s];
            if (spec.star) {
                col.pushInt(static_cast<int64_t>(end - first));
                continue;
            }
            const bool is_sum = spec.fn == "SUM";
            int64_t count = 0, sum = 0, mn = 0, mx = 0;
            for (size_t r = first; r < end; ++r) {
                if (spec.arg.nullAt(r))
                    continue;
                const int64_t x = spec.arg.ints[r];
                if (is_sum)
                    sum = checkedArith('+', sum, x);
                if (count == 0 || x < mn)
                    mn = x;
                if (count == 0 || x > mx)
                    mx = x;
                ++count;
            }
            if (spec.fn == "COUNT")
                col.pushInt(count);
            else if (is_sum)
                col.pushInt(sum);
            else if (count == 0)
                col.pushNull();
            else
                col.pushInt(spec.fn == "MIN" ? mn : mx);
        }
        first = end;
    }
    out.rows = ends.size();
    return std::move(out).toTable("aggregate");
}

} // namespace genesis::engine
