#include "engine/vec_executor.h"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>

#include "base/logging.h"
#include "engine/executor.h"

namespace genesis::engine {

using sql::PlanKind;
using sql::PlanNode;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

namespace {

/** Resolver over one row of a Batch (same rules as TableRowResolver). */
class BatchRowResolver : public ColumnResolver
{
  public:
    BatchRowResolver(const Batch &batch,
                     std::vector<std::string> aliases)
        : batch_(batch), aliases_(std::move(aliases))
    {
    }

    void setRow(size_t row) { row_ = row; }

    std::optional<Value>
    resolve(const std::string &qualifier,
            const std::string &name) const override
    {
        int idx = resolveColumnIndex(batch_.schema, aliases_, qualifier,
                                     name);
        if (idx >= 0)
            return batch_.columns[static_cast<size_t>(idx)].valueAt(row_);
        return std::nullopt;
    }

  private:
    const Batch &batch_;
    std::vector<std::string> aliases_;
    size_t row_ = 0;
};

/** Broadcast one integer (or NULL) value to a count-row chunk. */
ColumnChunk
broadcastInt(const Value &v, size_t count)
{
    ColumnChunk out = ColumnChunk::makeInt();
    if (v.isNull()) {
        out.ints.assign(count, 0);
        out.nulls.assign(count, true);
    } else {
        out.ints.assign(count, v.asInt());
    }
    return out;
}

bool
fastBinaryOp(const std::string &op)
{
    return op == "AND" || op == "OR" || op == "==" || op == "!=" ||
        op == "<" || op == ">" || op == "<=" || op == ">=" ||
        op == "+" || op == "-" || op == "*" || op == "/" || op == "%";
}

const char *
resultName(PlanKind kind)
{
    switch (kind) {
      case PlanKind::Scan:
        return "scan";
      case PlanKind::Project:
        return "project";
      case PlanKind::Filter:
        return "filter";
      case PlanKind::Join:
        return "join";
      case PlanKind::Aggregate:
        return "aggregate";
      case PlanKind::Limit:
        return "limit";
      case PlanKind::PosExplode:
        return "posexplode";
      case PlanKind::ReadExplode:
        return "readexplode";
    }
    panic("unhandled plan kind");
}

} // namespace

Table
VecExecutor::run(const PlanNode &plan)
{
    // A bare scan keeps the source table's name, like the row path.
    if (plan.kind == PlanKind::Scan)
        return exec_.execScan(plan);
    return evalPlan(plan).toTable(resultName(plan.kind));
}

Batch
VecExecutor::evalPlan(const PlanNode &plan)
{
    switch (plan.kind) {
      case PlanKind::Scan:
        return evalScan(plan);
      case PlanKind::Project:
        return evalProject(plan);
      case PlanKind::Filter:
        return evalFilter(plan);
      case PlanKind::Join:
        return evalJoin(plan);
      case PlanKind::Aggregate:
        return evalAggregate(plan);
      case PlanKind::Limit:
        return evalLimit(plan);
      case PlanKind::PosExplode:
      case PlanKind::ReadExplode: {
        // Both engines share one explode over a table: a stored one is
        // read in place, anything else is materialized first.
        const PlanNode &child = *plan.children[0];
        const Table *in =
            child.kind == PlanKind::Scan ? storedTable(child) : nullptr;
        std::optional<Table> owned;
        if (!in) {
            owned = child.kind == PlanKind::Scan
                ? exec_.execScan(child)
                : evalPlan(child).toTable("input");
            in = &*owned;
        }
        return plan.kind == PlanKind::PosExplode
            ? exec_.posExplode(plan, *in)
            : exec_.readExplode(plan, *in);
      }
    }
    panic("unhandled plan kind");
}

const Table *
VecExecutor::storedTable(const PlanNode &scan)
{
    if (exec_.env_.rowBindings.count(scan.tableName) || scan.partition)
        return nullptr;
    const Table *t = exec_.lookupTable(scan.tableName);
    if (!t)
        fatal("unknown table '%s'", scan.tableName.c_str());
    return t;
}

Batch
VecExecutor::evalScan(const PlanNode &plan)
{
    if (const Table *t = storedTable(plan))
        return Batch::fromTable(*t);
    return Batch::fromTable(exec_.execScan(plan));
}

ColumnChunk
VecExecutor::evalExprBatch(const sql::Expr &expr, const Batch &in,
                           size_t first, size_t count,
                           const std::vector<std::string> &aliases)
{
    if (auto fast = tryFastExpr(expr, in, first, count, aliases))
        return std::move(*fast);

    // Boxed fallback: per-row evaluation with the exact row semantics.
    ColumnChunk out = ColumnChunk::makeBoxed();
    out.boxed.reserve(count);
    BatchRowResolver resolver(in, aliases);
    for (size_t i = 0; i < count; ++i) {
        resolver.setRow(first + i);
        out.boxed.push_back(evalExpr(expr, &resolver, exec_.env_));
    }
    return out;
}

std::optional<ColumnChunk>
VecExecutor::tryFastExpr(const sql::Expr &expr, const Batch &in,
                         size_t first, size_t count,
                         const std::vector<std::string> &aliases)
{
    using sql::ExprKind;
    switch (expr.kind) {
      case ExprKind::Literal:
        if (!expr.literal.isNull() && !expr.literal.isInt())
            return std::nullopt;
        return broadcastInt(expr.literal, count);
      case ExprKind::VarRef: {
        const Value &v = exec_.env_.variable(expr.name);
        if (!v.isNull() && !v.isInt())
            return std::nullopt;
        return broadcastInt(v, count);
      }
      case ExprKind::ColumnRef: {
        // A qualifier naming a loop-row binding wins over columns,
        // exactly as in evalExpr().
        auto rb = exec_.env_.rowBindings.find(expr.qualifier);
        if (rb != exec_.env_.rowBindings.end()) {
            const auto &binding = rb->second;
            int idx = binding.table->schema().indexOf(expr.name);
            if (idx < 0) {
                fatal("loop row '%s' has no column '%s'",
                      expr.qualifier.c_str(), expr.name.c_str());
            }
            Value v = binding.table->at(binding.row,
                                        static_cast<size_t>(idx));
            if (!v.isNull() && !v.isInt())
                return std::nullopt;
            return broadcastInt(v, count);
        }
        int idx = resolveColumnIndex(in.schema, aliases, expr.qualifier,
                                     expr.name);
        if (idx < 0 || !in.columns[static_cast<size_t>(idx)].intMode)
            return std::nullopt;
        const ColumnChunk &src = in.columns[static_cast<size_t>(idx)];
        ColumnChunk out = ColumnChunk::makeInt();
        out.ints.assign(src.ints.begin() + first,
                        src.ints.begin() + first + count);
        if (!src.nulls.empty()) {
            out.nulls.assign(src.nulls.begin() + first,
                             src.nulls.begin() + first + count);
        }
        return out;
      }
      case ExprKind::Unary: {
        if (expr.op != "NOT" && expr.op != "-")
            return std::nullopt;
        auto child = tryFastExpr(*expr.args[0], in, first, count,
                                 aliases);
        if (!child)
            return std::nullopt;
        ColumnChunk out = ColumnChunk::makeInt();
        for (size_t i = 0; i < count; ++i) {
            if (child->nullAt(i))
                out.pushNull();
            else if (expr.op == "NOT")
                out.pushInt(child->ints[i] != 0 ? 0 : 1);
            else
                out.pushInt(checkedArith('-', 0, child->ints[i]));
        }
        return out;
      }
      case ExprKind::Binary: {
        if (!fastBinaryOp(expr.op))
            return std::nullopt;
        auto l = tryFastExpr(*expr.args[0], in, first, count, aliases);
        if (!l)
            return std::nullopt;
        auto r = tryFastExpr(*expr.args[1], in, first, count, aliases);
        if (!r)
            return std::nullopt;
        ColumnChunk out = ColumnChunk::makeInt();
        out.ints.reserve(count);
        const std::string &op = expr.op;
        for (size_t i = 0; i < count; ++i) {
            bool ln = l->nullAt(i);
            bool rn = r->nullAt(i);
            int64_t a = l->ints[i];
            int64_t b = r->ints[i];
            // Same semantics as evalBinary(): AND/OR treat NULL as
            // false and never yield NULL; everything else propagates
            // NULL operands.
            if (op == "AND") {
                out.pushInt((!ln && a != 0) && (!rn && b != 0));
                continue;
            }
            if (op == "OR") {
                out.pushInt((!ln && a != 0) || (!rn && b != 0));
                continue;
            }
            if (ln || rn) {
                out.pushNull();
                continue;
            }
            if (op == "==")
                out.pushInt(a == b);
            else if (op == "!=")
                out.pushInt(a != b);
            else if (op == "<")
                out.pushInt(a < b);
            else if (op == ">")
                out.pushInt(a > b);
            else if (op == "<=")
                out.pushInt(a <= b);
            else if (op == ">=")
                out.pushInt(a >= b);
            else
                out.pushInt(checkedArith(op[0], a, b));
        }
        return out;
      }
      default:
        return std::nullopt;
    }
}

ColumnChunk
VecExecutor::evalExprFull(const sql::Expr &expr, const Batch &in,
                          const std::vector<std::string> &aliases)
{
    ColumnChunk out;
    bool started = false;
    for (size_t first = 0; first < in.rows; first += kBatchRows) {
        size_t count = std::min(kBatchRows, in.rows - first);
        ColumnChunk slice = evalExprBatch(expr, in, first, count,
                                          aliases);
        if (!started) {
            out = std::move(slice);
            started = true;
        } else {
            out.appendChunk(slice);
        }
    }
    return out;
}

Batch
VecExecutor::evalFilter(const PlanNode &plan)
{
    Batch in = evalPlan(*plan.children[0]);
    auto aliases = Executor::aliasesOf(*plan.children[0]);

    Batch out = Batch::emptyLike(in);
    std::vector<size_t> sel;
    for (size_t first = 0; first < in.rows; first += kBatchRows) {
        size_t count = std::min(kBatchRows, in.rows - first);
        ColumnChunk keep = evalExprBatch(*plan.predicate, in, first,
                                         count, aliases);
        sel.clear();
        for (size_t i = 0; i < count; ++i) {
            if (keep.truthyAt(i))
                sel.push_back(first + i);
        }
        for (size_t c = 0; c < in.columns.size(); ++c)
            out.columns[c].gather(in.columns[c], sel);
        out.rows += sel.size();
    }
    return out;
}

Batch
VecExecutor::evalProject(const PlanNode &plan)
{
    Batch in = evalPlan(*plan.children[0]);
    auto aliases = Executor::aliasesOf(*plan.children[0]);

    Batch out;
    for (size_t i = 0; i < plan.outputs.size(); ++i) {
        std::string name = plan.outputs[i].name;
        if (out.schema.has(name))
            name = plan.outputs[i].expr->str();
        out.schema.addField(
            name, exec_.inferType(*plan.outputs[i].expr, in.schema));
    }
    for (size_t first = 0; first < in.rows; first += kBatchRows) {
        size_t count = std::min(kBatchRows, in.rows - first);
        for (size_t i = 0; i < plan.outputs.size(); ++i) {
            ColumnChunk chunk = evalExprBatch(*plan.outputs[i].expr, in,
                                              first, count, aliases);
            if (out.columns.size() <= i)
                out.columns.push_back(std::move(chunk));
            else
                out.columns[i].appendChunk(chunk);
        }
        out.rows += count;
    }
    // Zero input rows: still materialize one (empty) chunk per output.
    while (out.columns.size() < plan.outputs.size())
        out.columns.push_back(ColumnChunk::makeBoxed());
    return out;
}

Batch
VecExecutor::evalJoin(const PlanNode &plan)
{
    Batch left = evalPlan(*plan.children[0]);
    Batch right = evalPlan(*plan.children[1]);
    auto left_aliases = Executor::aliasesOf(*plan.children[0]);
    auto right_aliases = Executor::aliasesOf(*plan.children[1]);

    const sql::Expr *lkey = nullptr;
    const sql::Expr *rkey = nullptr;
    Executor::orientJoinKeys(plan, left_aliases, lkey, rkey);

    ColumnChunk lkeys = evalExprFull(*lkey, left, left_aliases);
    ColumnChunk rkeys = evalExprFull(*rkey, right, right_aliases);

    // Emission replicates the row engine exactly for every strategy:
    // left-major, matches in right-ascending order, unmatched-left in
    // place, unmatched-right trailing. A hash index whose per-key lists
    // are built in right-row order produces that same sequence, so the
    // NestedLoop strategy also takes this path.
    std::vector<ssize_t> lidx;
    std::vector<ssize_t> ridx;
    std::vector<bool> right_matched(right.rows, false);

    auto emit = [&](ssize_t l, ssize_t r) {
        lidx.push_back(l);
        ridx.push_back(r);
        if (r >= 0)
            right_matched[static_cast<size_t>(r)] = true;
    };

    // matches_of(l) is left row l's right rows, ascending; empty when
    // none match.
    auto probe_all = [&](auto &&matches_of) {
        for (size_t l = 0; l < left.rows; ++l) {
            std::span<const size_t> matches;
            if (!lkeys.nullAt(l))
                matches = matches_of(l);
            for (size_t r : matches)
                emit(static_cast<ssize_t>(l), static_cast<ssize_t>(r));
            if (matches.empty() && plan.joinType != sql::JoinType::Inner)
                emit(static_cast<ssize_t>(l), -1);
        }
    };

    if (lkeys.intMode && rkeys.intMode) {
        // Key -> group, then every group's right rows in one array in
        // right-row order (a counting sort), group g at [start[g],
        // start[g + 1]).
        std::unordered_map<int64_t, size_t> group_of;
        group_of.reserve(right.rows);
        std::vector<size_t> group(right.rows);
        std::vector<size_t> start;
        for (size_t r = 0; r < right.rows; ++r) {
            if (rkeys.nullAt(r))
                continue;
            auto [it, inserted] =
                group_of.try_emplace(rkeys.ints[r], start.size());
            if (inserted)
                start.push_back(0);
            group[r] = it->second;
            ++start[it->second];
        }
        size_t total = 0;
        for (size_t &s : start)
            total += std::exchange(s, total);
        start.push_back(total);
        std::vector<size_t> rows(total);
        std::vector<size_t> fill(start.begin(), start.end() - 1);
        for (size_t r = 0; r < right.rows; ++r) {
            if (!rkeys.nullAt(r))
                rows[fill[group[r]]++] = r;
        }
        probe_all([&](size_t l) -> std::span<const size_t> {
            auto it = group_of.find(lkeys.ints[l]);
            if (it == group_of.end())
                return {};
            return std::span<const size_t>(rows).subspan(
                start[it->second],
                start[it->second + 1] - start[it->second]);
        });
    } else {
        std::map<Value, std::vector<size_t>> index;
        for (size_t r = 0; r < right.rows; ++r) {
            if (!rkeys.nullAt(r))
                index[rkeys.valueAt(r)].push_back(r);
        }
        probe_all([&](size_t l) -> std::span<const size_t> {
            auto it = index.find(lkeys.valueAt(l));
            if (it == index.end())
                return {};
            return it->second;
        });
    }
    if (plan.joinType == sql::JoinType::Outer) {
        for (size_t r = 0; r < right.rows; ++r) {
            if (!right_matched[r])
                emit(-1, static_cast<ssize_t>(r));
        }
    }

    Batch out;
    out.schema = Executor::joinSchema(
        left.schema, right.schema,
        exec_.sidePrefixes(*plan.children[0], left.schema, "L"),
        exec_.sidePrefixes(*plan.children[1], right.schema, "R"));
    out.rows = lidx.size();
    out.columns.reserve(left.columns.size() + right.columns.size());
    for (const auto &src : left.columns) {
        ColumnChunk c = src.intMode ? ColumnChunk::makeInt()
                                    : ColumnChunk::makeBoxed();
        c.gatherPadded(src, lidx);
        out.columns.push_back(std::move(c));
    }
    for (const auto &src : right.columns) {
        ColumnChunk c = src.intMode ? ColumnChunk::makeInt()
                                    : ColumnChunk::makeBoxed();
        c.gatherPadded(src, ridx);
        out.columns.push_back(std::move(c));
    }
    return out;
}

Batch
VecExecutor::evalAggregate(const PlanNode &plan)
{
    Batch in = evalPlan(*plan.children[0]);
    auto aliases = Executor::aliasesOf(*plan.children[0]);

    // The fast path streams integer group keys and aggregates over
    // integer expressions; anything else (string keys, expression keys,
    // mixed aggregate arithmetic) falls back to the row aggregate over
    // the batch.
    struct OutSpec {
        enum Kind { First, CountStar, Count, Sum, Min, Max } kind;
        int col = -1;                     // First: the input column
        const ColumnChunk *arg = nullptr; // Count / Sum / Min / Max
    };

    auto resolveIntCol = [&](const sql::Expr &e, bool require_int) {
        if (e.kind != sql::ExprKind::ColumnRef)
            return -1;
        if (exec_.env_.rowBindings.count(e.qualifier))
            return -1; // binding-backed: defer to the row engine
        int idx = resolveColumnIndex(in.schema, aliases, e.qualifier,
                                     e.name);
        if (idx < 0)
            return -1;
        if (require_int && !in.columns[static_cast<size_t>(idx)].intMode)
            return -1;
        return idx;
    };

    // An aggregate's argument cells: a bare int column in place, any
    // other expression evaluated over every row here, never into the
    // fallback's input. Evaluation can fail (overflow, a zero divisor);
    // the row aggregate then raises the error it meets first.
    std::vector<ColumnChunk> computed;
    computed.reserve(plan.outputs.size());
    auto intArg = [&](const sql::Expr &e) -> const ColumnChunk * {
        int idx = resolveIntCol(e, /*require_int=*/true);
        if (idx >= 0)
            return &in.columns[static_cast<size_t>(idx)];
        if (in.rows == 0) // no row to evaluate: nothing can differ
            return &computed.emplace_back(ColumnChunk::makeInt());
        ColumnChunk chunk;
        try {
            chunk = evalExprFull(e, in, aliases);
        } catch (const FatalError &) {
            return nullptr;
        }
        if (!chunk.intMode)
            return nullptr;
        return &computed.emplace_back(std::move(chunk));
    };

    bool fast = true;
    std::vector<size_t> key_cols;
    for (const auto &g : plan.groupBy) {
        int idx = resolveIntCol(*g, /*require_int=*/true);
        if (idx < 0) {
            fast = false;
            break;
        }
        key_cols.push_back(static_cast<size_t>(idx));
    }
    std::vector<OutSpec> specs;
    if (fast) {
        for (const auto &o : plan.outputs) {
            const sql::Expr &e = *o.expr;
            if (e.kind == sql::ExprKind::ColumnRef) {
                // Grouping expression: the row engine reads it off the
                // group's first row, which any resolvable column can do.
                int idx = resolveIntCol(e, /*require_int=*/false);
                if (idx < 0) {
                    fast = false;
                    break;
                }
                specs.push_back({OutSpec::First, idx, nullptr});
                continue;
            }
            if (e.kind == sql::ExprKind::Call) {
                if (e.name == "COUNT" && e.args.size() == 1 &&
                    e.args[0]->kind == sql::ExprKind::Star) {
                    specs.push_back({OutSpec::CountStar, -1, nullptr});
                    continue;
                }
                OutSpec::Kind kind;
                if (e.name == "COUNT")
                    kind = OutSpec::Count;
                else if (e.name == "SUM")
                    kind = OutSpec::Sum;
                else if (e.name == "MIN")
                    kind = OutSpec::Min;
                else if (e.name == "MAX")
                    kind = OutSpec::Max;
                else {
                    fast = false;
                    break;
                }
                if (e.args.size() != 1) {
                    fast = false;
                    break;
                }
                const ColumnChunk *arg = intArg(*e.args[0]);
                if (!arg) {
                    fast = false;
                    break;
                }
                specs.push_back({kind, -1, arg});
                continue;
            }
            fast = false;
            break;
        }
    }
    if (!fast) {
        Table t = std::move(in).toTable("input");
        return Batch::fromTable(exec_.execAggregateOn(plan, t));
    }

    struct Acc {
        int64_t count = 0;
        int64_t sum = 0;
        int64_t mn = 0;
        int64_t mx = 0;
        bool any = false;
    };
    struct Group {
        size_t firstRow = 0;
        int64_t rowCount = 0;
        std::vector<Acc> accs;
    };
    // Key cells encode as (present, value) pairs, which order exactly
    // like the row engine's std::map<std::vector<Value>> (NULL first,
    // then integers ascending).
    using GroupKey = std::vector<std::pair<int, int64_t>>;
    std::map<GroupKey, Group> groups;

    GroupKey key(key_cols.size());
    for (size_t r = 0; r < in.rows; ++r) {
        for (size_t k = 0; k < key_cols.size(); ++k) {
            const ColumnChunk &c = in.columns[key_cols[k]];
            key[k] = c.nullAt(r) ? std::make_pair(0, int64_t{0})
                                 : std::make_pair(1, c.ints[r]);
        }
        auto [it, inserted] = groups.try_emplace(key);
        Group &g = it->second;
        if (inserted) {
            g.firstRow = r;
            g.accs.resize(specs.size());
        }
        ++g.rowCount;
        for (size_t s = 0; s < specs.size(); ++s) {
            const OutSpec &spec = specs[s];
            if (spec.kind == OutSpec::First ||
                spec.kind == OutSpec::CountStar) {
                continue;
            }
            const ColumnChunk &c = *spec.arg;
            if (c.nullAt(r))
                continue;
            int64_t x = c.ints[r];
            Acc &a = g.accs[s];
            ++a.count;
            if (spec.kind == OutSpec::Sum)
                a.sum = checkedArith('+', a.sum, x);
            if (!a.any || x < a.mn)
                a.mn = x;
            if (!a.any || x > a.mx)
                a.mx = x;
            a.any = true;
        }
    }
    if (plan.groupBy.empty() && groups.empty()) {
        Group &g = groups[{}]; // global aggregate over zero rows
        g.accs.resize(specs.size());
        g.rowCount = 0;
    }

    Batch out;
    for (size_t i = 0; i < plan.outputs.size(); ++i) {
        std::string name = plan.outputs[i].name;
        if (out.schema.has(name))
            name = name + "_" + std::to_string(i);
        DataType type = sql::containsAggregate(*plan.outputs[i].expr)
            ? DataType::Int64
            : exec_.inferType(*plan.outputs[i].expr, in.schema);
        out.schema.addField(name, type);
    }
    for (const auto &spec : specs) {
        bool boxed_first = spec.kind == OutSpec::First &&
            !in.columns[static_cast<size_t>(spec.col)].intMode;
        out.columns.push_back(boxed_first ? ColumnChunk::makeBoxed()
                                          : ColumnChunk::makeInt());
    }
    for (const auto &[k, g] : groups) {
        for (size_t s = 0; s < specs.size(); ++s) {
            const OutSpec &spec = specs[s];
            ColumnChunk &col = out.columns[s];
            const Acc &a = g.accs[s];
            switch (spec.kind) {
              case OutSpec::First:
                if (g.rowCount == 0) {
                    col.pushNull();
                } else {
                    col.pushValue(
                        in.columns[static_cast<size_t>(spec.col)]
                            .valueAt(g.firstRow));
                }
                break;
              case OutSpec::CountStar:
                col.pushInt(g.rowCount);
                break;
              case OutSpec::Count:
                col.pushInt(a.count);
                break;
              case OutSpec::Sum:
                col.pushInt(a.sum);
                break;
              case OutSpec::Min:
              case OutSpec::Max:
                if (!a.any)
                    col.pushNull();
                else
                    col.pushInt(spec.kind == OutSpec::Min ? a.mn
                                                          : a.mx);
                break;
            }
        }
        ++out.rows;
    }
    return out;
}

Batch
VecExecutor::evalLimit(const PlanNode &plan)
{
    // LIMIT straight over a stored table converts only its window (the
    // Figure-4 loop's per-read reference slice). It stops at a bare
    // Scan: a Project or Filter between them evaluates every input row
    // and must fail on a row outside the window as the row engine does.
    const PlanNode &child = *plan.children[0];
    if (child.kind == PlanKind::Scan) {
        if (const Table *t = storedTable(child)) {
            const RowWindow w = exec_.limitWindow(plan, t->numRows());
            return Batch::fromTable(*t, w.first, w.end - w.first);
        }
    }

    Batch in = evalPlan(child);
    const RowWindow w = exec_.limitWindow(plan, in.rows);
    std::vector<size_t> sel;
    for (size_t r = w.first; r < w.end; ++r)
        sel.push_back(r);

    Batch out = Batch::emptyLike(in);
    for (size_t c = 0; c < in.columns.size(); ++c)
        out.columns[c].gather(in.columns[c], sel);
    out.rows = sel.size();
    return out;
}

} // namespace genesis::engine
