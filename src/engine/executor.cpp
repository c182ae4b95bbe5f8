#include "engine/executor.h"

#include <algorithm>

#include "base/logging.h"
#include "engine/vec_executor.h"
#include "genome/cigar.h"
#include "sql/parser.h"

namespace genesis::engine {

using sql::PlanKind;
using sql::PlanNode;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

// --- Catalog -----------------------------------------------------------

void
Catalog::put(const std::string &name, Table t)
{
    t.setName(name);
    tables_.insert_or_assign(name, std::move(t));
    statsCache_.erase(name);
}

const Table *
Catalog::find(const std::string &name) const
{
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
}

void
Catalog::putPartition(const std::string &name, int64_t pid, Table t)
{
    partitions_.insert_or_assign({name, pid}, std::move(t));
}

const Table *
Catalog::findPartition(const std::string &name, int64_t pid) const
{
    auto it = partitions_.find({name, pid});
    return it == partitions_.end() ? nullptr : &it->second;
}

void
Catalog::append(const std::string &name, const Table &rows)
{
    auto it = tables_.find(name);
    if (it == tables_.end())
        fatal("INSERT INTO unknown table '%s'", name.c_str());
    it->second.appendRows(rows);
    statsCache_.erase(name);
}

void
Catalog::erase(const std::string &name)
{
    tables_.erase(name);
    statsCache_.erase(name);
}

const table::TableStats *
Catalog::stats(const std::string &name) const
{
    auto cached = statsCache_.find(name);
    if (cached != statsCache_.end())
        return &cached->second;
    auto it = tables_.find(name);
    if (it == tables_.end())
        return nullptr;
    auto [ins, inserted] =
        statsCache_.emplace(name, table::collectTableStats(it->second));
    return &ins->second;
}

std::vector<std::string>
Catalog::tableNames() const
{
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto &[name, t] : tables_)
        names.push_back(name);
    return names;
}

// --- Executor ----------------------------------------------------------

Executor::Executor(Catalog &catalog, ExecConfig config)
    : catalog_(catalog), config_(config)
{
}

sql::StatsProvider
Executor::statsProvider()
{
    return [this](const std::string &name) -> const table::TableStats * {
        for (auto it = tempScopes_.rbegin(); it != tempScopes_.rend();
             ++it) {
            auto found = it->find(name);
            if (found == it->end())
                continue;
            auto cached = tempStatsCache_.find(name);
            if (cached == tempStatsCache_.end()) {
                cached = tempStatsCache_
                    .emplace(name,
                             table::collectTableStats(found->second))
                    .first;
            }
            return &cached->second;
        }
        return catalog_.stats(name);
    };
}

void
Executor::registerCustomOp(const std::string &name, CustomOp op)
{
    customOps_[name] = std::move(op);
}

const Table *
Executor::lookupTable(const std::string &name) const
{
    for (auto it = tempScopes_.rbegin(); it != tempScopes_.rend(); ++it) {
        auto found = it->find(name);
        if (found != it->end())
            return &found->second;
    }
    return catalog_.find(name);
}

void
Executor::storeTable(const std::string &name, bool is_temp, Table t,
                     bool append)
{
    tempStatsCache_.erase(name);
    t.setName(name);
    if (append) {
        // INSERT INTO an existing table appends rows in place; creates
        // otherwise.
        for (auto it = tempScopes_.rbegin(); it != tempScopes_.rend();
             ++it) {
            auto found = it->find(name);
            if (found == it->end())
                continue;
            found->second.appendRows(t);
            return;
        }
        if (!is_temp && catalog_.find(name)) {
            catalog_.append(name, t);
            return;
        }
    }
    if (is_temp) {
        if (tempScopes_.empty())
            tempScopes_.emplace_back();
        tempScopes_.back().insert_or_assign(name, std::move(t));
    } else {
        catalog_.put(name, std::move(t));
    }
}

std::optional<Table>
Executor::run(const std::string &sql_text)
{
    sql::Script script = sql::parseScript(sql_text);
    return runScript(script);
}

std::optional<Table>
Executor::runScript(const sql::Script &script)
{
    std::optional<Table> last;
    for (const auto &stmt : script.statements) {
        auto result = execStatement(*stmt);
        if (result)
            last = std::move(result);
    }
    return last;
}

std::optional<Table>
Executor::execStatement(const sql::Statement &stmt)
{
    using sql::StatementKind;
    switch (stmt.kind) {
      case StatementKind::CreateTableAs: {
        Table t = runSelect(*stmt.select);
        storeTable(stmt.target, stmt.targetIsTemp, std::move(t), false);
        return std::nullopt;
      }
      case StatementKind::InsertInto: {
        Table t = runSelect(*stmt.select);
        storeTable(stmt.target, stmt.targetIsTemp, std::move(t), true);
        return std::nullopt;
      }
      case StatementKind::Declare:
        env_.variables[stmt.target] = Value();
        return std::nullopt;
      case StatementKind::SetVar: {
        if (env_.variables.find(stmt.target) == env_.variables.end())
            fatal("SET of undeclared variable @%s", stmt.target.c_str());
        env_.variables[stmt.target] = evalConstExpr(*stmt.value, env_);
        return std::nullopt;
      }
      case StatementKind::ForLoop:
        return execForLoop(stmt);
      case StatementKind::Exec: {
        auto it = customOps_.find(stmt.moduleName);
        if (it == customOps_.end())
            fatal("EXEC of unregistered module '%s'",
                  stmt.moduleName.c_str());
        std::vector<const Table *> inputs;
        for (const auto &[input_name, table_name] : stmt.execInputs) {
            const Table *t = lookupTable(table_name);
            if (!t) {
                fatal("EXEC %s: unknown input table '%s' for stream %s",
                      stmt.moduleName.c_str(), table_name.c_str(),
                      input_name.c_str());
            }
            inputs.push_back(t);
        }
        Table result = it->second(inputs);
        if (!stmt.target.empty()) {
            storeTable(stmt.target, stmt.targetIsTemp, std::move(result),
                       false);
            return std::nullopt;
        }
        return result;
      }
      case StatementKind::BareSelect:
        return runSelect(*stmt.select);
    }
    panic("unhandled statement kind");
}

Executor::LoopState::LoopState(Executor &exec, const std::string &var)
    : exec_(exec), var_(var), outerPlans_(exec.loopPlans_)
{
    exec_.loopPlans_ = &plans_;
    auto outer = exec_.env_.rowBindings.find(var_);
    if (outer != exec_.env_.rowBindings.end())
        outerBinding_ = outer->second;
}

Executor::LoopState::~LoopState()
{
    endRow();
    exec_.loopPlans_ = outerPlans_;
}

void
Executor::LoopState::beginRow(const Table &table, size_t row)
{
    exec_.tempScopes_.emplace_back();
    inRow_ = true;
    exec_.env_.rowBindings[var_] = {&table, row};
}

void
Executor::LoopState::endRow()
{
    if (!inRow_)
        return;
    inRow_ = false;
    if (outerBinding_)
        exec_.env_.rowBindings[var_] = *outerBinding_;
    else
        exec_.env_.rowBindings.erase(var_);
    exec_.tempScopes_.pop_back();
    // Names of the popped scope may shadow others; drop the whole
    // temp-stats cache rather than track shadowing.
    exec_.tempStatsCache_.clear();
}

std::optional<Table>
Executor::execForLoop(const sql::Statement &stmt)
{
    const Table *source = lookupTable(stmt.loopTable);
    if (!source)
        fatal("FOR loop over unknown table '%s'", stmt.loopTable.c_str());
    // The loop table may be replaced inside the body; iterate a copy.
    Table snapshot = *source;
    if (config_.vectorize && VecExecutor(*this).runLoop(stmt, snapshot))
        return std::nullopt;
    std::optional<Table> last;
    LoopState loop(*this, stmt.loopVar);
    for (size_t row = 0; row < snapshot.numRows(); ++row) {
        loop.beginRow(snapshot, row);
        for (const auto &body_stmt : stmt.body) {
            auto r = execStatement(*body_stmt);
            if (r)
                last = std::move(r);
        }
        loop.endRow();
    }
    return last;
}

Table
Executor::runSelect(const sql::SelectStmt &select)
{
    // Results never depend on the plan, so one prepared from the first
    // row's stats is right for every row of the loop.
    sql::PlanPtr prepared;
    sql::PlanPtr &plan = loopPlans_ ? (*loopPlans_)[&select] : prepared;
    if (!plan) {
        plan = sql::planSelect(select);
        if (config_.optimize) {
            sql::OptimizerOptions opts;
            opts.ruleMask = config_.ruleMask;
            opts.stats = statsProvider();
            plan = sql::optimizePlan(std::move(plan), opts);
        }
    }
    return runPlan(*plan);
}

Table
Executor::runPlan(const PlanNode &plan)
{
    if (config_.vectorize) {
        VecExecutor vec(*this);
        return vec.run(plan);
    }
    return runRowPlan(plan);
}

Table
Executor::runRowPlan(const PlanNode &plan)
{
    switch (plan.kind) {
      case PlanKind::Scan:
        return execScan(plan);
      case PlanKind::Project:
        return execProjectOn(plan, runRowPlan(*plan.children[0]));
      case PlanKind::Filter:
        return execFilterOn(plan, runRowPlan(*plan.children[0]));
      case PlanKind::Join:
        return execJoinOn(plan, runRowPlan(*plan.children[0]),
                          runRowPlan(*plan.children[1]));
      case PlanKind::Aggregate:
        return execAggregateOn(plan, runRowPlan(*plan.children[0]));
      case PlanKind::Limit:
        return execLimitOn(plan, runRowPlan(*plan.children[0]));
      case PlanKind::PosExplode:
        return posExplode(plan, runRowPlan(*plan.children[0]))
            .toTable("posexplode");
      case PlanKind::ReadExplode:
        return readExplode(plan, runRowPlan(*plan.children[0]))
            .toTable("readexplode");
    }
    panic("unhandled plan kind");
}

std::vector<std::string>
Executor::aliasesOf(const PlanNode &plan)
{
    std::vector<std::string> aliases;
    if (!plan.alias.empty())
        aliases.push_back(plan.alias);
    if (plan.kind == PlanKind::Scan || !plan.inlinedTemp.empty()) {
        const std::string &name =
            plan.inlinedTemp.empty() ? plan.tableName : plan.inlinedTemp;
        if (name != plan.alias)
            aliases.push_back(name);
        return aliases;
    }
    for (const auto &child : plan.children) {
        for (auto &a : aliasesOf(*child)) {
            if (std::find(aliases.begin(), aliases.end(), a) ==
                aliases.end()) {
                aliases.push_back(a);
            }
        }
    }
    return aliases;
}

table::DataType
Executor::inferType(const sql::Expr &expr, const Schema &input) const
{
    if (expr.kind == sql::ExprKind::ColumnRef) {
        // Qualified spelling first, matching resolveColumnIndex().
        int idx = -1;
        if (!expr.qualifier.empty())
            idx = input.indexOf(expr.qualifier + "." + expr.name);
        if (idx < 0)
            idx = input.indexOf(expr.name);
        if (idx >= 0)
            return input.field(static_cast<size_t>(idx)).type;
    }
    if (expr.kind == sql::ExprKind::Literal && expr.literal.isString())
        return DataType::String;
    return DataType::Int64;
}

Table
Executor::execScan(const PlanNode &plan)
{
    // A loop variable used as a table reference (the paper's
    // "ReadExplode(...) FROM SingleRead") scans as a one-row table.
    auto rb = env_.rowBindings.find(plan.tableName);
    if (rb != env_.rowBindings.end()) {
        const auto &binding = rb->second;
        Table out = binding.table->emptyLike(plan.tableName);
        std::vector<Value> row;
        for (size_t c = 0; c < binding.table->numColumns(); ++c)
            row.push_back(binding.table->at(binding.row, c));
        out.appendRow(row);
        return out;
    }

    const Table *t = lookupTable(plan.tableName);
    if (plan.partition) {
        int64_t pid = evalConstExpr(*plan.partition, env_).asInt();
        const Table *part = catalog_.findPartition(plan.tableName, pid);
        if (part)
            return *part;
        if (!t) {
            fatal("unknown partitioned table '%s'",
                  plan.tableName.c_str());
        }
        // No registered partition: filter rows by a PID column if the
        // table carries one (the REF table does), else report misuse.
        int pid_col = t->schema().indexOf("PID");
        if (pid_col < 0) {
            fatal("table '%s' has no registered partition %lld and no "
                  "PID column", plan.tableName.c_str(),
                  static_cast<long long>(pid));
        }
        Table out = t->emptyLike(plan.tableName);
        for (size_t r = 0; r < t->numRows(); ++r) {
            if (t->at(r, static_cast<size_t>(pid_col)).asInt() != pid)
                continue;
            std::vector<Value> row;
            for (size_t c = 0; c < t->numColumns(); ++c)
                row.push_back(t->at(r, c));
            out.appendRow(row);
        }
        return out;
    }
    if (!t)
        fatal("unknown table '%s'", plan.tableName.c_str());
    return *t;
}

Table
Executor::execProjectOn(const PlanNode &plan, const Table &input)
{
    auto aliases = aliasesOf(*plan.children[0]);

    Schema schema;
    for (size_t i = 0; i < plan.outputs.size(); ++i) {
        std::string name = plan.outputs[i].name;
        if (schema.has(name))
            name = plan.outputs[i].expr->str();
        schema.addField(name,
                        inferType(*plan.outputs[i].expr, input.schema()));
    }
    Table out("project", schema);

    TableRowResolver resolver(input, aliases);
    for (size_t r = 0; r < input.numRows(); ++r) {
        resolver.setRow(r);
        std::vector<Value> row;
        row.reserve(plan.outputs.size());
        for (const auto &o : plan.outputs)
            row.push_back(evalExpr(*o.expr, &resolver, env_));
        out.appendRow(row);
    }
    return out;
}

Table
Executor::execFilterOn(const PlanNode &plan, const Table &input)
{
    auto aliases = aliasesOf(*plan.children[0]);
    Table out = input.emptyLike("filter");

    TableRowResolver resolver(input, aliases);
    for (size_t r = 0; r < input.numRows(); ++r) {
        resolver.setRow(r);
        Value keep = evalExpr(*plan.predicate, &resolver, env_);
        if (keep.isNull() || !keep.truthy())
            continue;
        std::vector<Value> row;
        for (size_t c = 0; c < input.numColumns(); ++c)
            row.push_back(input.at(r, c));
        out.appendRow(row);
    }
    return out;
}

Schema
Executor::joinSchema(const Schema &left, const Schema &right,
                     const std::vector<std::string> &lprefixes,
                     const std::vector<std::string> &rprefixes)
{
    // All left columns then all right columns; duplicate names get
    // "alias.name" spellings so they stay addressable.
    Schema schema;
    auto add_side = [&](const Schema &side,
                        const std::vector<std::string> &prefixes,
                        const Schema &other) {
        for (size_t i = 0; i < side.fields().size(); ++i) {
            const auto &f = side.fields()[i];
            std::string name = f.name;
            if (other.has(f.name) || schema.has(name))
                name = prefixes[i] + "." + f.name;
            schema.addField(name, f.type);
        }
    };
    add_side(left, lprefixes, right);
    add_side(right, rprefixes, left);
    return schema;
}

std::string
Executor::ownerQualifier(const PlanNode &plan,
                         const std::string &col) const
{
    switch (plan.kind) {
      case PlanKind::Scan: {
        const Table *t = nullptr;
        auto rb = env_.rowBindings.find(plan.tableName);
        if (rb != env_.rowBindings.end())
            t = rb->second.table;
        else
            t = lookupTable(plan.tableName);
        if (t && t->schema().has(col))
            return plan.alias.empty() ? plan.tableName : plan.alias;
        return "";
      }
      case PlanKind::Join: {
        // An inner collision was already respelled to "alias.name", so
        // a bare name lives on at most one side; both sides claiming it
        // means we cannot attribute it.
        std::string l = ownerQualifier(*plan.children[0], col);
        std::string r = ownerQualifier(*plan.children[1], col);
        if (!l.empty() && !r.empty())
            return "";
        return l.empty() ? r : l;
      }
      case PlanKind::Filter:
      case PlanKind::Limit:
        return ownerQualifier(*plan.children[0], col);
      default:
        // Projection-like nodes (Project/Aggregate/explodes) mint their
        // own output names; the subtree's primary alias covers them.
        return "";
    }
}

std::vector<std::string>
Executor::sidePrefixes(const PlanNode &side, const Schema &schema,
                       const std::string &fallback) const
{
    auto aliases = aliasesOf(side);
    const std::string &primary = aliases.empty() ? fallback : aliases[0];
    std::vector<std::string> prefixes;
    prefixes.reserve(schema.size());
    for (const auto &f : schema.fields()) {
        std::string q = ownerQualifier(side, f.name);
        prefixes.push_back(q.empty() ? primary : q);
    }
    return prefixes;
}

void
Executor::orientJoinKeys(const PlanNode &plan,
                         const std::vector<std::string> &left_aliases,
                         const sql::Expr *&lkey, const sql::Expr *&rkey)
{
    // Keys may be written either way round in ON; orient them so that
    // lkey resolves against the left child.
    lkey = plan.leftKey.get();
    rkey = plan.rightKey.get();
    auto resolves_against = [](const sql::Expr &e,
                               const std::vector<std::string> &aliases) {
        if (e.kind != sql::ExprKind::ColumnRef || e.qualifier.empty())
            return true; // unqualified: assume positional convention
        return std::find(aliases.begin(), aliases.end(), e.qualifier) !=
            aliases.end();
    };
    if (!resolves_against(*lkey, left_aliases) &&
        resolves_against(*rkey, left_aliases)) {
        std::swap(lkey, rkey);
    }
}

Table
Executor::execJoinOn(const PlanNode &plan, const Table &left,
                     const Table &right)
{
    auto left_aliases = aliasesOf(*plan.children[0]);
    auto right_aliases = aliasesOf(*plan.children[1]);

    const sql::Expr *lkey = nullptr;
    const sql::Expr *rkey = nullptr;
    orientJoinKeys(plan, left_aliases, lkey, rkey);

    Table out("join",
              joinSchema(left.schema(), right.schema(),
                         sidePrefixes(*plan.children[0], left.schema(),
                                      "L"),
                         sidePrefixes(*plan.children[1], right.schema(),
                                      "R")));

    auto emit = [&](ssize_t lrow, ssize_t rrow) {
        std::vector<Value> row;
        row.reserve(out.numColumns());
        for (size_t c = 0; c < left.numColumns(); ++c)
            row.push_back(lrow >= 0
                          ? left.at(static_cast<size_t>(lrow), c)
                          : Value());
        for (size_t c = 0; c < right.numColumns(); ++c)
            row.push_back(rrow >= 0
                          ? right.at(static_cast<size_t>(rrow), c)
                          : Value());
        out.appendRow(row);
    };

    // All strategies emit left-major: left rows ascending, each row's
    // matches in right-row-ascending order, unmatched-left rows (LEFT/
    // OUTER) in place and unmatched-right rows (OUTER) trailing. NULL
    // keys never participate — this matches the hardware Joiner, where
    // an Ins-keyed flit bypasses the comparison.
    TableRowResolver lresolver(left, left_aliases);
    TableRowResolver rresolver(right, right_aliases);
    std::vector<bool> right_matched(right.numRows(), false);

    auto evalKeys = [&](const Table &t, TableRowResolver &resolver,
                        const sql::Expr &key) {
        std::vector<Value> keys;
        keys.reserve(t.numRows());
        for (size_t r = 0; r < t.numRows(); ++r) {
            resolver.setRow(r);
            keys.push_back(evalExpr(key, &resolver, env_));
        }
        return keys;
    };

    if (plan.joinStrategy == sql::JoinStrategy::NestedLoop) {
        // The naive quadratic scan the seed planner implies.
        std::vector<Value> lkeys = evalKeys(left, lresolver, *lkey);
        std::vector<Value> rkeys = evalKeys(right, rresolver, *rkey);
        for (size_t l = 0; l < left.numRows(); ++l) {
            bool matched = false;
            if (!lkeys[l].isNull()) {
                for (size_t r = 0; r < right.numRows(); ++r) {
                    if (rkeys[r].isNull() || !(lkeys[l] == rkeys[r]))
                        continue;
                    emit(static_cast<ssize_t>(l),
                         static_cast<ssize_t>(r));
                    right_matched[r] = true;
                    matched = true;
                }
            }
            if (!matched && plan.joinType != sql::JoinType::Inner)
                emit(static_cast<ssize_t>(l), -1);
        }
    } else if (plan.buildLeft) {
        // Hash the left side, stream the right, then emit left-major.
        std::map<Value, std::vector<size_t>> left_index;
        std::vector<Value> lkeys = evalKeys(left, lresolver, *lkey);
        for (size_t l = 0; l < left.numRows(); ++l) {
            if (!lkeys[l].isNull())
                left_index[lkeys[l]].push_back(l);
        }
        std::vector<std::vector<size_t>> matches(left.numRows());
        for (size_t r = 0; r < right.numRows(); ++r) {
            rresolver.setRow(r);
            Value key = evalExpr(*rkey, &rresolver, env_);
            if (key.isNull())
                continue;
            auto it = left_index.find(key);
            if (it == left_index.end())
                continue;
            right_matched[r] = true;
            for (size_t l : it->second)
                matches[l].push_back(r);
        }
        for (size_t l = 0; l < left.numRows(); ++l) {
            if (matches[l].empty()) {
                if (plan.joinType != sql::JoinType::Inner)
                    emit(static_cast<ssize_t>(l), -1);
                continue;
            }
            for (size_t r : matches[l])
                emit(static_cast<ssize_t>(l), static_cast<ssize_t>(r));
        }
    } else {
        // Hash the right side, probe with the left.
        std::map<Value, std::vector<size_t>> right_index;
        for (size_t r = 0; r < right.numRows(); ++r) {
            rresolver.setRow(r);
            Value key = evalExpr(*rkey, &rresolver, env_);
            if (key.isNull())
                continue;
            right_index[key].push_back(r);
        }
        for (size_t l = 0; l < left.numRows(); ++l) {
            lresolver.setRow(l);
            Value key = evalExpr(*lkey, &lresolver, env_);
            bool matched = false;
            if (!key.isNull()) {
                auto it = right_index.find(key);
                if (it != right_index.end()) {
                    for (size_t r : it->second) {
                        emit(static_cast<ssize_t>(l),
                             static_cast<ssize_t>(r));
                        right_matched[r] = true;
                    }
                    matched = true;
                }
            }
            if (!matched && plan.joinType != sql::JoinType::Inner)
                emit(static_cast<ssize_t>(l), -1);
        }
    }
    if (plan.joinType == sql::JoinType::Outer) {
        for (size_t r = 0; r < right.numRows(); ++r) {
            if (!right_matched[r])
                emit(-1, static_cast<ssize_t>(r));
        }
    }
    return out;
}

Table
Executor::execAggregateOn(const PlanNode &plan, const Table &input)
{
    auto aliases = aliasesOf(*plan.children[0]);
    TableRowResolver resolver(input, aliases);

    // Group rows.
    std::map<std::vector<Value>, std::vector<size_t>> groups;
    for (size_t r = 0; r < input.numRows(); ++r) {
        resolver.setRow(r);
        std::vector<Value> key;
        key.reserve(plan.groupBy.size());
        for (const auto &g : plan.groupBy)
            key.push_back(evalExpr(*g, &resolver, env_));
        groups[std::move(key)].push_back(r);
    }
    if (plan.groupBy.empty() && groups.empty())
        groups[{}] = {}; // global aggregate over zero rows

    Schema schema;
    for (size_t i = 0; i < plan.outputs.size(); ++i) {
        std::string name = plan.outputs[i].name;
        if (schema.has(name))
            name = name + "_" + std::to_string(i);
        // Aggregates produce integers; grouping expressions keep their
        // input column type.
        DataType type = sql::containsAggregate(*plan.outputs[i].expr)
            ? DataType::Int64
            : inferType(*plan.outputs[i].expr, input.schema());
        schema.addField(name, type);
    }
    Table out("aggregate", schema);

    // Recursive aggregate-aware evaluation over one group.
    std::function<Value(const sql::Expr &, const std::vector<size_t> &)>
    eval_agg = [&](const sql::Expr &expr,
                   const std::vector<size_t> &rows) -> Value {
        if (expr.kind == sql::ExprKind::Call) {
            const std::string &fn = expr.name;
            bool is_agg = fn == "COUNT" || fn == "SUM" || fn == "MIN" ||
                fn == "MAX";
            if (is_agg) {
                if (fn == "COUNT" && expr.args.size() == 1 &&
                    expr.args[0]->kind == sql::ExprKind::Star) {
                    return Value(static_cast<int64_t>(rows.size()));
                }
                if (expr.args.size() != 1)
                    fatal("%s takes one argument", fn.c_str());
                const bool is_sum = fn == "SUM";
                int64_t count = 0;
                int64_t sum = 0;
                bool any = false;
                int64_t mn = 0, mx = 0;
                for (size_t r : rows) {
                    resolver.setRow(r);
                    Value v = evalExpr(*expr.args[0], &resolver, env_);
                    if (v.isNull())
                        continue;
                    int64_t x = v.asInt();
                    ++count;
                    if (is_sum)
                        sum = checkedArith('+', sum, x);
                    if (!any || x < mn)
                        mn = x;
                    if (!any || x > mx)
                        mx = x;
                    any = true;
                }
                if (fn == "COUNT")
                    return Value(count);
                if (is_sum)
                    return Value(sum);
                if (!any)
                    return Value();
                return Value(fn == "MIN" ? mn : mx);
            }
        }
        if (!sql::containsAggregate(expr)) {
            // A grouping expression: constant within the group.
            if (rows.empty())
                return Value();
            resolver.setRow(rows.front());
            return evalExpr(expr, &resolver, env_);
        }
        // Mixed expression (e.g. SUM(x) / COUNT(*)): recurse.
        if (expr.kind == sql::ExprKind::Binary) {
            Value l = eval_agg(*expr.args[0], rows);
            Value r = eval_agg(*expr.args[1], rows);
            sql::ExprPtr tmp = sql::Expr::makeBinary(
                expr.op, sql::Expr::makeLiteral(l),
                sql::Expr::makeLiteral(r));
            return evalExpr(*tmp, nullptr, env_);
        }
        if (expr.kind == sql::ExprKind::Unary) {
            Value v = eval_agg(*expr.args[0], rows);
            sql::ExprPtr tmp = sql::Expr::makeUnary(
                expr.op, sql::Expr::makeLiteral(v));
            return evalExpr(*tmp, nullptr, env_);
        }
        fatal("unsupported aggregate expression %s", expr.str().c_str());
    };

    for (const auto &[key, rows] : groups) {
        std::vector<Value> row;
        row.reserve(plan.outputs.size());
        for (const auto &o : plan.outputs)
            row.push_back(eval_agg(*o.expr, rows));
        out.appendRow(row);
    }
    return out;
}

RowWindow
Executor::limitWindow(const PlanNode &plan, size_t rows) const
{
    int64_t offset = plan.limitOffset
        ? evalConstExpr(*plan.limitOffset, env_).asInt() : 0;
    int64_t count = evalConstExpr(*plan.limitCount, env_).asInt();
    if (offset < 0 || count < 0)
        fatal("negative LIMIT offset/count");
    return clampWindow(static_cast<size_t>(offset),
                       static_cast<size_t>(count), rows);
}

Table
Executor::execLimitOn(const PlanNode &plan, const Table &input)
{
    const RowWindow w = limitWindow(plan, input.numRows());
    Table out = input.emptyLike("limit");
    for (size_t r = w.first; r < w.end; ++r) {
        std::vector<Value> row;
        for (size_t c = 0; c < input.numColumns(); ++c)
            row.push_back(input.at(r, c));
        out.appendRow(row);
    }
    return out;
}

Batch
Executor::posExplode(const PlanNode &plan, const Table &input)
{
    auto aliases = aliasesOf(*plan.children[0]);
    TableRowResolver resolver(input, aliases);

    Batch out;
    out.schema.addField("POS", DataType::Int64);
    std::string value_name = plan.outputs[0].name;
    if (value_name == "POS")
        value_name = "VALUE";
    out.schema.addField(value_name, DataType::Int64);
    out.columns.assign(2, ColumnChunk::makeInt());
    ColumnChunk &pos_col = out.columns[0];
    ColumnChunk &value_col = out.columns[1];

    for (size_t r = 0; r < input.numRows(); ++r) {
        resolver.setRow(r);
        Value array = evalExpr(*plan.outputs[0].expr, &resolver, env_);
        Value init = evalExpr(*plan.outputs[1].expr, &resolver, env_);
        if (array.isNull())
            continue;
        int64_t pos = init.isNull() ? 0 : init.asInt();
        for (int64_t elem : array.asBlob()) {
            pos_col.pushInt(pos++);
            value_col.pushInt(elem);
        }
    }
    out.rows = pos_col.size();
    return out;
}

Batch
Executor::readExplode(const PlanNode &plan, const Table &input)
{
    Batch out;
    readExplodeInto(plan, input, {0, input.numRows()}, out);
    return out;
}

void
Executor::readExplodeInto(const PlanNode &plan, const Table &input,
                          RowWindow rows, Batch &out)
{
    auto aliases = aliasesOf(*plan.children[0]);
    TableRowResolver resolver(input, aliases);
    bool has_qual = plan.outputs.size() >= 4;

    if (out.columns.empty()) {
        out.schema.addField("POS", DataType::Int64);
        out.schema.addField("BP", DataType::Int64);
        if (has_qual)
            out.schema.addField("QUAL", DataType::Int64);
        out.schema.addField("CYCLE", DataType::Int64);
        out.columns.assign(out.schema.size(), ColumnChunk::makeInt());
    }
    ColumnChunk &pos_col = out.columns[0];
    ColumnChunk &bp_col = out.columns[1];
    ColumnChunk &cycle_col = out.columns.back();

    for (size_t r = rows.first; r < rows.end; ++r) {
        resolver.setRow(r);
        int64_t pos =
            evalExpr(*plan.outputs[0].expr, &resolver, env_).asInt();
        const Value cigar_cell =
            evalExpr(*plan.outputs[1].expr, &resolver, env_);
        const Value seq_cell =
            evalExpr(*plan.outputs[2].expr, &resolver, env_);
        const table::Blob &cigar_blob = cigar_cell.asBlob();
        const table::Blob &seq_blob = seq_cell.asBlob();
        table::Blob qual_blob;
        if (has_qual) {
            qual_blob =
                evalExpr(*plan.outputs[3].expr, &resolver, env_).asBlob();
        }

        std::vector<uint16_t> packed(cigar_blob.begin(), cigar_blob.end());
        genome::Cigar cigar = genome::Cigar::unpackAll(packed);
        genome::Sequence seq(seq_blob.begin(), seq_blob.end());
        genome::QualSequence qual(qual_blob.begin(), qual_blob.end());

        for (const auto &b : genome::explodeRead(pos, cigar, seq, qual)) {
            if (b.isInsertion())
                pos_col.pushNull();
            else
                pos_col.pushInt(b.refPos);
            if (b.isDeletion()) {
                bp_col.pushNull();
                cycle_col.pushNull();
            } else {
                bp_col.pushInt(b.readBase);
                cycle_col.pushInt(b.readOffset);
            }
            if (!has_qual)
                continue;
            if (b.isDeletion() || b.qual < 0)
                out.columns[2].pushNull();
            else
                out.columns[2].pushInt(b.qual);
        }
    }
    out.rows = pos_col.size();
}

} // namespace genesis::engine
