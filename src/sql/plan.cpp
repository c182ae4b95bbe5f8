#include "sql/plan.h"

#include <map>
#include <sstream>

#include "base/logging.h"

namespace genesis::sql {

bool
containsAggregate(const Expr &expr)
{
    if (expr.kind == ExprKind::Call) {
        const std::string &n = expr.name;
        if (n == "COUNT" || n == "SUM" || n == "MIN" || n == "MAX")
            return true;
    }
    for (const auto &arg : expr.args) {
        if (containsAggregate(*arg))
            return true;
    }
    return false;
}

std::string
PlanNode::str(int indent) const
{
    std::ostringstream os;
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    os << pad;
    switch (kind) {
      case PlanKind::Scan:
        os << "Scan(" << tableName;
        if (partition)
            os << " PARTITION " << partition->str();
        os << ")";
        break;
      case PlanKind::Project: {
        os << "Project(";
        for (size_t i = 0; i < outputs.size(); ++i) {
            if (i)
                os << ", ";
            os << outputs[i].name << "=" << outputs[i].expr->str();
        }
        os << ")";
        break;
      }
      case PlanKind::Filter:
        os << "Filter(" << predicate->str() << ")";
        break;
      case PlanKind::Join: {
        const char *t = joinType == JoinType::Inner ? "Inner"
            : joinType == JoinType::Left ? "Left" : "Outer";
        os << t << "Join(" << leftKey->str() << " == " << rightKey->str()
           << ")";
        if (joinStrategy == JoinStrategy::Hash)
            os << " [hash build=" << (buildLeft ? "left" : "right") << "]";
        break;
      }
      case PlanKind::Aggregate: {
        os << "Aggregate(";
        for (size_t i = 0; i < outputs.size(); ++i) {
            if (i)
                os << ", ";
            os << outputs[i].name << "=" << outputs[i].expr->str();
        }
        if (!groupBy.empty()) {
            os << " GROUP BY ";
            for (size_t i = 0; i < groupBy.size(); ++i) {
                if (i)
                    os << ", ";
                os << groupBy[i]->str();
            }
        }
        os << ")";
        break;
      }
      case PlanKind::Limit:
        os << "Limit(";
        if (limitOffset)
            os << limitOffset->str() << ", ";
        os << (limitCount ? limitCount->str() : "ALL") << ")";
        break;
      case PlanKind::PosExplode:
        os << "PosExplode(" << outputs[0].expr->str() << ", "
           << outputs[1].expr->str() << ")";
        break;
      case PlanKind::ReadExplode: {
        os << "ReadExplode(";
        for (size_t i = 0; i < outputs.size(); ++i) {
            if (i)
                os << ", ";
            os << outputs[i].expr->str();
        }
        os << ")";
        break;
      }
    }
    os << "\n";
    for (const auto &child : children)
        os << child->str(indent + 1);
    return os.str();
}

PlanPtr
PlanNode::clone() const
{
    auto copy = std::make_unique<PlanNode>();
    copy->kind = kind;
    copy->tableName = tableName;
    copy->alias = alias;
    copy->inlinedTemp = inlinedTemp;
    if (partition)
        copy->partition = partition->clone();
    for (const auto &o : outputs)
        copy->outputs.push_back({o.expr->clone(), o.name});
    for (const auto &g : groupBy)
        copy->groupBy.push_back(g->clone());
    if (predicate)
        copy->predicate = predicate->clone();
    copy->joinType = joinType;
    if (leftKey)
        copy->leftKey = leftKey->clone();
    if (rightKey)
        copy->rightKey = rightKey->clone();
    copy->joinStrategy = joinStrategy;
    copy->buildLeft = buildLeft;
    if (limitOffset)
        copy->limitOffset = limitOffset->clone();
    if (limitCount)
        copy->limitCount = limitCount->clone();
    for (const auto &child : children)
        copy->children.push_back(child->clone());
    return copy;
}

namespace {

PlanPtr
planTableRef(const TableRef &ref)
{
    if (ref.subquery) {
        PlanPtr sub = planSelect(*ref.subquery);
        sub->alias = ref.alias;
        return sub;
    }
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanKind::Scan;
    node->tableName = ref.name;
    node->alias = ref.effectiveName();
    if (ref.partition)
        node->partition = ref.partition->clone();
    return node;
}

std::string
defaultColumnName(const Expr &expr, size_t index)
{
    if (expr.kind == ExprKind::ColumnRef)
        return expr.name;
    if (expr.kind == ExprKind::Call)
        return expr.name;
    return "COL" + std::to_string(index);
}

} // namespace

PlanPtr
planSelect(const SelectStmt &select)
{
    if (!select.from.name.empty() || select.from.subquery) {
        // normal FROM chain below
    } else {
        fatal("select without FROM clause is not supported");
    }

    PlanPtr plan = planTableRef(select.from);

    for (const auto &join : select.joins) {
        auto node = std::make_unique<PlanNode>();
        node->kind = PlanKind::Join;
        node->joinType = join.type;
        node->leftKey = join.onLeft->clone();
        node->rightKey = join.onRight->clone();
        node->children.push_back(std::move(plan));
        node->children.push_back(planTableRef(join.table));
        plan = std::move(node);
    }

    if (select.where) {
        auto node = std::make_unique<PlanNode>();
        node->kind = PlanKind::Filter;
        node->predicate = select.where->clone();
        node->children.push_back(std::move(plan));
        plan = std::move(node);
    }

    switch (select.kind) {
      case SelectKind::PosExplode: {
        auto node = std::make_unique<PlanNode>();
        node->kind = PlanKind::PosExplode;
        for (size_t i = 0; i < select.items.size(); ++i) {
            node->outputs.push_back(
                {select.items[i].expr->clone(),
                 defaultColumnName(*select.items[i].expr, i)});
        }
        node->children.push_back(std::move(plan));
        plan = std::move(node);
        break;
      }
      case SelectKind::ReadExplode: {
        auto node = std::make_unique<PlanNode>();
        node->kind = PlanKind::ReadExplode;
        for (size_t i = 0; i < select.items.size(); ++i) {
            node->outputs.push_back(
                {select.items[i].expr->clone(),
                 defaultColumnName(*select.items[i].expr, i)});
        }
        node->children.push_back(std::move(plan));
        plan = std::move(node);
        break;
      }
      case SelectKind::Plain: {
        bool has_aggregate = !select.groupBy.empty();
        for (const auto &item : select.items)
            has_aggregate |= containsAggregate(*item.expr);

        bool select_star = select.items.size() == 1 &&
            select.items[0].expr->kind == ExprKind::Star;

        if (has_aggregate) {
            auto node = std::make_unique<PlanNode>();
            node->kind = PlanKind::Aggregate;
            for (size_t i = 0; i < select.items.size(); ++i) {
                std::string name = select.items[i].alias.empty()
                    ? defaultColumnName(*select.items[i].expr, i)
                    : select.items[i].alias;
                node->outputs.push_back(
                    {select.items[i].expr->clone(), std::move(name)});
            }
            for (const auto &g : select.groupBy)
                node->groupBy.push_back(g->clone());
            node->children.push_back(std::move(plan));
            plan = std::move(node);
        } else if (!select_star) {
            auto node = std::make_unique<PlanNode>();
            node->kind = PlanKind::Project;
            for (size_t i = 0; i < select.items.size(); ++i) {
                std::string name = select.items[i].alias.empty()
                    ? defaultColumnName(*select.items[i].expr, i)
                    : select.items[i].alias;
                node->outputs.push_back(
                    {select.items[i].expr->clone(), std::move(name)});
            }
            node->children.push_back(std::move(plan));
            plan = std::move(node);
        }
        break;
      }
    }

    if (select.limit.count) {
        auto node = std::make_unique<PlanNode>();
        node->kind = PlanKind::Limit;
        if (select.limit.offset)
            node->limitOffset = select.limit.offset->clone();
        node->limitCount = select.limit.count->clone();
        node->children.push_back(std::move(plan));
        plan = std::move(node);
    }

    return plan;
}

namespace {

/** Replace unpartitioned scans of `temps` with the plans that made them. */
void
inlineTemps(PlanPtr &node, const std::map<std::string, PlanPtr> &temps)
{
    if (node->kind != PlanKind::Scan) {
        for (auto &child : node->children)
            inlineTemps(child, temps);
        return;
    }
    auto it = temps.find(node->tableName);
    if (it == temps.end() || node->partition)
        return;
    std::string alias = node->alias.empty() ? node->tableName : node->alias;
    std::string temp = node->tableName;
    node = it->second->clone();
    node->alias = std::move(alias);
    node->inlinedTemp = std::move(temp);
}

} // namespace

PlanPtr
fuseLoopBody(const Statement &loop)
{
    // Temps are fused in body order, so a statement sees the temps made
    // before it, as the loop's rows do; a later CREATE replaces one.
    std::map<std::string, PlanPtr> temps;
    PlanPtr sink;
    for (const auto &stmt : loop.body) {
        const bool temp = stmt->kind == StatementKind::CreateTableAs &&
            stmt->targetIsTemp;
        if (!temp && stmt->kind != StatementKind::InsertInto)
            continue;
        PlanPtr plan = planSelect(*stmt->select);
        inlineTemps(plan, temps);
        if (temp)
            temps[stmt->target] = std::move(plan);
        else
            sink = std::move(plan);
    }
    return sink;
}

PlanPtr
fuseScript(const Script &script)
{
    const Statement *loop = nullptr;
    for (const auto &stmt : script.statements) {
        if (stmt->kind == StatementKind::ForLoop)
            loop = stmt.get();
    }
    if (!loop)
        fatal("script has no FOR loop to fuse");
    PlanPtr plan = fuseLoopBody(*loop);
    if (!plan)
        fatal("FOR loop has no INSERT INTO sink to map");
    return plan;
}

} // namespace genesis::sql
