#include "sql/optimizer.h"

#include "sql/rules/rules.h"

namespace genesis::sql {

namespace {

struct RuleNameEntry {
    uint32_t bit;
    const char *name;
};

constexpr RuleNameEntry kRuleNames[] = {
    {kRuleSplit, "split"},
    {kRulePushdown, "pushdown"},
    {kRuleTransfer, "transfer"},
    {kRuleJoinReorder, "reorder"},
    {kRuleHashJoin, "hashjoin"},
    {kRuleMerge, "merge"},
    {kRuleFilterOrder, "order"},
};

} // namespace

const char *
ruleName(uint32_t bit)
{
    for (const auto &e : kRuleNames) {
        if (bit == e.bit)
            return e.name;
    }
    return "?";
}

PlanPtr
optimizePlan(PlanPtr plan, const OptimizerOptions &opts)
{
    if (!plan)
        return plan;
    CostModel model(opts.stats);
    rules::RuleContext ctx{opts.ruleMask, model};

    if (ctx.mask & kRuleSplit)
        plan = rules::splitFilters(std::move(plan), ctx);
    if (ctx.mask & (kRulePushdown | kRuleTransfer))
        plan = rules::pushdownFilters(std::move(plan), ctx);
    if (ctx.mask & kRuleJoinReorder)
        plan = rules::reorderJoins(std::move(plan), ctx);
    if (ctx.mask & kRuleHashJoin)
        plan = rules::chooseHashJoins(std::move(plan), ctx);
    if (ctx.mask & kRuleFilterOrder)
        plan = rules::orderFilters(std::move(plan), ctx);
    if (ctx.mask & kRuleMerge)
        plan = rules::mergeFilters(std::move(plan), ctx);
    return plan;
}

} // namespace genesis::sql
