/**
 * @file
 * Rule-based logical plan optimizer.
 *
 * optimizePlan() rewrites a naive planSelect() tree into an equivalent,
 * cheaper one. Every rewrite is result-preserving down to row order and
 * byte-identical cells — the plan-equivalence differential battery
 * (tests/optimizer_diff_test.cpp) enforces this over a query grid —
 * so join reordering only fires in order-insensitive (aggregated)
 * contexts.
 *
 * Rules can be toggled individually through a bit mask
 * (OptimizerOptions::ruleMask, ExecConfig::ruleMask).
 */

#ifndef GENESIS_SQL_OPTIMIZER_H
#define GENESIS_SQL_OPTIMIZER_H

#include <cstdint>

#include "sql/cost_model.h"
#include "sql/plan.h"

namespace genesis::sql {

/** Rewrite-rule bits. */
inline constexpr uint32_t kRuleSplit = 1u << 0;       ///< split AND filters
inline constexpr uint32_t kRulePushdown = 1u << 1;    ///< push filters down
inline constexpr uint32_t kRuleTransfer = 1u << 2;    ///< mirror key preds
inline constexpr uint32_t kRuleJoinReorder = 1u << 3; ///< reorder join chains
inline constexpr uint32_t kRuleHashJoin = 1u << 4;    ///< pick hash strategy
inline constexpr uint32_t kRuleMerge = 1u << 5;       ///< merge filter stacks
inline constexpr uint32_t kRuleFilterOrder = 1u << 6; ///< selective-first
inline constexpr uint32_t kAllRules = 0x7f;

/** @return short name of a single rule bit ("split", "reorder", ...). */
const char *ruleName(uint32_t bit);

/** Optimizer configuration. */
struct OptimizerOptions {
    uint32_t ruleMask = kAllRules;
    /** Table statistics source; may be null (defaults kick in). */
    StatsProvider stats;
};

/** Rewrite a plan; consumes and returns ownership. */
PlanPtr optimizePlan(PlanPtr plan, const OptimizerOptions &opts = {});

} // namespace genesis::sql

#endif // GENESIS_SQL_OPTIMIZER_H
