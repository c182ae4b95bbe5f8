/**
 * @file
 * Logical query plan: the relational-operator tree a parsed select
 * statement lowers to (Section III-D: "SQL queries can be easily parsed
 * into a tree graph where each node represents a table or a relational/
 * computational operator").
 *
 * Both back-ends consume this tree: the software executor (src/engine)
 * interprets it, and the hardware mapper (src/pipeline) translates each
 * node into a Genesis hardware-library module.
 */

#ifndef GENESIS_SQL_PLAN_H
#define GENESIS_SQL_PLAN_H

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace genesis::sql {

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/** Plan operator kinds. */
enum class PlanKind {
    Scan,        ///< read a named (possibly partitioned) table
    Project,     ///< compute output columns from input rows
    Filter,      ///< keep rows satisfying a predicate
    Join,        ///< single-equality-key join of two children
    Aggregate,   ///< grouped or global aggregation
    Limit,       ///< offset/count row window
    PosExplode,  ///< one row per array element, with a position column
    ReadExplode, ///< one row per read base pair (genomics-specific)
};

/** One named output column computed by Project/Aggregate. */
struct OutputColumn {
    ExprPtr expr;
    std::string name;
};

/** Physical join algorithm picked by the optimizer. */
enum class JoinStrategy {
    NestedLoop, ///< naive O(L*R) scan (the seed planner's default)
    Hash,       ///< build a hash index on one side, probe the other
};

/** A logical plan node. */
struct PlanNode {
    PlanKind kind = PlanKind::Scan;
    /** Children: 0 for Scan, 1 for most, 2 for Join (left, right). */
    std::vector<PlanPtr> children;

    // Scan
    std::string tableName;
    ExprPtr partition; ///< PARTITION (expr); may be null
    std::string alias; ///< qualifier this subtree's columns answer to
    /**
     * Set by fuseLoopBody() on a subtree it put in place of a scan of a
     * loop temp table: that table's name. Like the scan it replaced, the
     * subtree answers to `alias` and this name only.
     */
    std::string inlinedTemp;

    // Project / Aggregate
    std::vector<OutputColumn> outputs;
    std::vector<ExprPtr> groupBy;

    // Filter
    ExprPtr predicate;

    // Join
    JoinType joinType = JoinType::Inner;
    ExprPtr leftKey;
    ExprPtr rightKey;
    /** Algorithm; planSelect emits NestedLoop, the optimizer upgrades. */
    JoinStrategy joinStrategy = JoinStrategy::NestedLoop;
    /** Hash joins: build the index on the left child instead of right. */
    bool buildLeft = false;

    // Limit
    ExprPtr limitOffset;
    ExprPtr limitCount;

    // PosExplode: outputs[0] = array column, outputs[1] = initial position
    // ReadExplode: outputs = POS, CIGAR, SEQ [, QUAL] argument expressions

    /** Render the plan tree with indentation (for docs and debugging). */
    std::string str(int indent = 0) const;

    /** Deep copy of the subtree (expressions cloned). */
    PlanPtr clone() const;
};

/**
 * Lower a parsed select statement into a logical plan tree.
 * Aggregation is detected from aggregate calls (COUNT/SUM/MIN/MAX) in the
 * select list; joins lower to binary Join nodes left-deep.
 */
PlanPtr planSelect(const SelectStmt &select);

/**
 * Fuse a FOR loop's body into one plan: the body's last INSERT INTO
 * select is the root, and each unpartitioned scan of a temp table that
 * an earlier body statement created becomes the (itself fused) plan that
 * created it. The software engine and the hardware mapper share this
 * fusion. @return nullptr when the body has no INSERT INTO.
 */
PlanPtr fuseLoopBody(const Statement &loop);

/**
 * fuseLoopBody() of the script's last top-level FOR loop (Figure 4's
 * per-read loop). Throws FatalError when the script has no FOR loop or
 * its body has no INSERT INTO.
 */
PlanPtr fuseScript(const Script &script);

/** @return true when the expression contains an aggregate call. */
bool containsAggregate(const Expr &expr);

} // namespace genesis::sql

#endif // GENESIS_SQL_PLAN_H
