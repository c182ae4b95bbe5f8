/**
 * @file
 * Row-level expression evaluation for the software query engine.
 */

#ifndef GENESIS_ENGINE_EVAL_H
#define GENESIS_ENGINE_EVAL_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "sql/ast.h"
#include "table/table.h"

namespace genesis::engine {

/**
 * Resolves qualified column references to cell values for the row(s)
 * currently being evaluated. Implementations exist for single-table rows
 * and loop-row bindings; they chain via the `next` pointer.
 */
class ColumnResolver
{
  public:
    virtual ~ColumnResolver() = default;

    /**
     * @return the value of [qualifier.]name for the current row, or
     * nullopt when this resolver does not know the column.
     */
    virtual std::optional<table::Value>
    resolve(const std::string &qualifier, const std::string &name) const = 0;
};

/** Resolver over one row of one table, answering to a set of aliases. */
class TableRowResolver : public ColumnResolver
{
  public:
    /**
     * @param table the table holding the row
     * @param aliases qualifiers this table answers to (e.g. its name and
     *        its alias); an empty qualifier always matches
     * @param next fallback resolver (may be null)
     */
    TableRowResolver(const table::Table &table,
                     std::vector<std::string> aliases,
                     const ColumnResolver *next = nullptr);

    void setRow(size_t row) { row_ = row; }

    std::optional<table::Value>
    resolve(const std::string &qualifier,
            const std::string &name) const override;

  private:
    const table::Table &table_;
    std::vector<std::string> aliases_;
    const ColumnResolver *next_;
    size_t row_ = 0;
};

/** Variable bindings (@name values) plus loop-row bindings. */
struct VariableEnv {
    std::map<std::string, table::Value> variables;

    /** Loop-row binding: qualifier -> (table, row index). */
    struct RowBinding {
        const table::Table *table = nullptr;
        size_t row = 0;
    };
    std::map<std::string, RowBinding> rowBindings;

    /** @return variable value; throws FatalError when undeclared. */
    const table::Value &variable(const std::string &name) const;
};

/**
 * Evaluate an expression for one row.
 *
 * NULL semantics are SQL-like: arithmetic and comparisons on NULL yield
 * NULL; AND/OR treat NULL as false; NOT NULL is NULL.
 * Aggregate calls are rejected here — the Aggregate plan node evaluates
 * them over row groups.
 */
table::Value evalExpr(const sql::Expr &expr, const ColumnResolver *resolver,
                      const VariableEnv &env);

/** Evaluate an expression that uses no columns (constants + variables). */
table::Value evalConstExpr(const sql::Expr &expr, const VariableEnv &env);

/**
 * Integer `a op b` for op '+', '-', '*', '/' or '%', the arithmetic of
 * both engines (negation is 0 - v, SUM is repeated '+'). Throws
 * FatalError on a zero divisor and on a result that does not fit in
 * int64; INT64_MIN % -1 is 0.
 */
int64_t checkedArith(char op, int64_t a, int64_t b);

/**
 * Resolve [qualifier.]name to a column index of `schema`, or -1.
 *
 * The qualified spelling ("qualifier.name", produced by joins for
 * duplicate column names) wins over the bare name, so a reference like
 * `b.k` still reads b's column when both join sides carry a `k`. A
 * qualifier that is neither an alias of the schema's source nor a
 * qualified-column prefix resolves nothing.
 */
int resolveColumnIndex(const table::Schema &schema,
                       const std::vector<std::string> &aliases,
                       const std::string &qualifier,
                       const std::string &name);

} // namespace genesis::engine

#endif // GENESIS_ENGINE_EVAL_H
