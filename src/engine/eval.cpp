#include "engine/eval.h"

#include <algorithm>
#include <limits>

#include "base/logging.h"
#include "sql/plan.h"

namespace genesis::engine {

using table::Value;

TableRowResolver::TableRowResolver(const table::Table &table,
                                   std::vector<std::string> aliases,
                                   const ColumnResolver *next)
    : table_(table), aliases_(std::move(aliases)), next_(next)
{
}

int
resolveColumnIndex(const table::Schema &schema,
                   const std::vector<std::string> &aliases,
                   const std::string &qualifier, const std::string &name)
{
    if (qualifier.empty())
        return schema.indexOf(name);
    // The qualified spelling wins: a join renames duplicate columns to
    // "alias.name", and a qualified reference must keep reading its own
    // side's column no matter how the optimizer laid the join out.
    int idx = schema.indexOf(qualifier + "." + name);
    if (idx >= 0)
        return idx;
    if (std::find(aliases.begin(), aliases.end(), qualifier) !=
        aliases.end()) {
        return schema.indexOf(name);
    }
    return -1;
}

std::optional<Value>
TableRowResolver::resolve(const std::string &qualifier,
                          const std::string &name) const
{
    int idx = resolveColumnIndex(table_.schema(), aliases_, qualifier,
                                 name);
    if (idx >= 0)
        return table_.at(row_, static_cast<size_t>(idx));
    if (next_)
        return next_->resolve(qualifier, name);
    return std::nullopt;
}

const Value &
VariableEnv::variable(const std::string &name) const
{
    auto it = variables.find(name);
    if (it == variables.end())
        fatal("undeclared variable @%s", name.c_str());
    return it->second;
}

namespace {

Value
evalBinary(const std::string &op, const Value &l, const Value &r)
{
    if (op == "AND")
        return Value(l.truthy() && r.truthy());
    if (op == "OR")
        return Value(l.truthy() || r.truthy());

    // Equality works across all value shapes; NULL compares as NULL.
    if (op == "==" || op == "!=") {
        if (l.isNull() || r.isNull())
            return Value();
        bool eq = l == r;
        return Value(op == "==" ? eq : !eq);
    }
    if (l.isNull() || r.isNull())
        return Value();
    if (op == "<")
        return Value(l < r);
    if (op == ">")
        return Value(r < l);
    if (op == "<=")
        return Value(!(r < l));
    if (op == ">=")
        return Value(!(l < r));

    if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%")
        return Value(checkedArith(op[0], l.asInt(), r.asInt()));
    fatal("unsupported binary operator '%s'", op.c_str());
}

/** Non-aggregate scalar builtins usable anywhere in an expression. */
std::optional<Value>
evalScalarCall(const std::string &name, const std::vector<Value> &args)
{
    if (name == "ABS" && args.size() == 1) {
        if (args[0].isNull())
            return Value();
        int64_t v = args[0].asInt();
        return Value(v < 0 ? checkedArith('-', 0, v) : v);
    }
    if (name == "LEN" && args.size() == 1) {
        if (args[0].isNull())
            return Value();
        if (args[0].isBlob())
            return Value(static_cast<int64_t>(args[0].asBlob().size()));
        return Value(static_cast<int64_t>(args[0].asString().size()));
    }
    if (name == "COALESCE") {
        for (const auto &a : args) {
            if (!a.isNull())
                return a;
        }
        return Value();
    }
    if (name == "ISNULL" && args.size() == 1)
        return Value(args[0].isNull());
    if (name == "ELEM" && args.size() == 2) {
        // ELEM(array, index): one element of an array cell.
        if (args[0].isNull() || args[1].isNull())
            return Value();
        const auto &blob = args[0].asBlob();
        int64_t idx = args[1].asInt();
        if (idx < 0 || static_cast<size_t>(idx) >= blob.size())
            return Value();
        return Value(blob[static_cast<size_t>(idx)]);
    }
    return std::nullopt;
}

} // namespace

Value
evalExpr(const sql::Expr &expr, const ColumnResolver *resolver,
         const VariableEnv &env)
{
    using sql::ExprKind;
    switch (expr.kind) {
      case ExprKind::Literal:
        return expr.literal;
      case ExprKind::VarRef:
        return env.variable(expr.name);
      case ExprKind::Star:
        fatal("'*' is only valid inside COUNT(*) or SELECT *");
      case ExprKind::ColumnRef: {
        // A qualifier naming a loop-row binding wins over table columns.
        auto rb = env.rowBindings.find(expr.qualifier);
        if (rb != env.rowBindings.end()) {
            const auto &binding = rb->second;
            int idx = binding.table->schema().indexOf(expr.name);
            if (idx < 0) {
                fatal("loop row '%s' has no column '%s'",
                      expr.qualifier.c_str(), expr.name.c_str());
            }
            return binding.table->at(binding.row,
                                     static_cast<size_t>(idx));
        }
        if (resolver) {
            auto v = resolver->resolve(expr.qualifier, expr.name);
            if (v)
                return *v;
        }
        fatal("cannot resolve column reference '%s'", expr.str().c_str());
      }
      case ExprKind::Unary: {
        Value v = evalExpr(*expr.args[0], resolver, env);
        if (expr.op == "NOT")
            return v.isNull() ? Value() : Value(!v.truthy());
        if (expr.op == "-")
            return v.isNull() ? Value()
                              : Value(checkedArith('-', 0, v.asInt()));
        fatal("unsupported unary operator '%s'", expr.op.c_str());
      }
      case ExprKind::Binary: {
        Value l = evalExpr(*expr.args[0], resolver, env);
        Value r = evalExpr(*expr.args[1], resolver, env);
        return evalBinary(expr.op, l, r);
      }
      case ExprKind::Call: {
        if (sql::containsAggregate(expr)) {
            fatal("aggregate %s used outside an aggregation context",
                  expr.name.c_str());
        }
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const auto &a : expr.args)
            args.push_back(evalExpr(*a, resolver, env));
        auto result = evalScalarCall(expr.name, args);
        if (!result)
            fatal("unknown function '%s'", expr.name.c_str());
        return *result;
      }
    }
    panic("unhandled expression kind");
}

Value
evalConstExpr(const sql::Expr &expr, const VariableEnv &env)
{
    return evalExpr(expr, nullptr, env);
}

int64_t
checkedArith(char op, int64_t a, int64_t b)
{
    int64_t out = 0;
    bool overflow = false;
    switch (op) {
      case '+':
        overflow = __builtin_add_overflow(a, b, &out);
        break;
      case '-':
        overflow = __builtin_sub_overflow(a, b, &out);
        break;
      case '*':
        overflow = __builtin_mul_overflow(a, b, &out);
        break;
      case '/':
        if (b == 0)
            fatal("division by zero");
        overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
        if (!overflow)
            out = a / b;
        break;
      case '%':
        if (b == 0)
            fatal("modulo by zero");
        // x % -1 is 0, but INT64_MIN % -1 overflows its quotient (and
        // traps on x86), so it is not computed.
        out = b == -1 ? 0 : a % b;
        break;
      default:
        panic("unsupported integer operator '%c'", op);
    }
    if (overflow)
        fatal("integer overflow in '%c'", op);
    return out;
}

} // namespace genesis::engine
