#include "pipeline/mapper.h"

#include <map>
#include <sstream>

#include "base/logging.h"
#include "modules/filter.h"
#include "modules/fork.h"
#include "modules/gather_reader.h"
#include "modules/joiner.h"
#include "modules/memory_reader.h"
#include "modules/memory_writer.h"
#include "modules/read_to_bases.h"
#include "modules/reducer.h"
#include "modules/spm_reader.h"
#include "modules/spm_updater.h"
#include "sql/optimizer.h"

namespace genesis::pipeline {

using sql::Expr;
using sql::ExprKind;
using sql::PlanKind;
using sql::PlanNode;
using sql::PlanPtr;

// --- Script fusion -------------------------------------------------------

namespace {

/** Replace scans of temp tables with the plans that created them. */
void
inlineTempScans(PlanNode &node,
                const std::map<std::string, const sql::SelectStmt *>
                    &temp_defs)
{
    for (auto &child : node.children) {
        if (child->kind == PlanKind::Scan) {
            auto it = temp_defs.find(child->tableName);
            if (it != temp_defs.end()) {
                std::string alias = child->alias.empty()
                    ? child->tableName : child->alias;
                child = sql::planSelect(*it->second);
                child->alias = alias;
                inlineTempScans(*child, temp_defs);
                continue;
            }
        }
        inlineTempScans(*child, temp_defs);
    }
}

} // namespace

PlanPtr
fuseScriptToPlan(const sql::Script &script)
{
    const sql::Statement *loop = nullptr;
    for (const auto &stmt : script.statements) {
        if (stmt->kind == sql::StatementKind::ForLoop)
            loop = stmt.get();
    }
    if (!loop)
        fatal("script has no FOR loop to fuse");

    std::map<std::string, const sql::SelectStmt *> temp_defs;
    const sql::Statement *sink = nullptr;
    for (const auto &stmt : loop->body) {
        if (stmt->kind == sql::StatementKind::CreateTableAs &&
            stmt->targetIsTemp) {
            temp_defs[stmt->target] = stmt->select.get();
        } else if (stmt->kind == sql::StatementKind::InsertInto) {
            sink = stmt.get();
        }
    }
    if (!sink)
        fatal("FOR loop has no INSERT INTO sink to map");

    PlanPtr plan = sql::planSelect(*sink->select);
    inlineTempScans(*plan, temp_defs);
    return plan;
}

// --- Plan lowering ---------------------------------------------------------

namespace {

/** Where a column lives in the streaming flit layout. */
struct FieldSlot {
    bool isKey = false;
    int fieldIndex = -1;
};

/** Column name -> flit slot map carried up the lowering recursion. */
struct Layout {
    /** Lookup keys are stored both bare and qualified. */
    std::map<std::string, FieldSlot> slots;
    int numFields = 0;

    void
    add(const std::string &name, FieldSlot slot)
    {
        slots[name] = slot;
    }

    FieldSlot
    resolve(const Expr &column) const
    {
        GENESIS_ASSERT(column.kind == ExprKind::ColumnRef,
                       "expected a column reference, got %s",
                       column.str().c_str());
        if (!column.qualifier.empty()) {
            auto it = slots.find(column.qualifier + "." + column.name);
            if (it != slots.end())
                return it->second;
        }
        auto it = slots.find(column.name);
        if (it == slots.end()) {
            fatal("mapper: column '%s' is not in the stream layout",
                  column.str().c_str());
        }
        return it->second;
    }
};

/** One lowered subtree: output queue + layout. */
struct Lowered {
    sim::HardwareQueue *queue = nullptr;
    Layout layout;
};

/** Names that identify the reference table in a plan. */
constexpr const char *kRefTableNames[] = {"RelevantReference", "REF",
                                          "ReferenceRow"};

/** @return true when the subtree bottoms out in a reference scan. */
bool
isReferenceSubtree(const PlanNode &plan)
{
    if (plan.kind == PlanKind::Scan) {
        for (const char *name : kRefTableNames) {
            if (plan.tableName == name || plan.alias == name)
                return true;
        }
        return false;
    }
    return !plan.children.empty() && isReferenceSubtree(*plan.children[0]);
}

/** @return true when the plan joins a stream to the reference. */
bool
joinsReference(const PlanNode &plan)
{
    if (plan.kind == PlanKind::Join && isReferenceSubtree(*plan.children[1]))
        return true;
    for (const auto &child : plan.children) {
        if (joinsReference(*child))
            return true;
    }
    return false;
}

class Lowering
{
  public:
    Lowering(PipelineBuilder &builder,
             runtime::AcceleratorSession &session,
             const QueryBinding &binding, bool joins_reference)
        : b_(builder), s_(session), binding_(binding),
          joinsReference_(joins_reference)
    {
    }

    MappedQuery
    run(const PlanNode &plan)
    {
        MappedQuery mapped;
        Lowered top = lower(plan);
        mapped.output = s_.configureOutput(b_.scopedName("OUT"), 4);
        modules::MemoryWriterConfig wr;
        wr.fieldIndex = 0;
        wr.elemSizeBytes = 4;
        add<modules::MemoryWriter>("MemoryWriter", "wr_" + result_,
                                   mapped.output, b_.port(), top.queue,
                                   wr);
        trace_ << "MemoryWriter <- sink\n";
        mapped.trace = trace_.str();
        return mapped;
    }

  private:
    /** `base` on its first use, then `base_2`, `base_3`, ... */
    static std::string
    numbered(std::map<std::string, int> &uses, const std::string &base)
    {
        const int n = ++uses[base];
        return n == 1 ? base : base + "_" + std::to_string(n);
    }

    sim::HardwareQueue *
    queue(const std::string &base)
    {
        return b_.queue(numbered(queueUses_, base));
    }

    template <typename T, typename... Args>
    T *
    add(const std::string &kind, const std::string &base, Args &&...args)
    {
        return b_.add<T>(kind, numbered(moduleUses_, base),
                         std::forward<Args>(args)...);
    }

    Lowered
    lower(const PlanNode &plan)
    {
        switch (plan.kind) {
          case PlanKind::ReadExplode: return lowerReadExplode(plan);
          case PlanKind::Join: return lowerJoin(plan);
          case PlanKind::Filter: return lowerFilter(plan);
          case PlanKind::Aggregate: return lowerAggregate(plan);
          case PlanKind::Project: return lowerProject(plan);
          case PlanKind::Limit:
            fatal("mapper: LIMIT is only supported windowing the "
                  "reference side of a join");
          case PlanKind::Scan:
            fatal("mapper: bare scan of '%s' has no streaming lowering "
                  "(reads must flow through ReadExplode)",
                  plan.tableName.c_str());
          case PlanKind::PosExplode:
            fatal("mapper: PosExplode is only supported on the "
                  "reference side of a join");
        }
        panic("unhandled plan kind in mapper");
    }

    Lowered
    lowerReadExplode(const PlanNode &plan)
    {
        bool has_qual = plan.outputs.size() >= 4;
        if (has_qual && !binding_.qual)
            fatal("mapper: query reads QUAL but no QUAL buffer bound");
        if (joinsReference_ && !binding_.endpos)
            fatal("mapper: reference join requires an endpos buffer");

        modules::MemoryReaderConfig scalar_cfg;
        modules::MemoryReaderConfig array_cfg;
        array_cfg.emitBoundaries = true;
        auto *pos_q = queue("pos");
        add<modules::MemoryReader>("MemoryReader", "rd_pos", binding_.pos,
                                   b_.port(), pos_q, scalar_cfg);
        // A reference join reads each read's [POS, ENDPOS) span: POS
        // forks to the reference reader, and ENDPOS takes the port
        // after POS.
        sim::HardwareQueue *pos_rtb_q = pos_q;
        if (joinsReference_) {
            pos_rtb_q = queue("pos_rtb");
            posForRef_ = queue("pos_spm");
            endposForRef_ = queue("endpos");
            add<modules::MemoryReader>("MemoryReader", "rd_endpos",
                                       binding_.endpos, b_.port(),
                                       endposForRef_, scalar_cfg);
            add<modules::Fork>("Fork", "fork_pos", pos_q,
                               std::vector<sim::HardwareQueue *>{
                                   pos_rtb_q, posForRef_});
        }
        auto *cigar_q = queue("cigar");
        add<modules::MemoryReader>("MemoryReader", "rd_cigar",
                                   binding_.cigar, b_.port(), cigar_q,
                                   array_cfg);
        auto *seq_q = queue("seq");
        add<modules::MemoryReader>("MemoryReader", "rd_seq", binding_.seq,
                                   b_.port(), seq_q, array_cfg);
        sim::HardwareQueue *qual_q = nullptr;
        if (has_qual) {
            qual_q = queue("qual");
            add<modules::MemoryReader>("MemoryReader", "rd_qual",
                                       binding_.qual, b_.port(), qual_q,
                                       array_cfg);
        }
        auto *bases_q = queue("bases");
        add<modules::ReadToBases>("ReadToBases", "rtb", pos_rtb_q, cigar_q,
                                  seq_q, qual_q, bases_q);
        trace_ << "ReadToBases <- ReadExplode\n";

        Lowered out;
        out.queue = bases_q;
        out.layout.add("POS", {true, -1});
        out.layout.add("BP", {false, 0});
        out.layout.add("QUAL", {false, 1});
        out.layout.add("CYCLE", {false, 2});
        out.layout.numFields = 3;
        return out;
    }

    Lowered
    lowerJoin(const PlanNode &plan)
    {
        Lowered left = lower(*plan.children[0]);
        if (!isReferenceSubtree(*plan.children[1])) {
            fatal("mapper: join right side must be the reference "
                  "table");
        }
        if (!binding_.refSeq)
            fatal("mapper: reference join requires a refSeq buffer");
        if (!posForRef_) {
            fatal("mapper: reference join requires the read POS stream "
                  "(lower ReadExplode first, join the reference once)");
        }

        // The windowed reference subquery (PosExplode + LIMIT) reads each
        // read's [POS, ENDPOS): from an SPM that REFS.SEQ initialises,
        // or, with no SPM words bound, straight from device memory.
        auto *ref_q = queue("ref");
        if (binding_.spmWords > 0) {
            auto *refseq_q = queue("refseq");
            add<modules::MemoryReader>("MemoryReader", "rd_refseq",
                                       binding_.refSeq, b_.port(),
                                       refseq_q,
                                       modules::MemoryReaderConfig{});
            auto *spm = b_.scratchpad("ref_spm", binding_.spmWords, 1, 2);
            modules::SpmUpdaterConfig upd_cfg;
            upd_cfg.mode = modules::SpmUpdateMode::Sequential;
            auto *updater = add<modules::SpmUpdater>(
                "SpmUpdater", "spm_init", spm, refseq_q, upd_cfg);
            modules::SpmReaderConfig rd_cfg;
            rd_cfg.mode = modules::SpmReadMode::Interval;
            rd_cfg.addrBase = binding_.windowStart;
            rd_cfg.waitFor = updater;
            add<modules::SpmReader>("SpmReader", "spm_rd", spm, posForRef_,
                                    endposForRef_, ref_q, rd_cfg);
            trace_ << "SpmUpdater+SpmReader <- reference subquery "
                   << "(PosExplode/LIMIT window)\n";
        } else {
            modules::GatherReaderConfig gather_cfg;
            gather_cfg.addrBase = binding_.windowStart;
            add<modules::GatherReader>("MemoryReader", "gather_ref",
                                       binding_.refSeq, b_.port(),
                                       posForRef_, endposForRef_, ref_q,
                                       gather_cfg);
            trace_ << "GatherReader <- reference subquery "
                   << "(PosExplode/LIMIT window)\n";
        }
        posForRef_ = nullptr;

        modules::JoinerConfig join_cfg;
        switch (plan.joinType) {
          case sql::JoinType::Inner:
            join_cfg.mode = modules::JoinMode::Inner;
            break;
          case sql::JoinType::Left:
            join_cfg.mode = modules::JoinMode::Left;
            break;
          case sql::JoinType::Outer:
            join_cfg.mode = modules::JoinMode::Outer;
            break;
        }
        join_cfg.leftFields = left.layout.numFields;
        join_cfg.rightFields = 1;
        auto *joined_q = queue("joined");
        add<modules::Joiner>("Joiner", "join", left.queue, ref_q, joined_q,
                             join_cfg);
        trace_ << "Joiner <- " <<
            (plan.joinType == sql::JoinType::Inner ? "INNER"
             : plan.joinType == sql::JoinType::Left ? "LEFT" : "OUTER")
               << " JOIN ON position\n";

        Lowered out;
        out.queue = joined_q;
        out.layout = left.layout;
        // The reference value column answers to every reference alias.
        FieldSlot ref_slot{false, left.layout.numFields};
        for (const char *name : kRefTableNames)
            out.layout.add(std::string(name) + ".SEQ", ref_slot);
        out.layout.add("REFBP", ref_slot);
        out.layout.numFields = left.layout.numFields + 1;
        return out;
    }

    modules::FilterOperand
    operandFor(const Expr &expr, const Layout &layout) const
    {
        if (expr.kind == ExprKind::Literal)
            return modules::FilterOperand::constant_(
                expr.literal.asInt());
        FieldSlot slot = layout.resolve(expr);
        return slot.isKey ? modules::FilterOperand::key()
                          : modules::FilterOperand::field(
                                slot.fieldIndex);
    }

    modules::CompareOp
    compareOpFor(const std::string &op) const
    {
        if (op == "==")
            return modules::CompareOp::Eq;
        if (op == "!=")
            return modules::CompareOp::Ne;
        if (op == "<")
            return modules::CompareOp::Lt;
        if (op == "<=")
            return modules::CompareOp::Le;
        if (op == ">")
            return modules::CompareOp::Gt;
        if (op == ">=")
            return modules::CompareOp::Ge;
        fatal("mapper: comparison '%s' has no hardware filter",
              op.c_str());
    }

    Lowered
    lowerFilter(const PlanNode &plan)
    {
        Lowered in = lower(*plan.children[0]);
        const Expr &pred = *plan.predicate;
        if (pred.kind != ExprKind::Binary)
            fatal("mapper: only binary comparisons lower to Filter, "
                  "got %s", pred.str().c_str());
        modules::FilterConfig cfg;
        cfg.lhs = operandFor(*pred.args[0], in.layout);
        cfg.op = compareOpFor(pred.op);
        cfg.rhs = operandFor(*pred.args[1], in.layout);
        auto *out_q = queue("filtered");
        add<modules::Filter>("Filter", "filter", in.queue, out_q, cfg);
        trace_ << "Filter <- WHERE " << pred.str() << "\n";
        Lowered out;
        out.queue = out_q;
        out.layout = in.layout;
        return out;
    }

    Lowered
    lowerProject(const PlanNode &plan)
    {
        // Projection is pure wiring: rebind layout names to the selected
        // expressions (which must be plain columns).
        Lowered in = lower(*plan.children[0]);
        Lowered out;
        out.queue = in.queue;
        out.layout.numFields = in.layout.numFields;
        for (const auto &o : plan.outputs) {
            if (o.expr->kind != ExprKind::ColumnRef) {
                fatal("mapper: projection of computed expression %s is "
                      "not supported", o.expr->str().c_str());
            }
            out.layout.add(o.name, in.layout.resolve(*o.expr));
        }
        trace_ << "(wiring) <- Project\n";
        return out;
    }

    Lowered
    lowerAggregate(const PlanNode &plan)
    {
        Lowered in = lower(*plan.children[0]);
        if (plan.outputs.size() != 1 || !plan.groupBy.empty()) {
            fatal("mapper: only single global aggregates lower to a "
                  "Reducer (per-read grouping is implied by streaming)");
        }
        const Expr &agg = *plan.outputs[0].expr;
        if (agg.kind != ExprKind::Call)
            fatal("mapper: aggregate output must be an aggregate call");

        modules::ReducerConfig red;
        red.granularity = modules::ReduceGranularity::PerItem;
        sim::HardwareQueue *out_q = nullptr;
        if (agg.name == "COUNT" && agg.args.size() == 1 &&
            agg.args[0]->kind == ExprKind::Star) {
            red.op = modules::ReduceOp::Count;
            out_q = queue("count");
            add<modules::Reducer>("Reducer", "count", in.queue, out_q, red);
            result_ = "cnt";
            trace_ << "Reducer(COUNT) <- COUNT(*)\n";
        } else if (agg.name == "SUM" && agg.args.size() == 1 &&
                   agg.args[0]->kind == ExprKind::Binary &&
                   agg.args[0]->op == "==") {
            // SUM of a boolean comparison counts the flits it holds for:
            // a Filter drops the others ahead of a counting Reducer.
            modules::FilterConfig match;
            match.lhs = operandFor(*agg.args[0]->args[0], in.layout);
            match.op = modules::CompareOp::Eq;
            match.rhs = operandFor(*agg.args[0]->args[1], in.layout);
            auto *match_q = queue("match");
            add<modules::Filter>("Filter", "match", in.queue, match_q,
                                 match);
            red.op = modules::ReduceOp::Count;
            out_q = queue("count");
            add<modules::Reducer>("Reducer", "count", match_q, out_q, red);
            result_ = "cnt";
            trace_ << "Filter+Reducer(COUNT) <- SUM("
                   << agg.args[0]->str() << ")\n";
        } else if (agg.name == "SUM" && agg.args.size() == 1 &&
                   agg.args[0]->kind == ExprKind::ColumnRef) {
            FieldSlot slot = in.layout.resolve(*agg.args[0]);
            red.op = modules::ReduceOp::Sum;
            red.valueField = slot.isKey ? -1 : slot.fieldIndex;
            out_q = queue("sum");
            add<modules::Reducer>("Reducer", "sum", in.queue, out_q, red);
            result_ = "sum";
            trace_ << "Reducer(SUM) <- SUM(" << agg.args[0]->str()
                   << ")\n";
        } else {
            fatal("mapper: aggregate %s has no hardware lowering",
                  agg.str().c_str());
        }

        Lowered out;
        out.queue = out_q;
        out.layout.add("RESULT", {false, 0});
        out.layout.numFields = 1;
        return out;
    }

    PipelineBuilder &b_;
    runtime::AcceleratorSession &s_;
    const QueryBinding &binding_;
    /** Whether the plan joins the reference (decides the POS fork). */
    const bool joinsReference_;
    /** The forked POS and the ENDPOS stream the reference reader takes. */
    sim::HardwareQueue *posForRef_ = nullptr;
    sim::HardwareQueue *endposForRef_ = nullptr;
    /** Names the writer (`wr_cnt`, `wr_sum`) after the result. */
    std::string result_ = "out";
    std::map<std::string, int> queueUses_;
    std::map<std::string, int> moduleUses_;
    std::ostringstream trace_;
};

} // namespace

MappedQuery
mapPlanToPipeline(PipelineBuilder &builder,
                  runtime::AcceleratorSession &session,
                  const PlanNode &plan, const QueryBinding &binding)
{
    // Split conjunctive WHERE predicates into single-comparison Filter
    // nodes (the hardware Filter evaluates one comparison) and order
    // them by estimated selectivity, so the filter that discards the
    // most flits sits earliest in the stream, ahead of the SPM stage.
    sql::OptimizerOptions oo;
    oo.ruleMask = sql::kRuleSplit | sql::kRuleFilterOrder;
    sql::PlanPtr optimized = sql::optimizePlan(plan.clone(), oo);

    Lowering lowering(builder, session, binding,
                      joinsReference(*optimized));
    return lowering.run(*optimized);
}

} // namespace genesis::pipeline
