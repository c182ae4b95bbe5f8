/**
 * @file
 * Logical-plan -> hardware-pipeline mapper (Section III-D).
 *
 * The paper constructs accelerators manually from the hardware library
 * but envisions automating the translation: "each node in the [query
 * plan] graph can be mapped to a Genesis hardware module, and each edge
 * to a hardware queue". This mapper implements that translation for the
 * streaming query class the paper's accelerators belong to:
 *
 *   [INSERT INTO out] Aggregate( ... )
 *       <- Filter*                       (Filter module)
 *       <- Join(ReadExplode(...), ref)   (Joiner + SPM reader)
 *       <- ReadExplode(POS,CIGAR,SEQ[,QUAL])  (ReadToBases + readers)
 *
 * The FOR-row-IN-table iteration of the SQL form becomes hardware
 * streaming: the per-read loop body is fused into a single plan (temp
 * tables inlined), per-read aggregation becomes per-item reduction, and
 * the LIMIT-windowed reference subquery becomes the interval SPM read
 * driven by POS/ENDPOS (a GatherReader from device memory when the
 * binding has no SPM words).
 *
 * This is the only Figure-7 design: core::ExampleAccelerator wires each
 * lane by lowering the Figure-4 script here. Memory-port order is part
 * of the modeled hardware (it sets arbitration), and module, queue and
 * scratchpad names key the statistics, so both are fixed: readers claim
 * ports in the order POS, ENDPOS, CIGAR, SEQ, QUAL, reference, writer,
 * and a repeated lowering (a second WHERE Filter) is numbered
 * (`filter`, `filter_2`).
 */

#ifndef GENESIS_PIPELINE_MAPPER_H
#define GENESIS_PIPELINE_MAPPER_H

#include <string>

#include "modules/stream_buffer.h"
#include "pipeline/builder.h"
#include "runtime/api.h"
#include "sql/ast.h"
#include "sql/plan.h"

namespace genesis::pipeline {

/** Result of mapping: the pipeline's output buffer. */
struct MappedQuery {
    modules::ColumnBuffer *output = nullptr;
    /** Human-readable lowering trace (module per plan node). */
    std::string trace;
};

/**
 * Fuse a parsed Figure-4-style script into one logical plan: the last
 * INSERT inside the FOR loop is the root; scans of loop-local temp
 * tables are replaced by the plans that created them.
 * Throws FatalError when the script has no FOR loop with a final INSERT.
 */
sql::PlanPtr fuseScriptToPlan(const sql::Script &script);

/**
 * Lower a fused plan onto hardware modules inside the builder.
 * Throws FatalError with a precise reason for unsupported plan shapes.
 */
MappedQuery mapPlanToPipeline(PipelineBuilder &builder,
                              runtime::AcceleratorSession &session,
                              const sql::PlanNode &plan,
                              const QueryBinding &binding);

} // namespace genesis::pipeline

#endif // GENESIS_PIPELINE_MAPPER_H
