/**
 * @file
 * PipelineBuilder: scoped construction of one hardware pipeline.
 *
 * Wraps a Simulator with pipeline-local naming, routes every memory
 * module's port through this pipeline's local arbiter group (Figure 8),
 * and keeps a census of instantiated module kinds and SPM bits that the
 * FPGA resource model consumes. A QueryBinding names the device buffers
 * a pipeline reads.
 */

#ifndef GENESIS_PIPELINE_BUILDER_H
#define GENESIS_PIPELINE_BUILDER_H

#include <map>
#include <string>

#include "sim/scheduler.h"

namespace genesis::modules {
struct ColumnBuffer;
} // namespace genesis::modules

namespace genesis::pipeline {

/**
 * The device buffers of the columns one pipeline reads (Table I layout)
 * and where its reference window sits. core::stagePartition() fills one
 * per lane; the mapper lowers a query onto it.
 */
struct QueryBinding {
    const modules::ColumnBuffer *pos = nullptr;
    const modules::ColumnBuffer *endpos = nullptr;
    const modules::ColumnBuffer *cigar = nullptr;
    const modules::ColumnBuffer *seq = nullptr;
    const modules::ColumnBuffer *qual = nullptr;
    const modules::ColumnBuffer *flags = nullptr;
    const modules::ColumnBuffer *refSeq = nullptr;
    const modules::ColumnBuffer *refSnp = nullptr;
    /** First reference position of the window REFS.SEQ holds. */
    int64_t windowStart = 0;
    /**
     * Reference SPM size: the window plus its (stretched) overlap. The
     * mapper reads the reference from an SPM of this many words, or,
     * when it is 0, straight from device memory (a GatherReader).
     */
    size_t spmWords = 1;
};

/** Census of one accelerator's instantiated hardware. */
struct HardwareCensus {
    /** Module kind -> instance count (across all pipelines). */
    std::map<std::string, int> moduleCounts;
    /** Total queue count (across all pipelines). */
    int queueCount = 0;
    /** Total architectural SPM bits (across all pipelines). */
    uint64_t spmBits = 0;
    /** Number of replicated pipelines. */
    int numPipelines = 0;

    /** Merge another census into this one. */
    void merge(const HardwareCensus &other);
};

/** Builder for one pipeline inside a Simulator. */
class PipelineBuilder
{
  public:
    /**
     * @param sim the simulator hosting the design
     * @param pipeline_id index of this pipeline (= local arbiter group)
     */
    PipelineBuilder(sim::Simulator &sim, int pipeline_id);

    int pipelineId() const { return pipelineId_; }
    sim::Simulator &simulator() { return sim_; }

    /** Create a pipeline-scoped queue. */
    sim::HardwareQueue *
    queue(const std::string &suffix,
          size_t capacity = sim::HardwareQueue::kDefaultCapacity);

    /** Create a memory port in this pipeline's local arbiter group. */
    sim::MemoryPort *port();

    /**
     * Create a pipeline-scoped scratchpad.
     * @param arch_bits_per_word architectural storage bits per word for
     *        resource accounting (e.g. 2 for packed bases); defaults to
     *        8 * word_bytes
     */
    sim::Scratchpad *scratchpad(const std::string &suffix,
                                size_t size_words, uint32_t word_bytes = 8,
                                int arch_bits_per_word = -1);

    /** Construct a module, recording its kind in the census. */
    template <typename T, typename... Args>
    T *
    add(const std::string &kind, const std::string &suffix,
        Args &&...args)
    {
        ++census_.moduleCounts[kind];
        return sim_.make<T>(scopedName(suffix),
                            std::forward<Args>(args)...);
    }

    /** @return "p<id>.<suffix>". */
    std::string scopedName(const std::string &suffix) const;

    /** @return the census accumulated so far (numPipelines = 1). */
    const HardwareCensus &census() const { return census_; }

  private:
    sim::Simulator &sim_;
    int pipelineId_;
    HardwareCensus census_;
};

} // namespace genesis::pipeline

#endif // GENESIS_PIPELINE_BUILDER_H
