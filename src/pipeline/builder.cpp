#include "pipeline/builder.h"

namespace genesis::pipeline {

void
HardwareCensus::merge(const HardwareCensus &other)
{
    for (const auto &[kind, count] : other.moduleCounts)
        moduleCounts[kind] += count;
    queueCount += other.queueCount;
    spmBits += other.spmBits;
    numPipelines += other.numPipelines;
}

PipelineBuilder::PipelineBuilder(sim::Simulator &sim, int pipeline_id)
    : sim_(sim), pipelineId_(pipeline_id)
{
    census_.numPipelines = 1;
}

std::string
PipelineBuilder::scopedName(const std::string &suffix) const
{
    return "p" + std::to_string(pipelineId_) + "." + suffix;
}

sim::HardwareQueue *
PipelineBuilder::queue(const std::string &suffix, size_t capacity)
{
    ++census_.queueCount;
    return sim_.makeQueue(scopedName(suffix), capacity);
}

sim::MemoryPort *
PipelineBuilder::port()
{
    return sim_.memory().makePort(pipelineId_);
}

sim::Scratchpad *
PipelineBuilder::scratchpad(const std::string &suffix, size_t size_words,
                            uint32_t word_bytes, int arch_bits_per_word)
{
    if (arch_bits_per_word < 0)
        arch_bits_per_word = static_cast<int>(8 * word_bytes);
    census_.spmBits += static_cast<uint64_t>(size_words) *
        static_cast<uint64_t>(arch_bits_per_word);
    return sim_.makeScratchpad(scopedName(suffix), size_words, word_bytes);
}

} // namespace genesis::pipeline
