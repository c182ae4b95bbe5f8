#include "gatk/preprocess.h"

#include <sstream>

#include "base/timer.h"

namespace genesis::gatk {

double
StageTimes::total() const
{
    return alignment + duplicateMarking + metadataUpdate +
        bqsrTableConstruction + bqsrQualityUpdate;
}

std::string
StageTimes::breakdownStr() const
{
    double t = total();
    auto pct = [t](double x) { return t > 0 ? 100.0 * x / t : 0.0; };
    std::ostringstream os;
    os.precision(1);
    os << std::fixed;
    os << "Alignment " << pct(alignment) << "%"
       << " | Duplicate Marking " << pct(duplicateMarking) << "%"
       << " | Metadata Update " << pct(metadataUpdate) << "%"
       << " | BQSR (covariate table) " << pct(bqsrTableConstruction)
       << "%"
       << " | BQSR (quality update) " << pct(bqsrQualityUpdate) << "%";
    return os.str();
}

PreprocessResult
runPreprocess(std::vector<genome::AlignedRead> &reads,
              const genome::ReferenceGenome &genome,
              const PreprocessOptions &options)
{
    PreprocessResult result;
    result.covariates = CovariateTable(options.bqsr);

    if (options.alignmentAcceleratorReadsPerSec > 0) {
        // Model a GenAx-class alignment accelerator: runtime is simply
        // reads / throughput (Section IV-A).
        result.times.alignment = static_cast<double>(reads.size()) /
            options.alignmentAcceleratorReadsPerSec;
    } else if (options.runAligner) {
        ScopedTimer timer(result.times.alignment);
        ReadAligner aligner(genome);
        result.mappedFraction = aligner.alignAll(reads);
    }

    {
        ScopedTimer timer(result.times.duplicateMarking);
        result.dupStats = markDuplicates(reads);
    }
    {
        ScopedTimer timer(result.times.metadataUpdate);
        setNmMdUqTags(reads, genome);
    }
    {
        ScopedTimer timer(result.times.bqsrTableConstruction);
        result.covariates = buildCovariateTable(reads, genome,
                                                options.bqsr);
    }
    {
        ScopedTimer timer(result.times.bqsrQualityUpdate);
        result.qualityValuesChanged =
            applyQualityUpdate(reads, result.covariates);
    }
    return result;
}

} // namespace genesis::gatk
