/**
 * @file
 * Shared plumbing for the benchmark workloads: options, the sample
 * sink every metric goes through, input synthesis, host clocks, and the
 * warm-up + timed-pass loop.
 *
 * A workload records raw samples per metric; run.py turns them into
 * medians and quartiles, and derives the host-time end-to-end metrics
 * from the `host.*` samples. Every sample comes from an untraced pass; the
 * one traced pass only adds the span self times and the tracing
 * overhead.
 */

#ifndef GENESIS_BENCHMARK_HARNESS_H
#define GENESIS_BENCHMARK_HARNESS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/stats.h"
#include "genome/read.h"
#include "genome/reference.h"
#include "span.h"

namespace genesis::benchmark {

struct Options {
    std::string workload;
    uint64_t seed = 2020;
    /** Length of the timed window (after warm-up); --seconds, required. */
    double seconds = 0;
    /** Chrome-trace output path; empty = no traced pass. */
    std::string traceOut;
    /** Results JSON output path. */
    std::string jsonOut;
    /** Tiny sizes for the ctest bit-rot check. */
    bool smoke = false;
};

/** Raw samples per metric, plus the operation ledger. */
class Results
{
  public:
    void sample(const std::string &name, const std::string &unit,
                double value);

    /** A sample of a simulated or modeled value: it must repeat
     *  bit-for-bit for the same seed (repeat_check.py enforces it). */
    void exact(const std::string &name, const std::string &unit,
               double value);

    /** One checked operation; `ok` false counts it as failed. */
    void attempt(bool ok, const std::string &what);

    /** Add another sink's operation ledger (not its samples). */
    void mergeLedger(const Results &other);

    /** True when at least one operation ran and none failed. */
    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** Write the results JSON (workload, ledger, samples, failures). */
    bool writeJson(const std::string &path, const Options &opts) const;

  private:
    struct Metric {
        std::string unit;
        bool exact = false;
        std::vector<double> samples;
    };
    std::map<std::string, Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** A reference genome plus its simulated, aligned reads. */
struct Inputs {
    genome::ReferenceGenome genome;
    std::vector<genome::AlignedRead> reads;
};

/**
 * Synthesize the inputs from the workload seed: a two-chromosome
 * reference (`first_bp` + 0.6 x `first_bp`) and `pairs` read pairs with
 * duplicates, indels, clips and biased errors.
 */
Inputs makeInputs(int64_t pairs, uint64_t seed, int64_t first_bp);

/** Seconds since `start_ns` (a nowNs() value). */
double secondsSince(int64_t start_ns);

/** User + system CPU seconds of the whole process (all threads). */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMb();

/** Hardware threads on this host (at least 1). */
int hostThreads();

/**
 * Σ of every simulator module counter named "<module><suffix>" in a
 * Simulator::collectStats() registry (queue, memory and SPM counters
 * excluded), e.g. ".flits" or ".stall.memory".
 */
uint64_t sumModuleCounters(const StatRegistry &stats,
                           const std::string &suffix);

/** Median of a sample vector (nearest rank; 0 when empty). */
double median(std::vector<double> values);

/**
 * Run `setup` once and record its wall time as a `host.setup_s` sample,
 * from which run.py derives `setup_s`. Workloads repeat set-up before
 * every pass (replacing its product with an identical one), so the
 * samples span the whole run.
 */
void timeSetup(Results &results, const std::function<void()> &setup);

/** One pass: runs with the sink it is given, returns its wall seconds
 *  as the workload defines them (the `host.pass_ms` sample). */
using PassFn = std::function<double(Results &)>;

/**
 * An untimed warm-up pass, then timed passes until `opts.seconds`
 * elapsed and at least 3 ran (1 in smoke mode). Before each timed pass,
 * outside its timer, `setup` runs again through timeSetup(); a fixed
 * host-speed probe records a `host.probe_ms` sample before and after
 * the pass, which records its wall time as a `host.pass_ms` sample.
 * run.py derives `latency_ms` and `setup_s` from these three. Returns
 * the median pass time in seconds.
 */
double timedPasses(const Options &opts, Results &results, const PassFn &pass,
                   const std::function<void()> &setup);

/**
 * When `opts.traceOut` is set: one more pass with span recording on
 * under a `bench.pass` root span. Its samples are discarded (its
 * checks still count); it records `trace.overhead_frac` (traced value
 * over `untraced` minus one), `self.<layer>_ms` for every layer, and
 * fails the run unless the root's same-track self times sum to within
 * 5 % of its wall time. Writes the Chrome trace to `opts.traceOut`.
 */
void tracedPass(const Options &opts, Results &results, SpanRecorder &rec,
                double untraced, const PassFn &pass);

} // namespace genesis::benchmark

#endif // GENESIS_BENCHMARK_HARNESS_H
