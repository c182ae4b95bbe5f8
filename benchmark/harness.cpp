#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <unordered_map>

#include "genome/read_simulator.h"

namespace genesis::benchmark {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

/** All digits of `v`; null when it is not finite (JSON has no nan or
 *  inf), which run.py reports as a failed measurement. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Times a fixed kernel that owes nothing to the code under test: a
 * std::sort of 200 000 pseudo-random 64-bit keys (1.6 MB), then a
 * std::unordered_map of 100 003 buckets filled and probed with them.
 * Branchy, allocating, cache-missing integer code, it slows down with
 * the host the way a simulator pass or the SQL engine does (clock,
 * core, caches and memory shared with other tenants), so run.py
 * divides host times by it.
 */
class HostProbe
{
  public:
    HostProbe() : keys_(200'000)
    {
        std::mt19937_64 rng(5);
        for (uint64_t &k : keys_)
            k = rng();
    }

    /** Milliseconds for one run of the kernel. */
    double
    runMs()
    {
        std::vector<uint64_t> sorted = keys_;
        const int64_t t0 = nowNs();
        std::sort(sorted.begin(), sorted.end());
        std::unordered_map<uint64_t, uint64_t> sums;
        for (uint64_t k : keys_)
            sums[k % 100'003] += k;
        uint64_t hits = 0;
        for (uint64_t k : keys_)
            hits += sums.count(k % 50'021);
        const double ms = secondsSince(t0) * 1e3;
        sink_ = sorted[sorted.size() / 2] + hits + sums.size();
        return ms;
    }

  private:
    std::vector<uint64_t> keys_;
    volatile uint64_t sink_ = 0;
};

} // namespace

void
Results::sample(const std::string &name, const std::string &unit,
                double value)
{
    Metric &m = metrics_[name];
    m.unit = unit;
    m.samples.push_back(value);
}

void
Results::exact(const std::string &name, const std::string &unit,
               double value)
{
    sample(name, unit, value);
    metrics_[name].exact = true;
}

void
Results::attempt(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(what);
        std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    }
}

void
Results::mergeLedger(const Results &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &f : other.failures_) {
        if (failures_.size() < 20)
            failures_.push_back(f);
    }
}

bool
Results::writeJson(const std::string &path, const Options &opts) const
{
    std::string out = "{\"workload\": " + jsonString(opts.workload) +
        ", \"seed\": " + std::to_string(opts.seed) +
        ", \"seconds\": " + jsonNumber(opts.seconds) +
        ", \"smoke\": " + (opts.smoke ? "true" : "false") +
        ", \"host_threads\": " + std::to_string(hostThreads()) +
        ", \"attempted\": " + std::to_string(attempted_) +
        ", \"failed\": " + std::to_string(failed_) + ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i)
        out += (i ? ", " : "") + jsonString(failures_[i]);
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        out += (first ? "\n" : ",\n") + jsonString(name) +
            ": {\"unit\": " + jsonString(m.unit) +
            ", \"exact\": " + (m.exact ? "true" : "false") +
            ", \"samples\": [";
        for (size_t i = 0; i < m.samples.size(); ++i)
            out += (i ? ", " : "") + jsonNumber(m.samples[i]);
        out += "]}";
        first = false;
    }
    out += "\n}}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
}

Inputs
makeInputs(int64_t pairs, uint64_t seed, int64_t first_bp)
{
    Inputs in;
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = 2;
    gcfg.firstChromosomeLength = first_bp;
    gcfg.lengthDecay = 0.6;
    gcfg.minChromosomeLength = first_bp / 3;
    gcfg.seed = seed;
    in.genome = genome::ReferenceGenome::synthesize(gcfg);

    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = pairs;
    rcfg.seed = seed * 17 + 3;
    in.reads = genome::ReadSimulator(in.genome, rcfg).simulate().reads;
    return in;
}

double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t
sumModuleCounters(const StatRegistry &stats, const std::string &suffix)
{
    uint64_t sum = 0;
    for (const auto &[name, value] : stats.counters()) {
        if (name.size() > suffix.size() && name.rfind("queue.", 0) != 0 &&
            name.rfind("mem.", 0) != 0 && name.rfind("spm.", 0) != 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    }
    return sum;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

void
timeSetup(Results &results, const std::function<void()> &setup)
{
    const int64_t t0 = nowNs();
    setup();
    results.sample("host.setup_s", "s", secondsSince(t0));
}

double
timedPasses(const Options &opts, Results &results, const PassFn &pass,
            const std::function<void()> &setup)
{
    const size_t min_passes = opts.smoke ? 1 : 3;
    {
        Results discard;
        pass(discard);
        results.mergeLedger(discard);
    }
    std::vector<double> walls;
    HostProbe probe;
    int64_t window = nowNs();
    while (walls.size() < min_passes ||
           secondsSince(window) < opts.seconds) {
        timeSetup(results, setup);
        results.sample("host.probe_ms", "ms", probe.runMs());
        double wall = pass(results);
        results.sample("host.probe_ms", "ms", probe.runMs());
        walls.push_back(wall);
        results.sample("host.pass_ms", "ms", wall * 1e3);
    }
    return median(walls);
}

void
tracedPass(const Options &opts, Results &results, SpanRecorder &rec,
           double untraced, const PassFn &pass)
{
    if (opts.traceOut.empty())
        return;
    Results discard;
    rec.setEnabled(true);
    int root = rec.begin("bench.pass", 0);
    double traced = pass(discard);
    rec.end(root);
    rec.setEnabled(false);
    results.mergeLedger(discard);

    results.sample("trace.overhead_frac", "ratio", traced / untraced - 1.0);
    for (const auto &[layer, secs] : rec.selfSecondsByLayer())
        results.sample("self." + layer + "_ms", "ms", secs * 1e3);
    double frac = rec.treeSelfFraction(root);
    results.sample("trace.self_sum_frac", "ratio", frac);
    results.attempt(frac > 0.95 && frac < 1.05,
                    "traced pass: layer self times sum to " +
                        std::to_string(frac) + " of its wall time");
    results.attempt(rec.writeChromeJson(opts.traceOut,
                                        "genesis benchmark " +
                                            opts.workload),
                    "cannot write trace " + opts.traceOut);
}

} // namespace genesis::benchmark
