/**
 * @file
 * Shared test helpers: vector-backed source/sink modules for driving
 * individual hardware modules, and small workload factories.
 */

#ifndef GENESIS_TESTS_SIM_TEST_UTILS_H
#define GENESIS_TESTS_SIM_TEST_UTILS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "genome/read_simulator.h"
#include "genome/reference.h"
#include "sim/module.h"

namespace genesis::test {

/** Emits a fixed flit sequence, one per cycle, then closes. */
class VectorSource : public sim::Module
{
  public:
    VectorSource(std::string name, sim::HardwareQueue *out,
                 std::vector<sim::Flit> flits)
        : Module(std::move(name)), out_(out), flits_(std::move(flits))
    {
    }

    void
    tick() override
    {
        if (closed_ || !out_->canPush())
            return;
        if (cursor_ < flits_.size()) {
            out_->push(flits_[cursor_++]);
            return;
        }
        out_->close();
        closed_ = true;
    }

    bool done() const override { return closed_; }

  private:
    sim::HardwareQueue *out_;
    std::vector<sim::Flit> flits_;
    size_t cursor_ = 0;
    bool closed_ = false;
};

/** Collects every flit from a queue until it drains. */
class VectorSink : public sim::Module
{
  public:
    VectorSink(std::string name, sim::HardwareQueue *in)
        : Module(std::move(name)), in_(in)
    {
    }

    void
    tick() override
    {
        if (in_->canPop()) {
            collected_.push_back(in_->front());
            in_->pop();
            return;
        }
        if (in_->drained())
            finished_ = true;
    }

    bool done() const override { return finished_; }

    const std::vector<sim::Flit> &collected() const { return collected_; }

    /** @return only the data (non-boundary) flits. */
    std::vector<sim::Flit>
    dataFlits() const
    {
        std::vector<sim::Flit> out;
        for (const auto &f : collected_) {
            if (!sim::isBoundary(f))
                out.push_back(f);
        }
        return out;
    }

  private:
    sim::HardwareQueue *in_;
    std::vector<sim::Flit> collected_;
    bool finished_ = false;
};

/** FNV-1a (64-bit) offset basis: the digest of no bytes. */
constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/** Fold `bytes` into a running FNV-1a (64-bit) digest. */
inline uint64_t
fnv1a(uint64_t hash, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** FNV-1a (64-bit) over a stat map's sorted "name=value" lines. */
inline uint64_t
statDigest(const std::map<std::string, uint64_t> &stats)
{
    uint64_t hash = kFnvOffsetBasis;
    for (const auto &[name, value] : stats)
        hash = fnv1a(hash, name + "=" + std::to_string(value) + "\n");
    return hash;
}

/** A small deterministic genome + reads workload for integration tests. */
struct SmallWorkload {
    genome::ReferenceGenome genome;
    genome::SimulatedReads reads;
};

inline SmallWorkload
makeSmallWorkload(uint64_t seed = 7, int64_t num_pairs = 200,
                  int64_t chrom_length = 60'000, int num_chromosomes = 2)
{
    SmallWorkload w;
    genome::SyntheticGenomeConfig gcfg;
    gcfg.numChromosomes = num_chromosomes;
    gcfg.firstChromosomeLength = chrom_length;
    gcfg.minChromosomeLength = chrom_length / 2;
    gcfg.snpDensity = 0.01;
    gcfg.seed = seed;
    w.genome = genome::ReferenceGenome::synthesize(gcfg);

    genome::ReadSimulatorConfig rcfg;
    rcfg.numPairs = num_pairs;
    rcfg.seed = seed * 31 + 1;
    genome::ReadSimulator simulator(w.genome, rcfg);
    w.reads = simulator.simulate();
    return w;
}

} // namespace genesis::test

#endif // GENESIS_TESTS_SIM_TEST_UTILS_H
