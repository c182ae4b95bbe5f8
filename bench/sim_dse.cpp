/**
 * @file
 * Design-space exploration sweep over the Genesis hardware models
 * (ROADMAP item 5, DESIGN.md §10).
 *
 * Sweeps the default grid — 3 accelerators x pipeline replication x SPM
 * partition size x memory preset (DDR4 / near-bank PIM) x PCIe
 * generation x clock — one full simulation per point, points farmed
 * across host cores, and prints the Pareto frontiers of simulated
 * throughput vs $/genome vs VU9P utilization. The frontier JSON is
 * byte-identical at any worker count (see src/dse/dse.h).
 *
 * Flags:
 *   --out FILE    write the sweep JSON to FILE (default: stdout)
 *   --workers N   concurrent points (default: auto; also
 *                 GENESIS_DSE_WORKERS, which the flag overrides)
 *   --pairs N     synthetic read pairs (default: 400; also
 *                 GENESIS_DSE_PAIRS, which the flag overrides)
 *   --check       run the frontier sanity gate; exit 1 on any problem
 *                 (non-empty, monotone front; used by CI)
 *
 * A flag value that fails validation (--pairs 0) exits 2 with the
 * error's message.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "base/env.h"
#include "base/logging.h"
#include "bench_common.h"
#include "dse/dse.h"

using namespace genesis;

namespace {

const char *
argValue(int argc, char **argv, const char *flag)
{
    const size_t flag_len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], flag, flag_len) == 0 &&
            argv[i][flag_len] == '=')
            return argv[i] + flag_len + 1;
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[i + 1];
    }
    return nullptr;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    dse::SweepSpec spec = dse::SweepSpec::defaultGrid();
    spec.numPairs = envInt64("GENESIS_DSE_PAIRS", spec.numPairs, 1);
    if (const char *pairs = argValue(argc, argv, "--pairs"))
        spec.numPairs = bench::flagNumber<long long>("--pairs", pairs);

    dse::HarnessOptions options;
    options.workers = static_cast<int>(
        envInt64("GENESIS_DSE_WORKERS", options.workers, 0, 1024));
    if (const char *workers = argValue(argc, argv, "--workers"))
        options.workers = static_cast<int>(
            bench::flagNumber<long long>("--workers", workers));

    std::fprintf(stderr, "sim_dse: sweeping %zu points (%lld pairs)\n",
                 spec.numPoints(),
                 static_cast<long long>(spec.numPairs));
    dse::SweepResult result =
        bench::checkedFlags([&] { return dse::runSweep(spec, options); });

    const std::string json = dse::toJson(result);
    const char *out = argValue(argc, argv, "--out");
    if (out) {
        FILE *f = std::fopen(out, "w");
        if (!f) {
            std::fprintf(stderr, "sim_dse: cannot open %s\n", out);
            return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "sim_dse: wrote %s\n", out);
    } else {
        std::fwrite(json.data(), 1, json.size(), stdout);
    }
    std::fputs(dse::summary(result).c_str(), stderr);

    if (hasFlag(argc, argv, "--check")) {
        std::vector<std::string> problems = dse::checkFrontier(result);
        for (const auto &p : problems)
            std::fprintf(stderr, "FAIL: %s\n", p.c_str());
        if (!problems.empty())
            return 1;
        std::fprintf(stderr, "frontier sanity: OK (%zu frontiers)\n",
                     result.frontiers.size());
    }
    return 0;
}
