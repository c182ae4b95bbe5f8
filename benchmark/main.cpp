/**
 * @file
 * genesis_benchmark: runs one benchmark workload and writes its raw
 * samples as JSON. benchmark/run.py builds and drives it; see
 * benchmark/README.md.
 *
 *   genesis_benchmark --workload NAME --seconds S --json-out FILE
 *                     [--seed N] [--trace-out FILE] [--smoke]
 *
 * Exit status: 0 when every check passed, 1 on any mismatch or failed
 * operation, 2 on a usage error or an uncaught library error.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "base/logging.h"
#include "workloads.h"

using namespace genesis;
using namespace genesis::benchmark;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "genesis_benchmark: %s\nusage: genesis_benchmark "
                 "--workload stages16|sql_mapped "
                 "--seconds S --json-out FILE [--seed N] "
                 "[--trace-out FILE] [--smoke]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, void (*)(const Options &, Results &)>
        workloads = {{"stages16", runStages16},
                     {"sql_mapped", runSqlMapped}};

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opts.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = val;
        } else if (arg == "--json-out") {
            opts.jsonOut = val;
        } else if (arg == "--trace-out") {
            opts.traceOut = val;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(val, &end, 10);
            if (*val == '\0' || *end != '\0')
                return usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(val, &end);
            if (*val == '\0' || *end != '\0' || !(opts.seconds > 0))
                return usage("--seconds takes a positive number");
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    auto it = workloads.find(opts.workload);
    if (it == workloads.end())
        return usage(("unknown workload '" + opts.workload + "'").c_str());
    if (!(opts.seconds > 0))
        return usage("--seconds is required");
    if (opts.jsonOut.empty())
        return usage("--json-out is required");

    Results results;
    try {
        it->second(opts, results);
    } catch (const FatalError &e) {
        results.attempt(false, std::string("fatal: ") + e.what());
    } catch (const PanicError &e) {
        results.attempt(false, std::string("panic: ") + e.what());
    }
    results.sample("peak_rss_mb", "MB", peakRssMb());
    if (!results.writeJson(opts.jsonOut, opts)) {
        std::fprintf(stderr, "genesis_benchmark: cannot write %s\n",
                     opts.jsonOut.c_str());
        return 2;
    }
    return results.correct() ? 0 : 1;
}
