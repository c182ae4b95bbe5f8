/**
 * @file
 * JOB-style SQL join benchmark over a genomic star schema.
 *
 * Four fixed multi-join queries (READS -> SAMPLES -> COHORTS star plus
 * a POS-keyed VARIANTS side) run through three executor modes:
 *
 *  - "naive":      optimizer off, row-at-a-time interpretation
 *                  (nested-loop joins, no pushdown);
 *  - "optimized":  full rewrite pass (pushdown, hash joins, reorder),
 *                  row-at-a-time execution;
 *  - "vectorized": full rewrite pass + batched columnar operators.
 *
 * Every mode's result table is checked bit-identical against the naive
 * run before any timing is reported — a speedup that changes answers is
 * a bug, not a win. Output is one JSON object per line for CI trending
 * (scripts/check_perf.py). Scale with GENESIS_BENCH_PAIRS; with
 * `--require-speedup X` the bench exits non-zero unless the vectorized
 * mode is at least X times faster than naive over the whole suite.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_common.h"
#include "engine/executor.h"
#include "table/table.h"

using namespace genesis;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

namespace {

/** READS -> SAMPLES -> COHORTS star plus a POS-keyed VARIANTS side. */
engine::Catalog
makeStarCatalog(int64_t pairs, uint64_t seed)
{
    Rng rng(seed);
    const int64_t reads = 2 * pairs;
    const int64_t samples = std::max<int64_t>(8, pairs / 16);
    const int64_t cohorts = 16;
    const int64_t variants = std::max<int64_t>(16, pairs / 2);
    const int64_t span = 4 * reads;

    engine::Catalog cat;
    {
        Schema s;
        s.addField("ID", DataType::Int64);
        s.addField("SAMPLE_ID", DataType::Int64);
        s.addField("POS", DataType::Int64);
        s.addField("MAPQ", DataType::Int64);
        s.addField("FLAGS", DataType::Int64);
        Table t("READS", s);
        for (int64_t i = 0; i < reads; ++i) {
            Value mapq = rng.below(20) == 0
                ? Value()
                : Value(static_cast<int64_t>(rng.below(60)));
            t.appendRow({Value(i),
                         Value(static_cast<int64_t>(rng.below(
                             static_cast<uint64_t>(samples)))),
                         Value(static_cast<int64_t>(rng.below(
                             static_cast<uint64_t>(span)))),
                         mapq,
                         Value(static_cast<int64_t>(rng.below(4)))});
        }
        cat.put("READS", std::move(t));
    }
    {
        Schema s;
        s.addField("SAMPLE_ID", DataType::Int64);
        s.addField("COHORT_ID", DataType::Int64);
        s.addField("QUALITY", DataType::Int64);
        Table t("SAMPLES", s);
        for (int64_t i = 0; i < samples; ++i) {
            t.appendRow({Value(i),
                         Value(static_cast<int64_t>(rng.below(
                             static_cast<uint64_t>(cohorts)))),
                         Value(static_cast<int64_t>(rng.below(100)))});
        }
        cat.put("SAMPLES", std::move(t));
    }
    {
        Schema s;
        s.addField("COHORT_ID", DataType::Int64);
        s.addField("REGION", DataType::Int64);
        s.addField("WEIGHT", DataType::Int64);
        Table t("COHORTS", s);
        for (int64_t i = 0; i < cohorts; ++i) {
            t.appendRow({Value(i),
                         Value(static_cast<int64_t>(rng.below(10))),
                         Value(static_cast<int64_t>(rng.below(1000)))});
        }
        cat.put("COHORTS", std::move(t));
    }
    {
        Schema s;
        s.addField("POS", DataType::Int64);
        s.addField("DEPTH", DataType::Int64);
        s.addField("IS_SNP", DataType::Int64);
        Table t("VARIANTS", s);
        for (int64_t i = 0; i < variants; ++i) {
            t.appendRow({Value(static_cast<int64_t>(rng.below(
                             static_cast<uint64_t>(span)))),
                         Value(static_cast<int64_t>(rng.below(500))),
                         Value(static_cast<int64_t>(rng.below(2)))});
        }
        cat.put("VARIANTS", std::move(t));
    }
    return cat;
}

struct Query {
    const char *name;
    const char *sql;
};

constexpr Query kQueries[] = {
    {"Q1_star_agg",
     "SELECT COUNT(*) AS n, SUM(r.MAPQ) AS m FROM READS r "
     "INNER JOIN SAMPLES s ON r.SAMPLE_ID = s.SAMPLE_ID "
     "INNER JOIN COHORTS c ON s.COHORT_ID = c.COHORT_ID "
     "WHERE r.MAPQ >= 20 AND c.REGION == 3 GROUP BY s.COHORT_ID"},
    {"Q2_variant_scan",
     "SELECT COUNT(*) AS n, MIN(r.POS) AS p FROM READS r "
     "INNER JOIN VARIANTS v ON r.POS = v.POS "
     "WHERE v.IS_SNP == 1 AND r.FLAGS != 0 GROUP BY r.FLAGS"},
    {"Q3_four_way",
     "SELECT COUNT(*) AS n FROM READS r "
     "INNER JOIN SAMPLES s ON r.SAMPLE_ID = s.SAMPLE_ID "
     "INNER JOIN COHORTS c ON s.COHORT_ID = c.COHORT_ID "
     "INNER JOIN VARIANTS v ON r.POS = v.POS "
     "WHERE r.MAPQ >= 10 AND s.QUALITY >= 30 GROUP BY c.REGION"},
    {"Q4_outer_project",
     "SELECT r.ID AS id, r.POS AS pos, v.DEPTH AS d FROM READS r "
     "LEFT JOIN VARIANTS v ON r.POS = v.POS "
     "WHERE r.MAPQ >= 30 AND NOT r.FLAGS == 2"},
};

struct Mode {
    const char *name;
    bool optimize;
    bool vectorize;
};

constexpr Mode kModes[] = {
    {"naive", false, false},
    {"optimized", true, false},
    {"vectorized", true, true},
};

Table
runQuery(engine::Catalog &cat, const Mode &mode, const char *sql)
{
    engine::ExecConfig cfg;
    cfg.optimize = mode.optimize;
    cfg.vectorize = mode.vectorize;
    engine::Executor exec(cat, cfg);
    auto result = exec.run(sql);
    if (!result) {
        std::fprintf(stderr, "query produced no result table: %s\n",
                     sql);
        std::exit(1);
    }
    return std::move(*result);
}

} // namespace

int
main(int argc, char **argv)
{
    double require_speedup = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--require-speedup") == 0 &&
            i + 1 < argc) {
            require_speedup = bench::flagNumber<double>(
                "--require-speedup", argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--require-speedup X]\n", argv[0]);
            return 2;
        }
    }

    const int64_t pairs = bench::envPairs(2'000);
    engine::Catalog cat = makeStarCatalog(pairs, 2020);
    constexpr int kRepeats = 3;

    double total[std::size(kModes)] = {};
    bool ok = true;
    for (const Query &q : kQueries) {
        Table baseline("none", {});
        for (size_t m = 0; m < std::size(kModes); ++m) {
            const Mode &mode = kModes[m];
            Table result("none", {});
            double best = 0.0;
            for (int rep = 0; rep < kRepeats; ++rep) {
                double secs = bench::timeIt(
                    [&] { result = runQuery(cat, mode, q.sql); });
                if (rep == 0 || secs < best)
                    best = secs;
            }
            if (m == 0) {
                baseline = result;
            } else if (!baseline.contentEquals(result)) {
                std::fprintf(stderr,
                             "MISMATCH: mode '%s' diverged from naive "
                             "on %s\nnaive:\n%s\n%s:\n%s\n",
                             mode.name, q.name, baseline.str(10).c_str(),
                             mode.name, result.str(10).c_str());
                ok = false;
            }
            total[m] += best;
            std::printf("{\"bench\": \"sql_join\", \"query\": \"%s\", "
                        "\"mode\": \"%s\", \"rows\": %zu, "
                        "\"wall_seconds\": %.6f}\n",
                        q.name, mode.name, result.numRows(), best);
        }
    }

    double speedup_opt = total[1] > 0 ? total[0] / total[1] : 0.0;
    double speedup_vec = total[2] > 0 ? total[0] / total[2] : 0.0;
    std::printf("{\"bench\": \"sql_join\", \"summary\": true, "
                "\"pairs\": %lld, "
                "\"naive_seconds\": %.6f, "
                "\"optimized_seconds\": %.6f, "
                "\"vectorized_seconds\": %.6f, "
                "\"optimized_speedup\": %.2f, "
                "\"vectorized_speedup\": %.2f}\n",
                static_cast<long long>(pairs), total[0], total[1],
                total[2], speedup_opt, speedup_vec);

    if (!ok) {
        std::fprintf(stderr, "result mismatch between executor modes\n");
        return 1;
    }
    if (require_speedup > 0 && speedup_vec < require_speedup) {
        std::fprintf(stderr,
                     "vectorized speedup %.2fx below required %.2fx\n",
                     speedup_vec, require_speedup);
        return 1;
    }
    return 0;
}
