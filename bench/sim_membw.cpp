/**
 * @file
 * Memory-model bandwidth microbench.
 *
 * Drives the MemorySystem directly (no pipeline modules) with four
 * address-stream shapes and reports the effective bandwidth each
 * sustains, making the DRAM model's row/bank/interleave effects visible
 * as numbers CI can trend:
 *
 *  - "streaming":           aligned sequential reads, full granules
 *  - "streaming_unaligned": the same stream shifted +13 B, exercising
 *                           boundary splitting and tail/head coalescing
 *  - "strided":             row-granular stride, defeating the open-row
 *                           buffer (every access is a row miss)
 *  - "gather":              small unaligned reads at LCG-scattered
 *                           addresses, the markdup/BQSR gather shape
 *
 * Each pattern runs under two drivers and asserts they agree bit-exactly:
 *
 *  - "percycle":  issue-fill, tick, drain — one tick per simulated cycle
 *                 (the reference driver).
 *  - "eventjump": the same loop, but after each tick the driver asks
 *                 nextEventCycle() for the next cycle the memory system
 *                 can change state and skips the proven-quiet span with
 *                 tickQuiet(). Issue opportunities only open on
 *                 retirements — which are events — so the two drivers
 *                 issue at identical cycles and finish with identical
 *                 cycle counts, stats and per-channel byte totals; the
 *                 jump driver just spends no host time on no-op ticks.
 *
 * The main per-pattern JSON line reports both wall clocks and their
 * ratio ("evjump_speedup"); `--require-speedup X` exits non-zero when
 * the streaming pattern's ratio lands below X (the CI floor).
 *
 * Each pattern issues the same byte volume through the same number of
 * ports, so bytes/cycle is directly comparable across rows. Output is
 * one JSON object per line; pass `--out <path>` to also write the lines
 * to a file (CI uploads it as an artifact). Scale the per-pattern byte
 * volume with GENESIS_MEMBW_BYTES (default 1 MiB).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/logging.h"
#include "bench_common.h"
#include "sim/memory.h"

using namespace genesis;

namespace {

/** Next request of one synthetic address stream. */
struct Request {
    uint64_t addr = 0;
    uint32_t bytes = 0;
};

/** Stateful generator for one port's share of a pattern. */
class Stream
{
  public:
    enum class Kind { Streaming, StreamingUnaligned, Strided, Gather };

    Stream(Kind kind, int port_index, uint64_t budget_bytes,
           const sim::MemoryConfig &cfg)
        : kind_(kind), remaining_(budget_bytes),
          // Disjoint 64 MiB regions keep ports from aliasing rows; the
          // extra row of skew starts each port on a different bank so
          // lockstep streams don't close each other's open rows.
          base_((static_cast<uint64_t>(port_index) << 26) +
                static_cast<uint64_t>(port_index) * cfg.rowBytes *
                    static_cast<uint64_t>(cfg.numChannels)),
          rowStride_(static_cast<uint64_t>(cfg.rowBytes) *
                     static_cast<uint64_t>(cfg.numChannels)),
          lcg_(0x9e3779b97f4a7c15ull + static_cast<uint64_t>(port_index))
    {
    }

    bool exhausted() const { return remaining_ == 0; }

    Request
    next()
    {
        Request r;
        switch (kind_) {
          case Kind::Streaming:
            r.addr = base_ + offset_;
            r.bytes = static_cast<uint32_t>(
                std::min<uint64_t>(64, remaining_));
            offset_ += r.bytes;
            break;
          case Kind::StreamingUnaligned:
            r.addr = base_ + offset_ + 13;
            r.bytes = static_cast<uint32_t>(
                std::min<uint64_t>(64, remaining_));
            offset_ += r.bytes;
            break;
          case Kind::Strided:
            // One granule per row: every access opens a fresh row.
            r.addr = base_ + offset_;
            r.bytes = static_cast<uint32_t>(
                std::min<uint64_t>(64, remaining_));
            offset_ += rowStride_;
            break;
          case Kind::Gather:
            lcg_ = lcg_ * 6364136223846793005ull +
                1442695040888963407ull;
            // Scattered unaligned reads inside a 32 MiB footprint.
            r.addr = base_ + ((lcg_ >> 16) & ((32ull << 20) - 1));
            r.bytes = static_cast<uint32_t>(
                std::min<uint64_t>(16, remaining_));
            break;
        }
        remaining_ -= r.bytes;
        return r;
    }

  private:
    Kind kind_;
    uint64_t remaining_;
    uint64_t base_;
    uint64_t offset_ = 0;
    uint64_t rowStride_;
    uint64_t lcg_;
};

/** Everything one driver run produces, for cross-mode comparison. */
struct RunResult {
    uint64_t issued = 0;
    uint64_t cycles = 0;
    std::map<std::string, uint64_t> stats;
    std::vector<uint64_t> channelBytes;
    double wallSeconds = 0.0;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Drive one pattern to completion.
 * @param event_jump skip proven-quiet spans with tickQuiet()
 */
RunResult
runOnce(Stream::Kind kind, uint64_t total_bytes, int num_ports,
        bool event_jump)
{
    sim::MemoryConfig cfg;
    sim::MemorySystem mem(cfg);
    std::vector<sim::MemoryPort *> ports;
    std::vector<Stream> streams;
    for (int p = 0; p < num_ports; ++p) {
        ports.push_back(mem.makePort(p));
        streams.emplace_back(kind, p,
                             total_bytes / static_cast<uint64_t>(
                                 num_ports), cfg);
    }

    auto start = std::chrono::steady_clock::now();
    RunResult res;
    bool all_exhausted = false;
    while (!all_exhausted || !mem.idle()) {
        all_exhausted = true;
        for (int p = 0; p < num_ports; ++p) {
            while (!streams[static_cast<size_t>(p)].exhausted() &&
                   ports[static_cast<size_t>(p)]->canIssue()) {
                Request r = streams[static_cast<size_t>(p)].next();
                ports[static_cast<size_t>(p)]->issue(r.addr, r.bytes,
                                                     false);
                res.issued += r.bytes;
            }
            if (!streams[static_cast<size_t>(p)].exhausted())
                all_exhausted = false;
        }
        mem.tick();
        for (auto *port : ports)
            port->takeCompletedReadBytes();
        if (!event_jump)
            continue;
        // Issue credit only opens on a retirement, which is an event, so
        // every tick strictly before nextEventCycle() would re-run this
        // loop body with nothing to do. Skip the span; tickQuiet credits
        // the skipped ticks' stats bit-exactly.
        uint64_t next = mem.nextEventCycle();
        if (next != sim::MemorySystem::kNoEvent &&
            next > mem.cycle() + 1) {
            mem.tickQuiet(next - mem.cycle() - 1);
        }
    }
    mem.assertStatInvariant();
    res.wallSeconds = secondsSince(start);

    res.cycles = mem.cycle();
    res.stats = mem.stats().counters();
    for (int ch = 0; ch < cfg.numChannels; ++ch)
        res.channelBytes.push_back(mem.channelBytes(ch));
    return res;
}

/** Die loudly if two driver runs of one pattern diverged anywhere. */
void
assertIdentical(const char *name, const char *what, const RunResult &a,
                const RunResult &b)
{
    if (a.issued != b.issued || a.cycles != b.cycles ||
        a.stats != b.stats || a.channelBytes != b.channelBytes) {
        fatal("sim_membw %s: %s diverged from the per-cycle reference "
              "(cycles %" PRIu64 " vs %" PRIu64 ")",
              name, what, b.cycles, a.cycles);
    }
}

/** Run one pattern under both drivers and emit its JSON line. */
std::string
runPattern(const char *name, Stream::Kind kind, uint64_t total_bytes,
           int num_ports, double *streaming_speedup)
{
    RunResult ref =
        runOnce(kind, total_bytes, num_ports, /*event_jump=*/false);
    RunResult jump =
        runOnce(kind, total_bytes, num_ports, /*event_jump=*/true);
    assertIdentical(name, "event-jump driver", ref, jump);

    uint64_t ch_min = ~0ull, ch_max = 0;
    for (uint64_t b : ref.channelBytes) {
        ch_min = std::min(ch_min, b);
        ch_max = std::max(ch_max, b);
    }
    double speedup = jump.wallSeconds > 0.0
        ? ref.wallSeconds / jump.wallSeconds : 0.0;
    if (streaming_speedup && std::strcmp(name, "streaming") == 0)
        *streaming_speedup = speedup;

    auto stat = [&ref](const char *key) {
        auto it = ref.stats.find(key);
        return it == ref.stats.end() ? uint64_t(0) : it->second;
    };
    char line[832];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\": \"sim_membw\", \"pattern\": \"%s\", "
        "\"bytes\": %" PRIu64 ", \"cycles\": %" PRIu64 ", "
        "\"bytes_per_cycle\": %.3f, "
        "\"sub_requests\": %" PRIu64 ", "
        "\"coalesced_sub_requests\": %" PRIu64 ", "
        "\"row_hits\": %" PRIu64 ", \"row_misses\": %" PRIu64 ", "
        "\"bank_conflict_cycles\": %" PRIu64 ", "
        "\"channel_busy_cycles\": %" PRIu64 ", "
        "\"channel_idle_cycles\": %" PRIu64 ", "
        "\"channel_bytes_min\": %" PRIu64 ", "
        "\"channel_bytes_max\": %" PRIu64 ", "
        "\"channel_imbalance\": %.4f, "
        "\"percycle_wall_seconds\": %.4f, "
        "\"evjump_wall_seconds\": %.4f, "
        "\"evjump_speedup\": %.2f}",
        name, ref.issued, ref.cycles,
        ref.cycles ? static_cast<double>(ref.issued) /
                static_cast<double>(ref.cycles) : 0.0,
        stat("sub_requests"), stat("coalesced_sub_requests"),
        stat("row_hits"), stat("row_misses"),
        stat("bank_conflict_cycles"), stat("channel_busy_cycles"),
        stat("channel_idle_cycles"), ch_min, ch_max,
        ch_min ? static_cast<double>(ch_max) /
                static_cast<double>(ch_min) : 0.0,
        ref.wallSeconds, jump.wallSeconds, speedup);
    return std::string(line);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = nullptr;
    double require_speedup = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--require-speedup") == 0 &&
                   i + 1 < argc) {
            require_speedup = bench::flagNumber<double>(
                "--require-speedup", argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out results.json] "
                         "[--require-speedup X]\n", argv[0]);
            return 2;
        }
    }

    uint64_t total_bytes = static_cast<uint64_t>(
        envInt64("GENESIS_MEMBW_BYTES", 1ll << 20, 1));

    const int kPorts = 4;
    double streaming_speedup = 0.0;
    std::vector<std::string> lines;
    lines.push_back(runPattern("streaming", Stream::Kind::Streaming,
                               total_bytes, kPorts,
                               &streaming_speedup));
    lines.push_back(runPattern("streaming_unaligned",
                               Stream::Kind::StreamingUnaligned,
                               total_bytes, kPorts, nullptr));
    lines.push_back(runPattern("strided", Stream::Kind::Strided,
                               total_bytes, kPorts, nullptr));
    lines.push_back(runPattern("gather", Stream::Kind::Gather,
                               total_bytes, kPorts, nullptr));

    for (const auto &line : lines)
        std::printf("%s\n", line.c_str());
    if (out_path) {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", out_path);
            return 1;
        }
        for (const auto &line : lines)
            std::fprintf(f, "%s\n", line.c_str());
        std::fclose(f);
    }
    if (require_speedup > 0.0 && streaming_speedup < require_speedup) {
        std::fprintf(stderr,
                     "sim_membw: streaming event-jump speedup %.2fx "
                     "below required %.2fx\n",
                     streaming_speedup, require_speedup);
        return 1;
    }
    return 0;
}
