#include "runtime/batch.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/trace.h"

namespace genesis::runtime {

namespace {

/** One in-flight shard: its session and private trace recording. */
struct Lane {
    std::unique_ptr<AcceleratorSession> session;
    std::unique_ptr<TraceSink> trace;
    size_t shard = 0;
};

} // namespace

BatchRunner::BatchRunner(const BatchConfig &config) : config_(config)
{
    if (config_.numLanes < 1)
        fatal("batch needs at least one lane");
}

BatchStats
BatchRunner::run(size_t num_shards, const ShardBuild &build,
                 const ShardCollect &collect)
{
    const auto wall_start = std::chrono::steady_clock::now();
    BatchStats stats;
    stats.shards = num_shards;

    TraceSink *shared_trace = config_.runtime.trace;
    // Sessions must never record into the shared sink directly: it is
    // single-writer and the lanes run concurrently. Each shard gets a
    // private sink, adopted into the shared one at retirement.
    RuntimeConfig shard_config = config_.runtime;
    shard_config.trace = nullptr;

    const size_t lanes =
        std::min<size_t>(static_cast<size_t>(config_.numLanes),
                         num_shards ? num_shards : 1);
    std::vector<Lane> inflight(lanes);

    auto retire = [&](Lane &lane) {
        if (!lane.session)
            return;
        lane.session->wait();
        collect(lane.shard, *lane.session);
        stats.timing += lane.session->timing();
        stats.totalCycles += lane.session->sim().cycle();
        if (shared_trace && lane.trace)
            shared_trace->adopt(*lane.trace);
        lane.session.reset();
        lane.trace.reset();
    };

    for (size_t shard = 0; shard < num_shards; ++shard) {
        Lane &lane = inflight[shard % lanes];
        // Blocks only when this lane's previous shard is still running;
        // the other lanes keep executing while we build the next shard.
        retire(lane);
        lane.shard = shard;
        lane.session = config_.sharedDevice
            ? std::make_unique<AcceleratorSession>(shard_config,
                                                   config_.sharedDevice)
            : std::make_unique<AcceleratorSession>(shard_config);
        if (shared_trace) {
            lane.trace = std::make_unique<TraceSink>();
            lane.session->attachTrace(
                lane.trace.get(),
                config_.runtime.traceLabel + ".shard" +
                    std::to_string(shard));
        }
        build(shard, *lane.session);
        lane.session->start();
    }
    // Drain in deal order so collect() sees shards retire oldest-first.
    for (size_t i = 0; i < lanes; ++i)
        retire(inflight[(num_shards + i) % lanes]);

    const auto wall_end = std::chrono::steady_clock::now();
    stats.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    return stats;
}

} // namespace genesis::runtime
